#include <algorithm>
#include <span>
#include <vector>

#include "filter/serial.hpp"
#include "filter/variants.hpp"
#include "kernels/simd/dispatch.hpp"
#include "util/error.hpp"

namespace agcm::filter {

namespace {
constexpr int kRingTag = 310;
}

void ConvolutionRingFilter::apply_impl(
    std::span<grid::Array3D<double>* const> fields) {
  validate_fields(fields);
  // The original AGCM filtered "one variable at a time" (Section 3.3); the
  // serialisation is part of what the paper's new module removed, so we
  // reproduce it faithfully here.
  for (int v = 0; v < bank().nvars(); ++v) {
    filter_variable(*fields[static_cast<std::size_t>(v)], v);
  }
}

void ConvolutionRingFilter::filter_variable(grid::Array3D<double>& field,
                                            int v) {
  const auto& row_comm = mesh().row_comm();
  auto& clock = row_comm.context().clock();
  const int ncols = mesh().cols();
  const int nlev = bank().grid().nlev();
  const int nlon = decomp().nlon();
  const grid::LocalBox& b = box();

  // The filtered rows inside my latitude band (bank rows are ascending).
  // Lines run in (j asc, k asc) order.
  const std::vector<int>& all_rows = bank().rows(v);
  const std::span<const int> rows(
      std::lower_bound(all_rows.begin(), all_rows.end(), b.j0),
      std::lower_bound(all_rows.begin(), all_rows.end(), b.j0 + b.nj));
  const std::size_t nlines = rows.size() * static_cast<std::size_t>(nlev);
  if (nlines == 0) return;  // this processor row has no filtering work

  // Rotating buffer starts as my own chunks; after r hops westward it holds
  // the chunks originally owned by column (mycol + r) mod ncols. Once
  // copied out, the field's own chunks are zeroed and accumulate the
  // output in place.
  const auto ni = static_cast<std::size_t>(b.ni);
  held_.resize(nlines * ni);
  hop_.resize(ni);
  double* mine = held_.data();
  for (int j : rows) {
    for (int k = 0; k < nlev; ++k, mine += ni) {
      const auto line = chunk(field, b, j, k);
      std::copy(line.begin(), line.end(), mine);
      std::fill(line.begin(), line.end(), 0.0);
    }
  }

  const simd::KernelOps& ops = simd::ops();
  for (int r = 0; r < ncols; ++r) {
    const int src_col = (mesh().coord().col + r) % ncols;
    const int src_i0 = decomp().lon_partition().start(src_col);
    const int src_ni = decomp().lon_partition().size(src_col);
    AGCM_ASSERT(held_.size() == nlines * static_cast<std::size_t>(src_ni));

    // This chunk's contribution to my outputs:
    //   out[i] += sum_{g in held range} kernel[(i - g) mod nlon] * held[g].
    // The tap linking output c to source g is window_[c + src_ni - 1 - g],
    // with window_[u] = kernel[(i0 - src_i0 - (src_ni - 1) + u) mod nlon],
    // so the modulo runs once per window entry, per row and hop, instead
    // of once per tap. Each line's hop sum starts at zero and is added to
    // the output once, as in the direct per-tap loop, so the bits match it.
    window_.resize(ni + static_cast<std::size_t>(src_ni) - 1);
    int lag0 = (b.i0 - src_i0 - (src_ni - 1)) % nlon;
    if (lag0 < 0) lag0 += nlon;
    const double* src = held_.data();
    for (int j : rows) {
      const auto kernel = bank().kernel(v, j);
      int lag = lag0;
      for (double& tap : window_) {
        tap = kernel[static_cast<std::size_t>(lag)];
        if (++lag == nlon) lag = 0;
      }
      for (int k = 0; k < nlev; ++k, src += src_ni) {
        ops.conv_window(src_ni, b.ni, src, window_.data(), hop_.data());
        const auto out = chunk(field, b, j, k);
        for (std::size_t c = 0; c < ni; ++c) out[c] += hop_[c];
      }
    }
    clock.compute(convolution_chunk_flops(src_ni, b.ni) *
                      static_cast<double>(nlines),
                  clock.profile().loop_efficiency(static_cast<double>(src_ni)));

    // Rotate: pass the held buffer one hop westward so chunks circulate
    // east-to-west around the ring. The received payload overwrites the
    // whole buffer, so a plain resize (no refill) is enough.
    if (r + 1 < ncols) {
      row_comm.send<double>((row_comm.rank() - 1 + ncols) % ncols, kRingTag,
                            held_);
      const int next_src = (mesh().coord().col + r + 1) % ncols;
      held_.resize(nlines * static_cast<std::size_t>(
                                decomp().lon_partition().size(next_src)));
      row_comm.recv<double>((row_comm.rank() + 1) % ncols, kRingTag, held_);
    }
  }
}

}  // namespace agcm::filter
