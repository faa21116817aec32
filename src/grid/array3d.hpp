// Dense 3-D array with optional ghost (halo) cells in the two horizontal
// dimensions. Storage order matches the Fortran AGCM: the longitude index i
// is fastest, then latitude j, then layer k — so one "data row" (a full
// latitude circle at fixed j,k) is contiguous, which is what the spectral
// filter wants.
//
// Storage is 64-byte aligned and, for ghosted arrays, row-padded so the
// j-stride is a multiple of a cache line (docs/kernels.md): the kernel
// engine walks rows through raw FieldView pointers and the aligned, padded
// layout keeps every (j, k) row start on a cache-line boundary. Ghost-free
// arrays are never padded, so their interior is one contiguous run (the
// pack_interior/unpack_interior single-memcpy fast path relies on this).
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <span>
#include <vector>

#include "grid/field_view.hpp"
#include "util/aligned.hpp"
#include "util/error.hpp"

namespace agcm::grid {

/// The over-aligning allocator lives in util/aligned.hpp now (the FFT layer
/// shares it); this using-declaration keeps grid::AlignedAllocator spelled
/// as before.
using agcm::util::AlignedAllocator;

template <typename T>
class Array3D {
 public:
  /// Alignment of the storage base (and, with row padding, of every row
  /// start of a ghosted array's backing grid).
  static constexpr std::size_t kAlignBytes = 64;

  Array3D() = default;

  /// `ni x nj x nk` interior cells with `ghost` extra cells on each side of
  /// the i and j dimensions (k never has ghosts: vertical columns are local).
  Array3D(int ni, int nj, int nk, int ghost = 0)
      : ni_(ni), nj_(nj), nk_(nk), ghost_(ghost),
        stride_i_(1),
        stride_j_(padded_row(ni, ghost)),
        stride_k_(stride_j_ * static_cast<std::size_t>(nj + 2 * ghost)),
        data_(stride_k_ * static_cast<std::size_t>(nk), T{}) {
    AGCM_ASSERT(ni > 0 && nj > 0 && nk > 0 && ghost >= 0);
  }

  int ni() const { return ni_; }
  int nj() const { return nj_; }
  int nk() const { return nk_; }
  int ghost() const { return ghost_; }

  /// Element strides of the backing storage. stride_j() can exceed
  /// ni + 2*ghost (row padding); always use these, never recompute.
  std::size_t stride_j() const { return stride_j_; }
  std::size_t stride_k() const { return stride_k_; }

  /// Interior cell count.
  std::size_t interior_size() const {
    return static_cast<std::size_t>(ni_) * static_cast<std::size_t>(nj_) *
           static_cast<std::size_t>(nk_);
  }

  /// Valid index ranges: i in [-ghost, ni+ghost), j likewise, k in [0, nk).
  T& at(int i, int j, int k) { return data_[offset(i, j, k)]; }
  const T& at(int i, int j, int k) const { return data_[offset(i, j, k)]; }

  T& operator()(int i, int j, int k) { return at(i, j, k); }
  const T& operator()(int i, int j, int k) const { return at(i, j, k); }

  /// Strided raw-pointer view pre-offset to the interior origin (0, 0, 0);
  /// the kernel engine's access path (see grid/field_view.hpp).
  BasicFieldView<T> view() {
    return {data_.data() + offset(0, 0, 0),
            static_cast<std::ptrdiff_t>(stride_i_),
            static_cast<std::ptrdiff_t>(stride_j_),
            static_cast<std::ptrdiff_t>(stride_k_),
            ni_, nj_, nk_, ghost_};
  }
  BasicFieldView<const T> view() const {
    return {data_.data() + offset(0, 0, 0),
            static_cast<std::ptrdiff_t>(stride_i_),
            static_cast<std::ptrdiff_t>(stride_j_),
            static_cast<std::ptrdiff_t>(stride_k_),
            ni_, nj_, nk_, ghost_};
  }

  /// Raw storage including ghosts and any row padding (for I/O and
  /// whole-array operations on same-shape arrays).
  std::span<T> raw() { return data_; }
  std::span<const T> raw() const { return data_; }

  /// Contiguous interior row at fixed (j, k): cells (0..ni-1, j, k).
  std::span<T> row(int j, int k) {
    return {data_.data() + offset(0, j, k), static_cast<std::size_t>(ni_)};
  }
  std::span<const T> row(int j, int k) const {
    return {data_.data() + offset(0, j, k), static_cast<std::size_t>(ni_)};
  }

  void fill(const T& value) { std::fill(data_.begin(), data_.end(), value); }

  /// True when the interior is one contiguous run in storage (no ghosts, no
  /// row padding) — the single-memcpy pack/unpack precondition.
  bool contiguous_interior() const {
    return ghost_ == 0 && stride_j_ == static_cast<std::size_t>(ni_);
  }

  /// Copies interior cells (ghosts excluded) into a packed vector,
  /// i-fastest order. Ghost-free arrays are never padded, so this is a
  /// single memcpy for them; ghosted arrays copy row by row.
  std::vector<T> pack_interior() const {
    std::vector<T> out;
    if (contiguous_interior()) {
      out.assign(data_.begin(), data_.end());
      return out;
    }
    out.reserve(interior_size());
    for (int k = 0; k < nk_; ++k)
      for (int j = 0; j < nj_; ++j) {
        const auto r = row(j, k);
        out.insert(out.end(), r.begin(), r.end());
      }
    return out;
  }

  /// Inverse of pack_interior (same fast path).
  void unpack_interior(std::span<const T> packed) {
    AGCM_ASSERT(packed.size() == interior_size());
    if (contiguous_interior()) {
      std::memcpy(data_.data(), packed.data(), packed.size() * sizeof(T));
      return;
    }
    std::size_t pos = 0;
    for (int k = 0; k < nk_; ++k)
      for (int j = 0; j < nj_; ++j) {
        auto r = row(j, k);
        std::copy(packed.begin() + static_cast<std::ptrdiff_t>(pos),
                  packed.begin() + static_cast<std::ptrdiff_t>(pos + r.size()),
                  r.begin());
        pos += r.size();
      }
  }

  bool same_shape(const Array3D& other) const {
    return ni_ == other.ni_ && nj_ == other.nj_ && nk_ == other.nk_ &&
           ghost_ == other.ghost_;
  }

 private:
  /// Elements per cache line, when the line is an exact multiple of T.
  static constexpr std::size_t kPadElems =
      (kAlignBytes % sizeof(T) == 0) ? kAlignBytes / sizeof(T) : 1;

  /// Row length in storage. Ghosted (hot, stencil-walked) arrays round the
  /// row up to a whole number of cache lines; ghost-free arrays stay exact
  /// so their interior remains a single contiguous run.
  static std::size_t padded_row(int ni, int ghost) {
    const auto logical =
        static_cast<std::size_t>(ni) + 2 * static_cast<std::size_t>(ghost);
    if (ghost == 0) return logical;
    return (logical + kPadElems - 1) / kPadElems * kPadElems;
  }

  std::size_t offset(int i, int j, int k) const {
    AGCM_DBG_ASSERT(i >= -ghost_ && i < ni_ + ghost_);
    AGCM_DBG_ASSERT(j >= -ghost_ && j < nj_ + ghost_);
    AGCM_DBG_ASSERT(k >= 0 && k < nk_);
    return static_cast<std::size_t>(i + ghost_) * stride_i_ +
           static_cast<std::size_t>(j + ghost_) * stride_j_ +
           static_cast<std::size_t>(k) * stride_k_;
  }

  int ni_ = 0, nj_ = 0, nk_ = 0, ghost_ = 0;
  std::size_t stride_i_ = 1, stride_j_ = 0, stride_k_ = 0;
  std::vector<T, AlignedAllocator<T, kAlignBytes>> data_;
};

}  // namespace agcm::grid
