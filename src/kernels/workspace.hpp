// Per-rank kernel-engine workspace: growth-only scratch for the dynamics
// and physics hot loops.
//
// Same lifetime pattern as fft::FftWorkspace (docs/fft.md): `local()`
// resolves through the executing rank's util::ExecSlot — the explicit
// per-rank handle both simnet backends install around rank code (see
// util/exec_local.hpp) — so the workspace stays a *per-rank* workspace even
// when many rank fibers share one worker thread: no locking, no false
// sharing, no cross-rank reuse after a fiber migrates, and after the first
// step at a given local shape NO heap allocation on the advection or
// column-physics path (the acceptance criterion tests/test_kernel_alloc.cpp
// enforces, including under ASan+UBSan in CI). Callers off the virtual
// machine fall back to a plain thread_local instance.
//
// Lifetime rules (docs/kernels.md):
//   * `local()` lives as long as its rank's run (or its thread, for the
//     off-machine fallback). References and spans returned by the
//     accessors stay valid until the next call to the SAME accessor with a
//     different shape/size (growth or reshape reallocates) or to
//     `reset()`.
//   * The flux arrays and the tracer-update set are reshaped only when the
//     requested shape differs from the cached one; with the steady
//     per-rank shapes of a model run that means allocation happens on the
//     first step only.
//   * At most ONE `column_buffer()` borrow may be live at a time per
//     rank (single-borrow rule, as FftWorkspace::complex_buffer). The
//     column engine takes one borrow per column and carves its emissivity
//     table and tridiagonal bands out of it.
#pragma once

#include <span>
#include <vector>

#include "grid/array3d.hpp"
#include "util/exec_local.hpp"

namespace agcm::kernels {

class KernelWorkspace {
 public:
  /// The executing virtual rank's workspace (via the installed ExecSlot),
  /// or a thread_local fallback for callers outside any SPMD run.
  static KernelWorkspace& local();

  KernelWorkspace(const KernelWorkspace&) = delete;
  KernelWorkspace& operator=(const KernelWorkspace&) = delete;

  /// Zonal / meridional mass-flux scratch for the advection engine
  /// (interior ni x nj x nk, ghost 1). Contents are unspecified on entry.
  grid::Array3D<double>& flux_x(int ni, int nj, int nk);
  grid::Array3D<double>& flux_y(int ni, int nj, int nk);

  /// `count` ghost-free update fields of the given interior shape (the
  /// seed path's per-call `updated` vector). Contents unspecified.
  std::span<grid::Array3D<double>> tracer_updates(std::size_t count, int ni,
                                                  int nj, int nk);

  /// Reusable double scratch of at least `count` elements (tridiagonal
  /// bands, pivot scratch, emissivity tables). Grows — and allocates —
  /// only when `count` exceeds the high-water mark; contents unspecified.
  std::span<double> column_buffer(std::size_t count);

  /// Drops all scratch (tests only — invalidates outstanding borrows).
  void reset();

 private:
  friend class agcm::util::ExecSlot;  // slot-local construction in local()
  KernelWorkspace() = default;

  static void reshape(grid::Array3D<double>& a, int ni, int nj, int nk,
                      int ghost);

  grid::Array3D<double> flux_x_;
  grid::Array3D<double> flux_y_;
  std::vector<grid::Array3D<double>> updates_;
  std::vector<double> column_;
};

}  // namespace agcm::kernels
