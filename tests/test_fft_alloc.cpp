// Allocation-freedom test: after a warm-up call at a given length, no FFT
// or FFT-filter entry point may touch the heap (ISSUE 2 acceptance
// criterion; the scratch lives in the thread-local fft::FftWorkspace).
//
// The check hooks the global operator new/delete with a counting wrapper
// (tests/counting_new.hpp). This lives in its own test binary so the hooks
// cannot perturb the other suites. Counts are sampled into plain locals around the measured region
// and asserted afterwards, so the gtest machinery's own allocations never
// leak into the measurement.
#include <gtest/gtest.h>

#include <vector>

#include "counting_new.hpp"

#include "fft/fft.hpp"
#include "fft/workspace.hpp"
#include "filter/bank.hpp"
#include "filter/serial.hpp"
#include "grid/latlon.hpp"
#include "util/rng.hpp"

namespace agcm::fft {
namespace {

TEST(AllocationHook, CountsHeapTraffic) {
  const std::size_t before = allocs();
  auto* v = new std::vector<double>(1000);
  const std::size_t after = allocs();
  delete v;
  EXPECT_GE(after - before, 2u);  // the vector object + its storage
}

TEST(FftAllocFree, TransformsAfterWarmup) {
  const int n = 144;
  auto& ws = FftWorkspace::local();
  const FftPlan& plan = ws.plan(n);

  Rng rng(11);
  std::vector<Complex> z(static_cast<std::size_t>(n));
  std::vector<double> x(static_cast<std::size_t>(n)), y(x.size());
  std::vector<double> x2(x.size()), y2(y.size());
  std::vector<Complex> sx(x.size()), sy(y.size());
  for (auto& v : z) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  for (double& v : x) v = rng.uniform(-1.0, 1.0);
  for (double& v : y) v = rng.uniform(-1.0, 1.0);

  // Warm-up: grows the workspace buffers once.
  plan.forward(z);
  plan.inverse(z);
  plan.forward_real(x, sx);
  plan.inverse_to_real(sx, x2);
  plan.forward_real_pair(x, y, sx, sy);
  plan.inverse_to_real_pair(sx, sy, x2, y2);

  const std::size_t before = allocs();
  plan.forward(z);
  plan.inverse(z);
  plan.forward_real(x, sx);
  plan.inverse_to_real(sx, x2);
  plan.forward_real_pair(x, y, sx, sy);
  plan.inverse_to_real_pair(sx, sy, x2, y2);
  const std::size_t after = allocs();
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " heap allocations on warmed-up FFT paths";
}

TEST(FftAllocFree, FilterKernelsAfterWarmup) {
  const grid::LatLonGrid grid(144, 90, 3);
  const filter::FilterBank bank(
      grid, {{"u", filter::FilterKind::kStrong},
             {"t", filter::FilterKind::kWeak}});
  auto& ws = FftWorkspace::local();
  const FftPlan& plan = ws.plan(grid.nlon());
  const auto n = static_cast<std::size_t>(grid.nlon());

  // A batch mixing variables, rows and layers (odd count exercises the
  // trailing single-line path too).
  const auto& all = bank.lines();
  ASSERT_GE(all.size(), 7u);
  const std::vector<filter::LineKey> batch(all.begin(), all.begin() + 7);

  Rng rng(12);
  std::vector<double> data(batch.size() * n);
  for (double& v : data) v = rng.uniform(-1.0, 1.0);
  std::vector<double> a(n), b(n);
  for (double& v : a) v = rng.uniform(-1.0, 1.0);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  const filter::LineKey la = batch[0];
  const filter::LineKey lb = batch[1];

  // Warm-up pass (workspace growth + any lazy bank tables).
  filter::filter_line_fft(plan, a, bank.response(la.var, la.j));
  filter::filter_line_pair_fft(plan, a, b, bank.response(la.var, la.j),
                               bank.response(lb.var, lb.j));
  filter::filter_lines_fft(plan, bank, batch, data);

  const std::size_t before = allocs();
  filter::filter_line_fft(plan, a, bank.response(la.var, la.j));
  filter::filter_line_pair_fft(plan, a, b, bank.response(la.var, la.j),
                               bank.response(lb.var, lb.j));
  filter::filter_lines_fft(plan, bank, batch, data);
  const std::size_t after = allocs();
  EXPECT_EQ(after - before, 0u)
      << (after - before)
      << " heap allocations on warmed-up filter paths (per-line budget is 0)";
}

TEST(FftAllocFree, PartitionedFilterAfterWarmup) {
  const grid::LatLonGrid grid(144, 90, 3);
  const filter::FilterBank bank(
      grid, {{"u", filter::FilterKind::kStrong},
             {"t", filter::FilterKind::kWeak}});
  const auto n = static_cast<std::size_t>(grid.nlon());

  const auto& all = bank.lines();
  ASSERT_GE(all.size(), 7u);
  const std::vector<filter::LineKey> batch(all.begin(), all.begin() + 7);

  Rng rng(13);
  std::vector<double> data(batch.size() * n);
  for (double& v : data) v = rng.uniform(-1.0, 1.0);
  std::vector<double> a(n), b(n);
  for (double& v : a) v = rng.uniform(-1.0, 1.0);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  const filter::LineKey la = batch[0];

  // Warm-up pass: builds the bank's lazy partition spectra (kernel +
  // block transforms), the small-FFT plan and the PartitionWorkspace
  // growth-only buffers. The batched driver warms every row the batch
  // touches, so the timed pass below may allocate exactly nothing.
  const filter::PartitionedKernel& pk = bank.partition(la.var, la.j);
  filter::filter_line_partition(pk, a);
  filter::filter_line_pair_partition(pk, a, b);
  filter::filter_lines_partition(bank, batch, data);

  const std::size_t before = allocs();
  filter::filter_line_partition(pk, a);
  filter::filter_line_pair_partition(pk, a, b);
  filter::filter_lines_partition(bank, batch, data);
  const std::size_t after = allocs();
  EXPECT_EQ(after - before, 0u)
      << (after - before)
      << " heap allocations on the warmed-up partitioned filter path "
         "(per-line budget is 0 — docs/filter.md)";
}

}  // namespace
}  // namespace agcm::fft
