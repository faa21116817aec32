// Allocation-stability test for campaign serving: constructing, running
// and destroying the same experiment repeatedly must not grow the heap
// traffic per run. The expensive immutable state (FFT plans, FilterBank
// kernel spectra, emissivity tables) lives in the process-wide shared
// caches (util/shared_cache.hpp), so after the first run every later run
// allocates exactly the same, strictly smaller, amount — no per-Machine
// duplication of cached state, and no cache that quietly grows on every
// acquisition (the ISSUE 9 call_once audit, as a regression fence).
//
// The global operator new/delete counting hook is tests/counting_new.hpp;
// it lives in its own binary so the hook cannot perturb the other suites.
#include <gtest/gtest.h>

#include "counting_new.hpp"

#include "core/model.hpp"
#include "util/shared_cache.hpp"

namespace agcm {
namespace {

core::ModelConfig small_cell() {
  core::ModelConfig config;
  config.nlon = 48;
  config.nlat = 30;
  config.nlev = 3;
  config.mesh_rows = 1;
  config.mesh_cols = 1;
  config.physics_load_balance = true;
  return config;
}

std::size_t allocs_for_one_run(const core::ModelConfig& config) {
  const std::size_t before = allocs();
  (void)core::run_model(config, /*steps=*/1, /*warmup_steps=*/1);
  return allocs() - before;
}

TEST(CampaignAllocStable, RepeatedRunsAllocateIdentically) {
  util::SharedCaches::ScopedEnable on(true);
  util::SharedCaches::clear_all();
  const core::ModelConfig config = small_cell();

  const std::size_t cold = allocs_for_one_run(config);
  const std::size_t warm2 = allocs_for_one_run(config);
  const std::size_t warm3 = allocs_for_one_run(config);
  const std::size_t warm4 = allocs_for_one_run(config);

  // The first run builds the shared immutable state; later runs reuse it.
  EXPECT_LT(warm2, cold)
      << "second run rebuilt state the shared caches should hold";
  // Steady state: every warm construct/run/destroy cycle allocates exactly
  // the same amount — any growth means some cache or registry is
  // accumulating per-Machine state.
  EXPECT_EQ(warm3, warm4) << "warm runs are not allocation-stable";
  EXPECT_LE(warm4, warm2) << "per-run allocations grew across repeats";
}

TEST(CampaignAllocStable, DisabledCachesStayColdButStable) {
  util::SharedCaches::ScopedEnable off(false);
  util::SharedCaches::clear_all();
  const core::ModelConfig config = small_cell();

  const std::size_t run1 = allocs_for_one_run(config);
  const std::size_t run2 = allocs_for_one_run(config);
  const std::size_t run3 = allocs_for_one_run(config);
  // With sharing off every run rebuilds everything: same count each time,
  // and never less than a warm shared-cache run would need.
  EXPECT_EQ(run2, run3);
  EXPECT_LE(run1, run2 + run2 / 4)
      << "first disabled run allocated wildly more than later ones";
}

}  // namespace
}  // namespace agcm
