// Integration tests for the assembled model: run_model report sanity,
// the paper's qualitative performance relationships (filter variants,
// machines, load balancing) at miniature scale, and configuration checks.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/model.hpp"
#include "util/stats.hpp"

namespace agcm::core {
namespace {

ModelConfig small_config() {
  ModelConfig cfg;
  cfg.nlon = 36;
  cfg.nlat = 24;
  cfg.nlev = 3;
  cfg.mesh_rows = 2;
  cfg.mesh_cols = 2;
  cfg.dt_sec = 300.0;
  return cfg;
}

TEST(RunModel, ReportIsPopulatedAndConsistent) {
  const auto report = run_model(small_config(), 2, 1);
  EXPECT_EQ(report.steps, 2);
  EXPECT_DOUBLE_EQ(report.steps_per_day, 288.0);
  EXPECT_GT(report.per_step.filter, 0.0);
  EXPECT_GT(report.per_step.halo, 0.0);
  EXPECT_GT(report.per_step.fd, 0.0);
  EXPECT_GT(report.per_step.physics_compute, 0.0);
  EXPECT_GT(report.total_per_day(), 0.0);
  EXPECT_NEAR(report.total_per_day(),
              report.dynamics_per_day() + report.physics_per_day(), 1e-9);
  EXPECT_EQ(report.rank_physics_flops.size(), 4u);
  EXPECT_GT(report.total_messages, 0u);
  // The model conserves mass through a full dynamics+physics run.
  EXPECT_LT(report.mass_drift_rel, 1e-12);
}

TEST(RunModel, SingleNodeHasNoFilterImbalanceWait) {
  ModelConfig cfg = small_config();
  cfg.mesh_rows = 1;
  cfg.mesh_cols = 1;
  const auto report = run_model(cfg, 1, 0);
  EXPECT_GT(report.per_step.filter, 0.0);
  EXPECT_GT(report.per_step.fd, report.per_step.halo);
}

TEST(RunModel, FftFilterBeatsConvolutionFilter) {
  // The headline result: the FFT-based filter module is much cheaper than
  // the convolution module on the same mesh. The win scales with the line
  // length (N^2 vs N log N), so this test uses the paper's 144 longitudes
  // (shortened in latitude/levels to stay fast).
  ModelConfig conv = small_config();
  conv.nlon = 144;
  conv.nlat = 24;
  ModelConfig fft = conv;
  conv.filter_algorithm = filter::FilterAlgorithm::kConvolutionRing;
  fft.filter_algorithm = filter::FilterAlgorithm::kFftBalanced;
  const auto conv_report = run_model(conv, 2, 0);
  const auto fft_report = run_model(fft, 2, 0);
  EXPECT_LT(fft_report.per_step.filter, conv_report.per_step.filter);
  EXPECT_LT(fft_report.total_per_day(), conv_report.total_per_day());
}

TEST(RunModel, LoadBalancedFftBeatsPlainFftOnTallMeshes) {
  // With many processor rows, equatorial rows idle during filtering unless
  // the Figure-2 redistribution is applied.
  ModelConfig plain = small_config();
  plain.mesh_rows = 4;
  plain.mesh_cols = 1;
  plain.filter_algorithm = filter::FilterAlgorithm::kFftTranspose;
  ModelConfig balanced = plain;
  balanced.filter_algorithm = filter::FilterAlgorithm::kFftBalanced;
  const auto plain_report = run_model(plain, 2, 0);
  const auto balanced_report = run_model(balanced, 2, 0);
  EXPECT_LT(balanced_report.per_step.filter, plain_report.per_step.filter);
}

TEST(RunModel, T3dRunsFasterThanParagon) {
  ModelConfig paragon = small_config();
  paragon.machine = simnet::MachineProfile::intel_paragon();
  ModelConfig t3d = small_config();
  t3d.machine = simnet::MachineProfile::cray_t3d();
  const auto p_report = run_model(paragon, 1, 0);
  const auto t_report = run_model(t3d, 1, 0);
  // The paper: "the parallel AGCM code runs about 2.5 times faster on Cray
  // T3D than on Intel Paragon."
  const double speedup = p_report.total_per_day() / t_report.total_per_day();
  EXPECT_GT(speedup, 1.7);
  EXPECT_LT(speedup, 3.5);
}

TEST(RunModel, MoreNodesReduceExecutionTime) {
  ModelConfig one = small_config();
  one.mesh_rows = 1;
  one.mesh_cols = 1;
  ModelConfig four = small_config();
  const auto r1 = run_model(one, 1, 0);
  const auto r4 = run_model(four, 1, 0);
  EXPECT_LT(r4.total_per_day(), r1.total_per_day());
  // ...but not superlinearly.
  EXPECT_GT(r4.total_per_day(), r1.total_per_day() / 4.5);
}

TEST(RunModel, PhysicsLoadBalanceReducesPhysicsTime) {
  ModelConfig plain = small_config();
  plain.mesh_rows = 2;
  plain.mesh_cols = 4;
  plain.nlon = 48;
  plain.physics_load_balance = false;
  ModelConfig balanced = plain;
  balanced.physics_load_balance = true;
  const auto plain_report = run_model(plain, 2, 1);
  const auto balanced_report = run_model(balanced, 2, 1);
  // Executed physics flops are more evenly spread...
  EXPECT_LT(load_imbalance(balanced_report.rank_physics_flops),
            load_imbalance(plain_report.rank_physics_flops));
  // ...and the max-rank compute time drops (balance overhead is charged
  // separately).
  EXPECT_LT(balanced_report.per_step.physics_compute,
            plain_report.per_step.physics_compute);
}

TEST(RunModel, FilterSetupIsOneTimeAndRecorded) {
  ModelConfig cfg = small_config();
  cfg.filter_algorithm = filter::FilterAlgorithm::kFftBalanced;
  const auto report = run_model(cfg, 1, 0);
  EXPECT_GT(report.filter_setup_sec, 0.0);
  // Setup is tiny compared to even one step of the model.
  EXPECT_LT(report.filter_setup_sec, report.per_step.total());
}

TEST(RunModel, DisablingPhysicsZeroesItsCost) {
  ModelConfig cfg = small_config();
  cfg.physics_enabled = false;
  const auto report = run_model(cfg, 1, 0);
  EXPECT_DOUBLE_EQ(report.per_step.physics_compute, 0.0);
  EXPECT_DOUBLE_EQ(report.per_step.physics_balance, 0.0);
  EXPECT_GT(report.per_step.fd, 0.0);
}

TEST(RunModel, InvalidStepCountRejected) {
  EXPECT_THROW(run_model(small_config(), 0), ConfigError);
  EXPECT_THROW(run_model(small_config(), 1, -1), ConfigError);
}

TEST(RunModel, LeapfrogSchemeRunsAndConservesMass) {
  ModelConfig cfg = small_config();
  cfg.time_scheme = dynamics::TimeScheme::kLeapfrog;
  const auto report = run_model(cfg, 3, 1);
  EXPECT_LT(report.mass_drift_rel, 1e-12);
  EXPECT_GT(report.total_per_day(), 0.0);
}

TEST(RunModel, FifteenLayerCostsMoreThanNine) {
  ModelConfig nine = small_config();
  nine.nlev = 3;
  ModelConfig fifteen = small_config();
  fifteen.nlev = 5;
  const auto r9 = run_model(nine, 1, 0);
  const auto r15 = run_model(fifteen, 1, 0);
  EXPECT_GT(r15.total_per_day(), r9.total_per_day());
}

/// Every virtual field of a report, as raw bits (host-independent parts
/// only: no wall clock is reported).
std::vector<std::uint64_t> virtual_bits(const RunReport& r) {
  std::vector<double> values = {
      r.steps_per_day, r.per_step.filter, r.per_step.halo, r.per_step.fd,
      r.per_step.physics_compute, r.per_step.physics_balance,
      r.physics_imbalance_before, r.physics_imbalance_after,
      r.mass_drift_rel, r.max_zonal_courant, r.max_gravity_courant,
      r.filter_setup_sec};
  for (const PhasePercentiles* p :
       {&r.percentiles.filter, &r.percentiles.halo, &r.percentiles.fd,
        &r.percentiles.physics_compute, &r.percentiles.physics_balance}) {
    values.insert(values.end(), {p->p50, p->p95, p->p99});
  }
  values.insert(values.end(), r.rank_physics_flops.begin(),
                r.rank_physics_flops.end());
  for (const simnet::TimeBreakdown& b : r.rank_breakdowns)
    values.insert(values.end(), {b.compute, b.overhead, b.wait});
  std::vector<std::uint64_t> bits;
  for (const double v : values) bits.push_back(std::bit_cast<std::uint64_t>(v));
  bits.push_back(static_cast<std::uint64_t>(r.steps));
  bits.push_back(r.total_messages);
  bits.push_back(r.total_bytes);
  return bits;
}

TEST(RunModel, WorkerCountIsResultNeutralWithLoadBalancing) {
  // The fiber worker-pool size only moves host execution around. Scheme 3
  // load balancing has the most data-dependent message pattern in the
  // model, so its report must be bitwise equal at 1 and 3 workers.
  ModelConfig cfg = small_config();
  cfg.nlon = 48;
  cfg.nlat = 30;
  cfg.mesh_rows = 2;
  cfg.mesh_cols = 4;
  cfg.physics_load_balance = true;
  cfg.lb_scheme = lb::Scheme::kPairwise;
  cfg.simnet_workers = 1;
  const RunReport one = run_model(cfg, 2, 1);
  cfg.simnet_workers = 3;
  const RunReport three = run_model(cfg, 2, 1);
  EXPECT_GT(one.physics_imbalance_before, 0.0);
  EXPECT_EQ(virtual_bits(one), virtual_bits(three));
}

}  // namespace
}  // namespace agcm::core
