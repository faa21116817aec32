// Tests for the physics emulator: column determinism, the cost drivers the
// paper names (day/night, clouds, convection), the previous-pass load
// estimator, and the invariance of results under load balancing.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numbers>

#include "comm/mesh2d.hpp"
#include "dynamics/state.hpp"
#include "physics/column_seed_ref.hpp"
#include "physics/physics.hpp"
#include "simnet/machine.hpp"
#include "util/stats.hpp"

namespace agcm::physics {
namespace {

using comm::Communicator;
using comm::Mesh2D;
using grid::Decomp2D;
using grid::LatLonGrid;
using simnet::Machine;
using simnet::MachineProfile;
using simnet::RankContext;

constexpr double kPi = std::numbers::pi;

ColumnParams params(int nlev = 5) {
  ColumnParams p;
  p.nlev = nlev;
  p.dt_sec = 300.0;
  p.seed = 99;
  return p;
}

std::vector<double> test_theta(int nlev) {
  std::vector<double> theta(static_cast<std::size_t>(nlev));
  for (int k = 0; k < nlev; ++k) theta[static_cast<std::size_t>(k)] = 290.0 + 2.0 * k;
  return theta;
}

std::vector<double> test_q(int nlev) {
  std::vector<double> q(static_cast<std::size_t>(nlev));
  for (int k = 0; k < nlev; ++k)
    q[static_cast<std::size_t>(k)] = 0.01 * std::exp(-0.3 * k);
  return q;
}

TEST(SolarZenith, OverheadAtSubsolarPoint) {
  // At t=0 the sun is overhead at (0N, 0E).
  EXPECT_NEAR(cos_solar_zenith(0.0, 0.0, 0.0, 0.0), 1.0, 1e-12);
  // Antipode is midnight.
  EXPECT_NEAR(cos_solar_zenith(0.0, kPi, 0.0, 0.0), -1.0, 1e-12);
  // Twelve hours later they swap.
  EXPECT_NEAR(cos_solar_zenith(0.0, kPi, 43200.0, 0.0), 1.0, 1e-9);
}

TEST(SolarZenith, PolesAtEquinoxAreOnTheTerminator) {
  EXPECT_NEAR(cos_solar_zenith(kPi / 2, 0.3, 12345.0, 0.0), 0.0, 1e-12);
}

TEST(Column, DeterministicGivenSameInputs) {
  const auto p = params();
  auto theta1 = test_theta(5), q1 = test_q(5);
  auto theta2 = theta1, q2 = q1;
  const auto r1 = step_column(p, 42, 3, 0.5, 1.0, 900.0, theta1, q1);
  const auto r2 = step_column(p, 42, 3, 0.5, 1.0, 900.0, theta2, q2);
  EXPECT_DOUBLE_EQ(r1.flops, r2.flops);
  EXPECT_DOUBLE_EQ(max_abs_diff(theta1, theta2), 0.0);
  EXPECT_DOUBLE_EQ(max_abs_diff(q1, q2), 0.0);
}

TEST(Column, DayColumnsCostMoreThanNightColumns) {
  const auto p = params();
  auto theta = test_theta(5), q = test_q(5);
  const auto day = step_column(p, 7, 0, 0.0, 0.0, 0.0, theta, q);
  auto theta2 = test_theta(5), q2 = test_q(5);
  const auto night = step_column(p, 7, 0, 0.0, kPi, 0.0, theta2, q2);
  EXPECT_TRUE(day.daytime);
  EXPECT_FALSE(night.daytime);
  EXPECT_GT(day.flops, night.flops);
}

TEST(Column, ShortwaveHeatsOnlyByDay) {
  const auto p = params();
  auto theta_day = test_theta(5), q_day = test_q(5);
  auto theta_night = test_theta(5), q_night = test_q(5);
  // Use a dry, stable column so convection does not fire and the only
  // difference is radiation.
  for (auto& v : q_day) v = 0.0;
  for (auto& v : q_night) v = 0.0;
  step_column(p, 11, 0, 0.0, 0.0, 0.0, theta_day, q_day);
  step_column(p, 11, 0, 0.0, kPi, 0.0, theta_night, q_night);
  double sum_day = 0.0, sum_night = 0.0;
  for (double v : theta_day) sum_day += v;
  for (double v : theta_night) sum_night += v;
  EXPECT_GT(sum_day, sum_night);
}

TEST(Column, ConvectionFiresOnUnstableProfiles) {
  const auto p = params();
  // Strongly unstable: theta decreasing with height.
  std::vector<double> theta{310.0, 300.0, 290.0, 280.0, 270.0};
  auto q = test_q(5);
  const auto result = step_column(p, 13, 0, 0.0, kPi, 0.0, theta, q);
  EXPECT_GT(result.convection_iters, 1);
  EXPECT_GT(result.precipitation, 0.0);
  // The adjusted profile must be (nearly) stable.
  for (int k = 0; k + 1 < 5; ++k)
    EXPECT_GT(theta[static_cast<std::size_t>(k + 1)] -
                  theta[static_cast<std::size_t>(k)],
              -0.5);
}

TEST(Column, StableDryColumnIsCheap) {
  const auto p = params();
  auto theta = test_theta(5);
  std::vector<double> q(5, 0.0);
  const auto result = step_column(p, 17, 0, 0.0, kPi, 0.0, theta, q);
  EXPECT_EQ(result.convection_iters, 1);  // one scan, no adjustment
}

TEST(Column, CostScalesQuadraticallyWithLayersForLongwave) {
  auto p5 = params(5);
  auto p10 = params(10);
  auto theta5 = test_theta(5);
  std::vector<double> q5(5, 0.0);
  auto theta10 = test_theta(10);
  std::vector<double> q10(10, 0.0);
  const auto r5 = step_column(p5, 19, 0, 0.0, kPi, 0.0, theta5, q5);
  const auto r10 = step_column(p10, 19, 0, 0.0, kPi, 0.0, theta10, q10);
  const double lw5 = p5.flops_longwave_per_pair * 25.0;
  const double lw10 = p10.flops_longwave_per_pair * 100.0;
  EXPECT_GT(r10.flops - r5.flops, 0.8 * (lw10 - lw5));
}

TEST(Column, EngineBitIdenticalToSeedReferenceAcrossShapes) {
  // The unrolled column kernels (kernels::longwave_sweep / convection_sweep
  // plus the in-place Thomas diffusion) must reproduce the preserved seed
  // path bit for bit: degenerate single-level columns, levels that are not
  // multiples of the 4-wide unroll, day and night sides, stable and
  // convectively unstable profiles, over several steps. 17 and 40 run the
  // unrolled pair loop over several full passes on both sides of the
  // diagonal.
  for (int nlev : {1, 2, 5, 6, 9, 13, 17, 40}) {
    for (double lon : {0.0, kPi}) {
      SCOPED_TRACE(::testing::Message() << "nlev=" << nlev << " lon=" << lon);
      const ColumnParams p = params(nlev);
      auto theta_eng = test_theta(nlev);
      auto q_eng = test_q(nlev);
      if (nlev >= 3) {
        // Kink the profile so convection has to iterate.
        theta_eng[1] = theta_eng[2] + 4.0;
        q_eng[0] = 0.02;
      }
      auto theta_seed = theta_eng;
      auto q_seed = q_eng;
      for (int s = 0; s < 3; ++s) {
        const auto re =
            step_column(p, 4242, s, 0.3, lon, 300.0 * s, theta_eng, q_eng);
        const auto rs = step_column_seed_ref(p, 4242, s, 0.3, lon, 300.0 * s,
                                             theta_seed, q_seed);
        // The virtual cost model and every diagnostic must agree exactly.
        EXPECT_EQ(re.flops, rs.flops);
        EXPECT_EQ(re.daytime, rs.daytime);
        EXPECT_EQ(re.convection_iters, rs.convection_iters);
        EXPECT_EQ(re.cloud_fraction, rs.cloud_fraction);
        EXPECT_EQ(re.precipitation, rs.precipitation);
      }
      EXPECT_EQ(std::memcmp(theta_eng.data(), theta_seed.data(),
                            theta_eng.size() * sizeof(double)),
                0)
          << "theta diverged bitwise";
      EXPECT_EQ(std::memcmp(q_eng.data(), q_seed.data(),
                            q_eng.size() * sizeof(double)),
                0)
          << "q diverged bitwise";
    }
  }
}

TEST(Column, HumidityStaysBounded) {
  const auto p = params();
  auto theta = test_theta(5);
  std::vector<double> q(5, 0.039);
  step_column(p, 23, 0, 0.0, 0.0, 0.0, theta, q);
  for (double v : q) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 0.04);
  }
}

// --- the Physics driver -----------------------------------------------------

constexpr int kLon = 24, kLat = 12, kLev = 4;

struct DriverRun {
  std::vector<double> theta, q;       // global fields after the steps
  std::vector<double> rank_flops;     // per rank, last step
  double imbalance_before = 0.0, imbalance_after = 0.0;
};

DriverRun run_driver(int rows, int cols, int steps, bool load_balance,
                     lb::Scheme scheme = lb::Scheme::kPairwise) {
  DriverRun out;
  const std::size_t total =
      static_cast<std::size_t>(kLon) * static_cast<std::size_t>(kLat) * kLev;
  out.theta.resize(total);
  out.q.resize(total);
  out.rank_flops.resize(static_cast<std::size_t>(rows * cols));

  Machine machine(MachineProfile::intel_paragon());
  machine.run(rows * cols, [&](RankContext& ctx) {
    Communicator world(ctx);
    Mesh2D mesh(world, rows, cols);
    const LatLonGrid grid(kLon, kLat, kLev);
    const Decomp2D decomp(kLon, kLat, rows, cols);
    PhysicsConfig cfg;
    cfg.column = params(kLev);
    cfg.load_balance = load_balance;
    cfg.lb_scheme = scheme;
    Physics phys(mesh, decomp, grid, cfg);
    dynamics::State state(decomp.box(mesh.coord()), kLev);
    dynamics::initialize_state(state, grid, decomp.box(mesh.coord()), 2024);

    PhysicsStepStats stats;
    for (int s = 0; s < steps; ++s) {
      stats = phys.step(state);
      state.time_sec += cfg.column.dt_sec;
      ++state.step;
    }
    const auto box = decomp.box(mesh.coord());
    for (int k = 0; k < kLev; ++k)
      for (int j = 0; j < box.nj; ++j)
        for (int i = 0; i < box.ni; ++i) {
          const std::size_t g =
              static_cast<std::size_t>(box.i0 + i) +
              static_cast<std::size_t>(kLon) *
                  (static_cast<std::size_t>(box.j0 + j) +
                   static_cast<std::size_t>(kLat) * k);
          out.theta[g] = state.theta(i, j, k);
          out.q[g] = state.q(i, j, k);
        }
    out.rank_flops[static_cast<std::size_t>(world.rank())] =
        phys.last_timings().local_flops;
    if (world.rank() == 0) {
      out.imbalance_before = stats.imbalance_before;
      out.imbalance_after = stats.imbalance_after;
    }
  });
  return out;
}

TEST(Driver, ResultsAreDecompositionInvariant) {
  const auto serial = run_driver(1, 1, 3, false);
  const auto parallel = run_driver(2, 3, 3, false);
  EXPECT_DOUBLE_EQ(max_abs_diff(serial.theta, parallel.theta), 0.0);
  EXPECT_DOUBLE_EQ(max_abs_diff(serial.q, parallel.q), 0.0);
}

struct LbCase {
  const char* name;
  lb::Scheme scheme;
  int rows, cols;
};

class DriverBalancing : public ::testing::TestWithParam<LbCase> {};

TEST_P(DriverBalancing, LoadBalancingDoesNotChangeResults) {
  // The paper's schemes move columns between processors; because every
  // column's computation depends only on its global id, step and inputs,
  // the answers must be identical with and without balancing.
  const LbCase& c = GetParam();
  const auto plain = run_driver(c.rows, c.cols, 3, false);
  const auto balanced = run_driver(c.rows, c.cols, 3, true, c.scheme);
  EXPECT_EQ(plain.theta, balanced.theta);
  EXPECT_EQ(plain.q, balanced.q);
  // Where there is imbalance to remove (3x5, unlike the symmetric 2x2),
  // columns really moved.
  if (balanced.imbalance_before > lb::PairwiseOptions{}.tolerance) {
    EXPECT_LT(balanced.imbalance_after, balanced.imbalance_before);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, DriverBalancing,
    ::testing::Values(
        LbCase{"pairwise_2x2", lb::Scheme::kPairwise, 2, 2},
        LbCase{"cyclic_2x2", lb::Scheme::kCyclic, 2, 2},
        LbCase{"sorted_greedy_2x2", lb::Scheme::kSortedGreedy, 2, 2},
        LbCase{"pairwise_3x5", lb::Scheme::kPairwise, 3, 5},
        LbCase{"cyclic_3x5", lb::Scheme::kCyclic, 3, 5},
        LbCase{"sorted_greedy_3x5", lb::Scheme::kSortedGreedy, 3, 5}),
    [](const ::testing::TestParamInfo<LbCase>& info) {
      return std::string(info.param.name);
    });

TEST(Driver, DayNightCreatesMeasurableImbalance) {
  const auto run = run_driver(2, 4, 2, false);
  // Executed flops per rank differ strongly (half the meridians are dark).
  EXPECT_GT(load_imbalance(run.rank_flops), 0.15);
}

TEST(Driver, BalancingReducesExecutedImbalance) {
  const auto plain = run_driver(2, 4, 3, false);
  const auto balanced = run_driver(2, 4, 3, true);
  EXPECT_LT(load_imbalance(balanced.rank_flops),
            load_imbalance(plain.rank_flops));
  // Estimated imbalance (previous-pass weights) must also improve.
  EXPECT_LT(balanced.imbalance_after, balanced.imbalance_before);
}

TEST(Driver, EstimatorTracksMeasuredCosts) {
  Machine machine(MachineProfile::intel_paragon());
  machine.run(1, [&](RankContext& ctx) {
    Communicator world(ctx);
    Mesh2D mesh(world, 1, 1);
    const LatLonGrid grid(kLon, kLat, kLev);
    const Decomp2D decomp(kLon, kLat, 1, 1);
    PhysicsConfig cfg;
    cfg.column = params(kLev);
    Physics phys(mesh, decomp, grid, cfg);
    dynamics::State state(decomp.box(mesh.coord()), kLev);
    dynamics::initialize_state(state, grid, decomp.box(mesh.coord()), 7);
    // Before any pass: uniform estimates.
    for (double w : phys.column_cost_estimates()) EXPECT_DOUBLE_EQ(w, 1.0);
    phys.step(state);
    // After one pass: estimates are real flop counts, day > night.
    const auto est = phys.column_cost_estimates();
    double lo = 1e300, hi = 0.0;
    for (double w : est) {
      EXPECT_GT(w, 100.0);
      lo = std::min(lo, w);
      hi = std::max(hi, w);
    }
    EXPECT_GT(hi / lo, 1.2);
  });
}

TEST(Driver, MismatchedLevelsRejected) {
  Machine machine(MachineProfile::ideal());
  EXPECT_THROW(machine.run(1,
                           [&](RankContext& ctx) {
                             Communicator world(ctx);
                             Mesh2D mesh(world, 1, 1);
                             const LatLonGrid grid(kLon, kLat, kLev);
                             const Decomp2D decomp(kLon, kLat, 1, 1);
                             PhysicsConfig cfg;
                             cfg.column = params(kLev + 1);
                             Physics phys(mesh, decomp, grid, cfg);
                           }),
               ConfigError);
}

}  // namespace
}  // namespace agcm::physics
