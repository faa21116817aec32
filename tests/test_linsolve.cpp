// Tests for the linear solvers: Thomas, periodic Thomas, dense Gaussian
// elimination, and the distributed (Wang partition) tridiagonal solver
// swept over rank counts and block sizes.
#include <gtest/gtest.h>

#include <cmath>

#include "comm/communicator.hpp"
#include "linsolve/distributed.hpp"
#include "linsolve/tridiag.hpp"
#include "simnet/machine.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace agcm::linsolve {
namespace {

using comm::Communicator;
using simnet::Machine;
using simnet::MachineProfile;
using simnet::RankContext;

/// Random diagonally dominant tridiagonal system of size n.
struct System {
  std::vector<double> a, b, c, d;
};

System random_system(int n, std::uint64_t seed, bool periodic = false) {
  Rng rng(seed);
  System sys;
  sys.a.resize(static_cast<std::size_t>(n));
  sys.b.resize(static_cast<std::size_t>(n));
  sys.c.resize(static_cast<std::size_t>(n));
  sys.d.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    sys.a[ui] = rng.uniform(-1.0, 1.0);
    sys.c[ui] = rng.uniform(-1.0, 1.0);
    sys.b[ui] = 3.0 + rng.uniform(0.0, 1.0);  // dominant
    sys.d[ui] = rng.uniform(-5.0, 5.0);
  }
  if (!periodic) {
    sys.a[0] = 0.0;
    sys.c[static_cast<std::size_t>(n - 1)] = 0.0;
  }
  return sys;
}

/// Residual of the (optionally periodic) system at x.
double residual(const System& sys, std::span<const double> x, bool periodic) {
  const int n = static_cast<int>(x.size());
  double worst = 0.0;
  for (int i = 0; i < n; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    double lhs = sys.b[ui] * x[ui];
    if (i > 0) lhs += sys.a[ui] * x[ui - 1];
    else if (periodic) lhs += sys.a[ui] * x[static_cast<std::size_t>(n - 1)];
    if (i + 1 < n) lhs += sys.c[ui] * x[ui + 1];
    else if (periodic) lhs += sys.c[ui] * x[0];
    worst = std::max(worst, std::abs(lhs - sys.d[ui]));
  }
  return worst;
}

class ThomasSweep : public ::testing::TestWithParam<int> {};

TEST_P(ThomasSweep, SolvesRandomDominantSystems) {
  const int n = GetParam();
  const System sys = random_system(n, 100 + static_cast<std::uint64_t>(n));
  const auto x = thomas_solve(sys.a, sys.b, sys.c, sys.d);
  EXPECT_LT(residual(sys, x, false), 1e-10);
}

TEST_P(ThomasSweep, PeriodicSolvesRandomDominantSystems) {
  const int n = GetParam();
  if (n < 3) return;
  const System sys =
      random_system(n, 200 + static_cast<std::uint64_t>(n), true);
  const auto x = periodic_thomas_solve(sys.a, sys.b, sys.c, sys.d);
  EXPECT_LT(residual(sys, x, true), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ThomasSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 9, 15, 64, 301));

TEST(Thomas, IdentityMatrix) {
  std::vector<double> a{0, 0, 0}, b{1, 1, 1}, c{0, 0, 0}, d{4, 5, 6};
  const auto x = thomas_solve(a, b, c, d);
  EXPECT_DOUBLE_EQ(x[0], 4.0);
  EXPECT_DOUBLE_EQ(x[1], 5.0);
  EXPECT_DOUBLE_EQ(x[2], 6.0);
}

TEST(Thomas, KnownDiffusionSystem) {
  // (I + K L) x = d with L the Neumann second difference, constant d:
  // a constant profile is an eigenvector with eigenvalue 1 => x = d.
  const int n = 6;
  const double kd = 0.3;
  std::vector<double> a(n, -kd), b(n, 1 + 2 * kd), c(n, -kd), d(n, 7.5);
  b.front() = 1 + kd;
  b.back() = 1 + kd;
  const auto x = thomas_solve(a, b, c, d);
  for (double v : x) EXPECT_NEAR(v, 7.5, 1e-12);
}

TEST(PeriodicThomas, RejectsTinySystems) {
  std::vector<double> v{1.0, 1.0};
  EXPECT_THROW(periodic_thomas_solve(v, v, v, v), ConfigError);
}

TEST(Dense, SolvesRandomSystems) {
  Rng rng(11);
  const std::size_t n = 12;
  std::vector<double> m(n * n);
  std::vector<double> x_true(n), rhs(n, 0.0);
  for (double& v : m) v = rng.uniform(-1.0, 1.0);
  for (std::size_t i = 0; i < n; ++i) m[i * n + i] += 6.0;
  for (double& v : x_true) v = rng.uniform(-2.0, 2.0);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t col = 0; col < n; ++col)
      rhs[r] += m[r * n + col] * x_true[col];
  const auto x = dense_solve(m, rhs);
  EXPECT_LT(max_abs_diff(x, x_true), 1e-10);
}

TEST(Dense, PivotingHandlesZeroDiagonal) {
  // [[0 1][1 0]] x = [2, 3] -> x = [3, 2]; fails without pivoting.
  std::vector<double> m{0, 1, 1, 0};
  std::vector<double> rhs{2, 3};
  const auto x = dense_solve(m, rhs);
  EXPECT_DOUBLE_EQ(x[0], 3.0);
  EXPECT_DOUBLE_EQ(x[1], 2.0);
}

TEST(Dense, SingularMatrixThrows) {
  std::vector<double> m{1, 2, 2, 4};
  std::vector<double> rhs{1, 2};
  EXPECT_THROW(dense_solve(m, rhs), ConfigError);
}

// --- distributed solver -----------------------------------------------------

struct DistCase {
  int ranks;
  int n_global;
};

class DistributedSweep : public ::testing::TestWithParam<DistCase> {};

TEST_P(DistributedSweep, MatchesSerialThomas) {
  const auto [p, n_global] = GetParam();
  const System sys =
      random_system(n_global, 500 + static_cast<std::uint64_t>(p * 1000 + n_global));
  const auto expected = thomas_solve(sys.a, sys.b, sys.c, sys.d);

  Machine machine(MachineProfile::ideal());
  std::vector<double> assembled(static_cast<std::size_t>(n_global));
  machine.run(p, [&](RankContext& ctx) {
    Communicator comm(ctx);
    // Contiguous block partition with remainders.
    const int base = n_global / p;
    const int rem = n_global % p;
    const int mine = base + (comm.rank() < rem ? 1 : 0);
    const int offset =
        comm.rank() * base + std::min(comm.rank(), rem);
    const auto slice = [&](const std::vector<double>& v) {
      return std::span<const double>(v.data() + offset,
                                     static_cast<std::size_t>(mine));
    };
    const auto x = distributed_tridiagonal_solve(comm, slice(sys.a),
                                                 slice(sys.b), slice(sys.c),
                                                 slice(sys.d));
    ASSERT_EQ(static_cast<int>(x.size()), mine);
    for (int i = 0; i < mine; ++i)
      assembled[static_cast<std::size_t>(offset + i)] = x[static_cast<std::size_t>(i)];
  });
  EXPECT_LT(max_abs_diff(assembled, expected), 1e-9)
      << "p=" << p << " n=" << n_global;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DistributedSweep,
    ::testing::Values(DistCase{1, 16}, DistCase{2, 16}, DistCase{4, 16},
                      DistCase{4, 17}, DistCase{8, 24}, DistCase{8, 8},
                      DistCase{5, 7},  // blocks of size 1 and 2
                      DistCase{3, 100}, DistCase{16, 37}));

TEST(Distributed, SingleRowPerRank) {
  // Every block has exactly one row: the reduced system IS the system.
  const int p = 6;
  const System sys = random_system(p, 77);
  const auto expected = thomas_solve(sys.a, sys.b, sys.c, sys.d);
  Machine machine(MachineProfile::ideal());
  std::vector<double> assembled(static_cast<std::size_t>(p));
  machine.run(p, [&](RankContext& ctx) {
    Communicator comm(ctx);
    const int r = comm.rank();
    const auto one = [&](const std::vector<double>& v) {
      return std::span<const double>(v.data() + r, 1);
    };
    const auto x = distributed_tridiagonal_solve(comm, one(sys.a), one(sys.b),
                                                 one(sys.c), one(sys.d));
    assembled[static_cast<std::size_t>(r)] = x[0];
  });
  EXPECT_LT(max_abs_diff(assembled, expected), 1e-10);
}

class PeriodicDistributedSweep : public ::testing::TestWithParam<DistCase> {};

TEST_P(PeriodicDistributedSweep, MatchesSerialPeriodicThomas) {
  const auto [p, n_global] = GetParam();
  const System sys = random_system(
      n_global, 900 + static_cast<std::uint64_t>(p * 1000 + n_global), true);
  const auto expected = periodic_thomas_solve(sys.a, sys.b, sys.c, sys.d);

  Machine machine(MachineProfile::ideal());
  std::vector<double> assembled(static_cast<std::size_t>(n_global));
  machine.run(p, [&](RankContext& ctx) {
    Communicator comm(ctx);
    const int base = n_global / p;
    const int rem = n_global % p;
    const int mine = base + (comm.rank() < rem ? 1 : 0);
    const int offset = comm.rank() * base + std::min(comm.rank(), rem);
    const auto slice = [&](const std::vector<double>& v) {
      return std::span<const double>(v.data() + offset,
                                     static_cast<std::size_t>(mine));
    };
    const auto x = distributed_periodic_tridiagonal_solve(
        comm, slice(sys.a), slice(sys.b), slice(sys.c), slice(sys.d));
    for (int i = 0; i < mine; ++i)
      assembled[static_cast<std::size_t>(offset + i)] =
          x[static_cast<std::size_t>(i)];
  });
  EXPECT_LT(max_abs_diff(assembled, expected), 1e-8)
      << "p=" << p << " n=" << n_global;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PeriodicDistributedSweep,
    ::testing::Values(DistCase{1, 12}, DistCase{2, 12}, DistCase{4, 12},
                      DistCase{4, 15}, DistCase{8, 24}, DistCase{3, 100},
                      DistCase{6, 13}));

TEST(PeriodicDistributed, ConstantRhsWithDiffusionOperatorIsInvariant) {
  // (I + K L) x = c with L the periodic Laplacian: constants are
  // eigenvectors with eigenvalue 1, so x = c exactly — the property that
  // makes the implicit zonal filter conserve the zonal mean.
  Machine machine(MachineProfile::ideal());
  machine.run(4, [&](RankContext& ctx) {
    Communicator comm(ctx);
    const int mine = 5;
    const double k = 3.7;
    std::vector<double> a(mine, -k), b(mine, 1 + 2 * k), c(mine, -k),
        d(mine, 42.0);
    const auto x =
        distributed_periodic_tridiagonal_solve(comm, a, b, c, d);
    for (double v : x) EXPECT_NEAR(v, 42.0, 1e-10);
  });
}

TEST(Batched, ManySystemsMatchPerSystemSolves) {
  const int p = 4, m = 7, n_local = 6;
  const int n_global = p * n_local;
  std::vector<System> systems;
  for (int q = 0; q < m; ++q)
    systems.push_back(random_system(n_global, 4000 + static_cast<std::uint64_t>(q)));

  Machine machine(MachineProfile::ideal());
  machine.run(p, [&](RankContext& ctx) {
    Communicator comm(ctx);
    const int offset = comm.rank() * n_local;
    std::vector<double> a, b, c, d;
    for (const System& sys : systems) {
      a.insert(a.end(), sys.a.begin() + offset, sys.a.begin() + offset + n_local);
      b.insert(b.end(), sys.b.begin() + offset, sys.b.begin() + offset + n_local);
      c.insert(c.end(), sys.c.begin() + offset, sys.c.begin() + offset + n_local);
      d.insert(d.end(), sys.d.begin() + offset, sys.d.begin() + offset + n_local);
    }
    const auto batched =
        distributed_tridiagonal_solve_many(comm, m, a, b, c, d);
    for (int q = 0; q < m; ++q) {
      const std::size_t off = static_cast<std::size_t>(q) * n_local;
      const auto single = distributed_tridiagonal_solve(
          comm, std::span<const double>(a.data() + off, n_local),
          std::span<const double>(b.data() + off, n_local),
          std::span<const double>(c.data() + off, n_local),
          std::span<const double>(d.data() + off, n_local));
      for (int i = 0; i < n_local; ++i)
        EXPECT_NEAR(batched[off + static_cast<std::size_t>(i)],
                    single[static_cast<std::size_t>(i)], 1e-12)
            << "system " << q << " row " << i;
    }
  });
}

TEST(Batched, PeriodicManyMatchesSerialReference) {
  const int p = 3, m = 5, n_local = 8;
  const int n_global = p * n_local;
  std::vector<System> systems;
  std::vector<std::vector<double>> expected;
  for (int q = 0; q < m; ++q) {
    systems.push_back(
        random_system(n_global, 5000 + static_cast<std::uint64_t>(q), true));
    expected.push_back(periodic_thomas_solve(systems.back().a,
                                             systems.back().b,
                                             systems.back().c,
                                             systems.back().d));
  }
  Machine machine(MachineProfile::ideal());
  machine.run(p, [&](RankContext& ctx) {
    Communicator comm(ctx);
    const int offset = comm.rank() * n_local;
    std::vector<double> a, b, c, d;
    for (const System& sys : systems) {
      a.insert(a.end(), sys.a.begin() + offset, sys.a.begin() + offset + n_local);
      b.insert(b.end(), sys.b.begin() + offset, sys.b.begin() + offset + n_local);
      c.insert(c.end(), sys.c.begin() + offset, sys.c.begin() + offset + n_local);
      d.insert(d.end(), sys.d.begin() + offset, sys.d.begin() + offset + n_local);
    }
    const auto x =
        distributed_periodic_tridiagonal_solve_many(comm, m, a, b, c, d);
    for (int q = 0; q < m; ++q)
      for (int i = 0; i < n_local; ++i)
        EXPECT_NEAR(x[static_cast<std::size_t>(q) * n_local +
                      static_cast<std::size_t>(i)],
                    expected[static_cast<std::size_t>(q)]
                            [static_cast<std::size_t>(offset + i)],
                    1e-8);
  });
}

TEST(Batched, BatchingSavesMessagesVsPerLineSolves) {
  // The whole point: one batched call sends far fewer messages than m
  // separate calls.
  const int p = 4, m = 20, n_local = 5;
  auto count_messages = [&](bool batched) {
    Machine machine(MachineProfile::ideal());
    const System sys = random_system(p * n_local, 6000, true);
    const auto result = machine.run(p, [&](RankContext& ctx) {
      Communicator comm(ctx);
      const int offset = comm.rank() * n_local;
      std::vector<double> a, b, c, d;
      for (int q = 0; q < m; ++q) {
        a.insert(a.end(), sys.a.begin() + offset, sys.a.begin() + offset + n_local);
        b.insert(b.end(), sys.b.begin() + offset, sys.b.begin() + offset + n_local);
        c.insert(c.end(), sys.c.begin() + offset, sys.c.begin() + offset + n_local);
        d.insert(d.end(), sys.d.begin() + offset, sys.d.begin() + offset + n_local);
      }
      if (batched) {
        (void)distributed_periodic_tridiagonal_solve_many(comm, m, a, b, c, d);
      } else {
        for (int q = 0; q < m; ++q) {
          const std::size_t off = static_cast<std::size_t>(q) * n_local;
          (void)distributed_periodic_tridiagonal_solve(
              comm, std::span<const double>(a.data() + off, n_local),
              std::span<const double>(b.data() + off, n_local),
              std::span<const double>(c.data() + off, n_local),
              std::span<const double>(d.data() + off, n_local));
        }
      }
    });
    return result.total_messages;
  };
  const auto batched = count_messages(true);
  const auto looped = count_messages(false);
  EXPECT_LT(batched * 5, looped);  // at least 5x fewer messages
}

TEST(Distributed, ChargesVirtualTime) {
  Machine machine(MachineProfile::intel_paragon());
  const System sys = random_system(64, 5);
  const auto result = machine.run(4, [&](RankContext& ctx) {
    Communicator comm(ctx);
    const int mine = 16;
    const int offset = comm.rank() * mine;
    const auto slice = [&](const std::vector<double>& v) {
      return std::span<const double>(v.data() + offset,
                                     static_cast<std::size_t>(mine));
    };
    (void)distributed_tridiagonal_solve(comm, slice(sys.a), slice(sys.b),
                                        slice(sys.c), slice(sys.d));
  });
  EXPECT_GT(result.makespan(), 0.0);
  EXPECT_GT(result.total_messages, 0u);
}

}  // namespace
}  // namespace agcm::linsolve
