// Tests for the polar filter: response properties, the convolution <-> FFT
// equivalence (the paper's equations (1)-(2)), the movement plans, and all
// four parallel variants against the serial reference across node meshes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "filter/bank.hpp"
#include "filter/implicit_zonal.hpp"
#include "filter/parallel.hpp"
#include "filter/serial.hpp"
#include "filter/variants.hpp"
#include "kernels/simd/dispatch.hpp"
#include "simnet/machine.hpp"
#include "util/rng.hpp"
#include "util/shared_cache.hpp"
#include "util/stats.hpp"

namespace agcm::filter {
namespace {

using comm::Communicator;
using comm::Mesh2D;
using grid::Array3D;
using grid::Decomp2D;
using grid::LatLonGrid;
using simnet::Machine;
using simnet::MachineProfile;
using simnet::RankContext;

constexpr double kPi = std::numbers::pi;

TEST(Response, BoundsAndZonalMeanPreserved) {
  const int n = 144;
  for (FilterKind kind : {FilterKind::kStrong, FilterKind::kWeak}) {
    for (double lat_deg : {-89.0, -70.0, -50.0, 50.0, 70.0, 89.0}) {
      const auto line = response_line(kind, n, lat_deg * kPi / 180.0);
      EXPECT_DOUBLE_EQ(line[0], 1.0);  // wavenumber 0 untouched
      for (double s : line) {
        EXPECT_GE(s, 0.0);
        EXPECT_LE(s, 1.0);
      }
    }
  }
}

TEST(Response, IdentityEquatorwardOfCutoff) {
  const int n = 144;
  const auto strong = response_line(FilterKind::kStrong, n, 30.0 * kPi / 180.0);
  const auto weak = response_line(FilterKind::kWeak, n, 55.0 * kPi / 180.0);
  for (double s : strong) EXPECT_DOUBLE_EQ(s, 1.0);
  for (double s : weak) EXPECT_DOUBLE_EQ(s, 1.0);
}

TEST(Response, StrongerTowardPolesAndHigherWavenumbers) {
  const int n = 144;
  const auto mid = response_line(FilterKind::kStrong, n, 55.0 * kPi / 180.0);
  const auto polar = response_line(FilterKind::kStrong, n, 85.0 * kPi / 180.0);
  // More damping near the pole.
  for (int s = 1; s <= n / 2; ++s)
    EXPECT_LE(polar[static_cast<std::size_t>(s)],
              mid[static_cast<std::size_t>(s)] + 1e-14);
  // Monotone non-increasing up to the Nyquist wavenumber.
  for (int s = 1; s < n / 2; ++s)
    EXPECT_LE(polar[static_cast<std::size_t>(s + 1)],
              polar[static_cast<std::size_t>(s)] + 1e-14);
}

TEST(Response, WeakIsWeakerThanStrong) {
  const int n = 144;
  const double lat = 75.0 * kPi / 180.0;
  const auto strong = response_line(FilterKind::kStrong, n, lat);
  const auto weak = response_line(FilterKind::kWeak, n, lat);
  for (int s = 1; s <= n / 2; ++s)
    EXPECT_GE(weak[static_cast<std::size_t>(s)],
              strong[static_cast<std::size_t>(s)] - 1e-14);
}

TEST(Response, ConjugateSymmetry) {
  const int n = 144;
  const auto line = response_line(FilterKind::kStrong, n, 80.0 * kPi / 180.0);
  for (int s = 1; s < n; ++s)
    EXPECT_DOUBLE_EQ(line[static_cast<std::size_t>(s)],
                     line[static_cast<std::size_t>(n - s)]);
}

TEST(Serial, ConvolutionEqualsFftFiltering) {
  // The paper's equivalence of equations (1) and (2).
  const int n = 144;
  const double lat = 82.0 * kPi / 180.0;
  const auto s_line = response_line(FilterKind::kStrong, n, lat);
  const auto kernel = kernel_from_response(s_line);
  const fft::FftPlan plan(n);

  Rng rng(31);
  std::vector<double> a(static_cast<std::size_t>(n));
  for (double& v : a) v = rng.uniform(-5.0, 5.0);
  std::vector<double> b = a;

  filter_line_fft(plan, a, s_line);
  filter_line_convolution(b, kernel);
  EXPECT_LT(max_abs_diff(a, b), 1e-10);
}

TEST(Serial, FilterDampsHighWavenumberPreservesMean) {
  const int n = 144;
  const double lat = 85.0 * kPi / 180.0;
  const auto s_line = response_line(FilterKind::kStrong, n, lat);
  const fft::FftPlan plan(n);
  std::vector<double> line(static_cast<std::size_t>(n));
  double mean_before = 0.0;
  for (int i = 0; i < n; ++i) {
    line[static_cast<std::size_t>(i)] =
        7.0 + std::cos(2.0 * kPi * 60.0 * i / n);  // mean + fast mode
    mean_before += line[static_cast<std::size_t>(i)];
  }
  filter_line_fft(plan, line, s_line);
  double mean_after = 0.0, wiggle = 0.0;
  for (int i = 0; i < n; ++i) {
    mean_after += line[static_cast<std::size_t>(i)];
    wiggle = std::max(wiggle, std::abs(line[static_cast<std::size_t>(i)] - 7.0));
  }
  EXPECT_NEAR(mean_after, mean_before, 1e-8);
  EXPECT_LT(wiggle, 0.05);  // the s=60 mode is almost annihilated at 85N
}

TEST(Serial, PairFilteringMatchesSingleLineFiltering) {
  // The two-for-one trick must give the same filtered lines even when the
  // two lines use different responses (strong at 80N paired with weak at
  // 65S, say).
  const int n = 144;
  const fft::FftPlan plan(n);
  const auto s_a = response_line(FilterKind::kStrong, n, 80.0 * kPi / 180.0);
  const auto s_b = response_line(FilterKind::kWeak, n, -65.0 * kPi / 180.0);
  Rng rng(41);
  std::vector<double> a(static_cast<std::size_t>(n)), b(a.size());
  for (double& v : a) v = rng.uniform(-3.0, 3.0);
  for (double& v : b) v = rng.uniform(-3.0, 3.0);
  auto a_pair = a, b_pair = b;
  filter_line_fft(plan, a, s_a);
  filter_line_fft(plan, b, s_b);
  filter_line_pair_fft(plan, a_pair, b_pair, s_a, s_b);
  EXPECT_LT(max_abs_diff(a, a_pair), 1e-11);
  EXPECT_LT(max_abs_diff(b, b_pair), 1e-11);
}

TEST(Serial, PairFlopsAreCheaperThanTwoSingles) {
  EXPECT_LT(fft_filter_pair_flops(144), 2.0 * fft_filter_flops(144));
}

TEST(Serial, ChunkConvolutionMatchesFull) {
  const int n = 48;
  const auto s_line = response_line(FilterKind::kStrong, n, 80.0 * kPi / 180.0);
  const auto kernel = kernel_from_response(s_line);
  Rng rng(77);
  std::vector<double> line(static_cast<std::size_t>(n));
  for (double& v : line) v = rng.uniform(-1.0, 1.0);
  std::vector<double> full = line;
  filter_line_convolution(full, kernel);
  std::vector<double> chunk(10);
  filter_chunk_convolution(line, kernel, 17, 10, chunk);
  for (int c = 0; c < 10; ++c)
    EXPECT_NEAR(chunk[static_cast<std::size_t>(c)],
                full[static_cast<std::size_t>(17 + c)], 1e-11);
}

TEST(Bank, LinesCoverExactlyTheFilteredRows) {
  const LatLonGrid grid(48, 30, 2);
  const FilterBank bank(grid, {{"a", FilterKind::kStrong},
                               {"b", FilterKind::kWeak}});
  EXPECT_EQ(bank.nvars(), 2);
  for (int j = 0; j < grid.nlat(); ++j) {
    EXPECT_EQ(bank.filtered(0, j), grid.poleward_of(j, 45.0));
    EXPECT_EQ(bank.filtered(1, j), grid.poleward_of(j, 60.0));
  }
  const auto expected =
      (bank.rows(0).size() + bank.rows(1).size()) * static_cast<std::size_t>(2);
  EXPECT_EQ(bank.lines().size(), expected);
  // lines_of partitions lines() by variable.
  EXPECT_EQ(bank.lines_of(0).size() + bank.lines_of(1).size(),
            bank.lines().size());
}

TEST(Bank, TablesMatchDirectEvaluation) {
  const LatLonGrid grid(48, 30, 1);
  const FilterBank bank(grid, {{"a", FilterKind::kStrong}});
  for (int j : bank.rows(0)) {
    const auto line = response_line(FilterKind::kStrong, 48, grid.lat_center(j));
    const auto banked = bank.response(0, j);
    for (std::size_t s = 0; s < line.size(); ++s)
      EXPECT_DOUBLE_EQ(banked[s], line[s]);
  }
}

// --- parallel variants vs serial reference across meshes -------------------

struct VariantCase {
  FilterAlgorithm algorithm;
  int rows;
  int cols;
};

class VariantSweep : public ::testing::TestWithParam<VariantCase> {};

/// Runs the full parallel filter on a deterministic global field and
/// compares every point against the serial reference.
TEST_P(VariantSweep, MatchesSerialReference) {
  const auto param = GetParam();
  const int nlon = 48, nlat = 24, nlev = 2;
  const LatLonGrid grid(nlon, nlat, nlev);
  const std::vector<FilteredVariable> vars = {{"s1", FilterKind::kStrong},
                                              {"w1", FilterKind::kWeak},
                                              {"s2", FilterKind::kStrong}};
  const FilterBank bank(grid, vars);

  auto value = [&](int v, int gi, int gj, int k) {
    return std::sin(0.37 * gi + 1.1 * v) * std::cos(0.21 * gj) + 0.13 * k +
           0.01 * gi * (v + 1);
  };

  // Serial reference on the global field.
  std::vector<std::vector<double>> reference(vars.size());
  {
    const fft::FftPlan plan(nlon);
    for (std::size_t v = 0; v < vars.size(); ++v) {
      auto& field = reference[v];
      field.resize(static_cast<std::size_t>(nlon) * nlat * nlev);
      for (int k = 0; k < nlev; ++k)
        for (int gj = 0; gj < nlat; ++gj)
          for (int gi = 0; gi < nlon; ++gi)
            field[static_cast<std::size_t>(gi) +
                  static_cast<std::size_t>(nlon) *
                      (static_cast<std::size_t>(gj) +
                       static_cast<std::size_t>(nlat) * k)] =
                value(static_cast<int>(v), gi, gj, k);
      for (int k = 0; k < nlev; ++k)
        for (int gj = 0; gj < nlat; ++gj) {
          if (!bank.filtered(static_cast<int>(v), gj)) continue;
          std::span<double> line(
              field.data() + static_cast<std::size_t>(nlon) *
                                 (static_cast<std::size_t>(gj) +
                                  static_cast<std::size_t>(nlat) * k),
              static_cast<std::size_t>(nlon));
          filter_line_fft(plan, line, bank.response(static_cast<int>(v), gj));
        }
    }
  }

  Machine machine(MachineProfile::intel_paragon());
  machine.run(param.rows * param.cols, [&](RankContext& ctx) {
    Communicator world(ctx);
    Mesh2D mesh(world, param.rows, param.cols);
    const Decomp2D decomp(nlon, nlat, param.rows, param.cols);
    const auto box = decomp.box(mesh.coord());

    std::vector<Array3D<double>> fields;
    std::vector<Array3D<double>*> ptrs;
    fields.reserve(vars.size());
    for (std::size_t v = 0; v < vars.size(); ++v) {
      fields.emplace_back(box.ni, box.nj, nlev, 1);
      for (int k = 0; k < nlev; ++k)
        for (int j = 0; j < box.nj; ++j)
          for (int i = 0; i < box.ni; ++i)
            fields.back()(i, j, k) =
                value(static_cast<int>(v), box.i0 + i, box.j0 + j, k);
    }
    for (auto& f : fields) ptrs.push_back(&f);

    auto filter = make_filter(param.algorithm, mesh, decomp, bank);
    filter->apply(ptrs);

    const double tol =
        param.algorithm == FilterAlgorithm::kConvolutionRing ||
                param.algorithm == FilterAlgorithm::kConvolutionTree ||
                param.algorithm == FilterAlgorithm::kConvolutionPartitioned
            ? 1e-9   // convolution accumulates in a different order
            : 1e-10;
    for (std::size_t v = 0; v < vars.size(); ++v)
      for (int k = 0; k < nlev; ++k)
        for (int j = 0; j < box.nj; ++j)
          for (int i = 0; i < box.ni; ++i) {
            const double expected =
                reference[v][static_cast<std::size_t>(box.i0 + i) +
                             static_cast<std::size_t>(nlon) *
                                 (static_cast<std::size_t>(box.j0 + j) +
                                  static_cast<std::size_t>(nlat) * k)];
            EXPECT_NEAR(fields[v](i, j, k), expected, tol)
                << algorithm_name(param.algorithm) << " mesh " << param.rows
                << "x" << param.cols << " v=" << v << " g=("
                << box.i0 + i << "," << box.j0 + j << "," << k << ")";
          }
  });
}

std::vector<VariantCase> variant_cases() {
  std::vector<VariantCase> cases;
  for (auto algorithm :
       {FilterAlgorithm::kConvolutionRing, FilterAlgorithm::kConvolutionTree,
        FilterAlgorithm::kFftTranspose, FilterAlgorithm::kFftBalanced,
        FilterAlgorithm::kConvolutionPartitioned}) {
    for (auto [r, c] : {std::pair{1, 1}, std::pair{1, 4}, std::pair{2, 2},
                        std::pair{3, 2}, std::pair{4, 3}, std::pair{6, 1}}) {
      cases.push_back({algorithm, r, c});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllVariantsAllMeshes, VariantSweep,
                         ::testing::ValuesIn(variant_cases()));

// --- convolution-ring: bitwise pin against the per-tap modulo loop --------

/// Test-local copy of the ring's direct per-tap modulo loop: global point i
/// of `line` as the rank in mesh column `col` computes it — one partial sum
/// per hop, hops in that rank's rotation order, each sum started at zero
/// and added to the output once.
double ring_modulo_reference(std::span<const double> kernel,
                             std::span<const double> line,
                             const grid::Partition1D& lon, int col, int i) {
  const int nlon = lon.n();
  const int ncols = lon.blocks();
  double out = 0.0;
  for (int r = 0; r < ncols; ++r) {
    const int src_col = (col + r) % ncols;
    const int src_i0 = lon.start(src_col);
    double acc = 0.0;
    for (int g = 0; g < lon.size(src_col); ++g) {
      int lag = i - (src_i0 + g);
      lag %= nlon;
      if (lag < 0) lag += nlon;
      acc += kernel[static_cast<std::size_t>(lag)] *
             line[static_cast<std::size_t>(src_i0 + g)];
    }
    out += acc;
  }
  return out;
}

struct RingPinCase {
  int nlon, nlat, nlev, rows, cols;
};

class RingPin : public ::testing::TestWithParam<RingPinCase> {};

/// The windowed, dispatched ring must reproduce the modulo loop's bits
/// exactly — not to a tolerance — on every SIMD tier this host can run.
TEST_P(RingPin, BitwiseEqualsPerTapModuloLoopOnEveryTier) {
  const auto p = GetParam();
  const LatLonGrid grid(p.nlon, p.nlat, p.nlev);
  const FilterBank bank(grid, {{"s", FilterKind::kStrong},
                               {"w", FilterKind::kWeak}});
  const int nvars = bank.nvars();
  auto value = [](int v, int gi, int gj, int k) {
    return std::sin(0.37 * gi + 1.1 * v) * std::cos(0.21 * gj) + 0.13 * k +
           0.01 * gi * (v + 1);
  };

  for (simd::Tier tier :
       {simd::Tier::kScalar, simd::Tier::kAvx2, simd::Tier::kAvx512}) {
    if (!simd::force_tier(tier)) continue;
    SCOPED_TRACE(::testing::Message() << "tier=" << simd::tier_name(tier));
    Machine machine(MachineProfile::intel_paragon());
    machine.run(p.rows * p.cols, [&](RankContext& ctx) {
      Communicator world(ctx);
      Mesh2D mesh(world, p.rows, p.cols);
      const Decomp2D decomp(p.nlon, p.nlat, p.rows, p.cols);
      const auto box = decomp.box(mesh.coord());

      std::vector<Array3D<double>> fields;
      std::vector<Array3D<double>*> ptrs;
      fields.reserve(static_cast<std::size_t>(nvars));
      for (int v = 0; v < nvars; ++v) {
        fields.emplace_back(box.ni, box.nj, p.nlev, 1);
        for (int k = 0; k < p.nlev; ++k)
          for (int j = 0; j < box.nj; ++j)
            for (int i = 0; i < box.ni; ++i)
              fields.back()(i, j, k) = value(v, box.i0 + i, box.j0 + j, k);
      }
      for (auto& f : fields) ptrs.push_back(&f);
      make_filter(FilterAlgorithm::kConvolutionRing, mesh, decomp, bank)
          ->apply(ptrs);

      int filtered = 0, mismatches = 0;
      std::vector<double> line(static_cast<std::size_t>(p.nlon));
      for (int v = 0; v < nvars; ++v)
        for (int j = 0; j < box.nj; ++j) {
          const int gj = box.j0 + j;
          if (!bank.filtered(v, gj)) continue;
          for (int k = 0; k < p.nlev; ++k) {
            for (int gi = 0; gi < p.nlon; ++gi)
              line[static_cast<std::size_t>(gi)] = value(v, gi, gj, k);
            for (int i = 0; i < box.ni; ++i) {
              const double expected = ring_modulo_reference(
                  bank.kernel(v, gj), line, decomp.lon_partition(),
                  mesh.coord().col, box.i0 + i);
              const double got = fields[static_cast<std::size_t>(v)](i, j, k);
              ++filtered;
              if (std::memcmp(&expected, &got, sizeof(double)) != 0) {
                ++mismatches;
              }
            }
          }
        }
      EXPECT_EQ(mismatches, 0)
          << mismatches << " of " << filtered << " filtered points differ "
          << "from the modulo loop on mesh " << p.rows << "x" << p.cols
          << " at rank (" << mesh.coord().row << "," << mesh.coord().col
          << ")";
    });
  }
  simd::reset_tier();
}

INSTANTIATE_TEST_SUITE_P(
    UnevenPartitions, RingPin,
    ::testing::Values(RingPinCase{48, 24, 2, 1, 1},
                      RingPinCase{48, 24, 2, 1, 4},
                      RingPinCase{48, 24, 2, 3, 5},
                      RingPinCase{48, 24, 2, 4, 7},
                      RingPinCase{144, 90, 9, 4, 4}),
    [](const ::testing::TestParamInfo<RingPinCase>& info) {
      const RingPinCase& c = info.param;
      return "mesh" + std::to_string(c.rows) + "x" + std::to_string(c.cols) +
             "_grid" + std::to_string(c.nlon) + "x" + std::to_string(c.nlat) +
             "x" + std::to_string(c.nlev);
    });

TEST(BalancedPlan, EveryRowHoldsNearIdealShare) {
  // Figure 2's guarantee — equation (3): after redistribution each
  // processor row holds ~ sum(R_j)/M lines.
  const int nlon = 48, nlat = 24, nlev = 3;
  const LatLonGrid grid(nlon, nlat, nlev);
  const FilterBank bank(grid, {{"a", FilterKind::kStrong},
                               {"b", FilterKind::kWeak},
                               {"c", FilterKind::kStrong}});
  for (auto [rows, cols] : {std::pair{2, 2}, std::pair{4, 3}, std::pair{6, 1},
                            std::pair{3, 4}}) {
    Machine machine(MachineProfile::ideal());
    machine.run(rows * cols, [&, rows = rows, cols = cols](RankContext& ctx) {
      Communicator world(ctx);
      Mesh2D mesh(world, rows, cols);
      const Decomp2D decomp(nlon, nlat, rows, cols);
      const BalancedFilterPlan plan(mesh, decomp, bank);
      EXPECT_LE(plan.post_balance_ratio(), 1.0 + static_cast<double>(rows) /
                                                     static_cast<double>(
                                                         bank.lines().size()) +
                                               1e-9);
      const double ideal =
          static_cast<double>(bank.lines().size()) / rows;
      EXPECT_LE(std::abs(static_cast<double>(plan.held_lines().size()) - ideal),
                1.0);
    });
  }
}

TEST(BalancedPlan, RedistributeRestoreRoundTrip) {
  const int nlon = 24, nlat = 16, nlev = 2;
  const LatLonGrid grid(nlon, nlat, nlev);
  const FilterBank bank(grid, {{"a", FilterKind::kStrong}});
  Machine machine(MachineProfile::ideal());
  machine.run(4, [&](RankContext& ctx) {
    Communicator world(ctx);
    Mesh2D mesh(world, 4, 1);
    const Decomp2D decomp(nlon, nlat, 4, 1);
    const BalancedFilterPlan plan(mesh, decomp, bank);
    const auto box = decomp.box(mesh.coord());
    std::vector<double> chunks(plan.my_lines().size() *
                               static_cast<std::size_t>(box.ni));
    Rng rng(static_cast<std::uint64_t>(world.rank()) + 17);
    for (double& v : chunks) v = rng.uniform(-1.0, 1.0);
    const auto held = plan.redistribute(mesh, chunks);
    EXPECT_EQ(held.size(),
              plan.held_lines().size() * static_cast<std::size_t>(box.ni));
    const auto restored = plan.restore(mesh, held);
    ASSERT_EQ(restored.size(), chunks.size());
    for (std::size_t i = 0; i < chunks.size(); ++i)
      EXPECT_DOUBLE_EQ(restored[i], chunks[i]);
  });
}

// --- balanced plan: the shared schedule cache ("filter.plans") -----------

/// Everything a rank's BalancedFilterPlan derives from the global schedule.
struct PlanDigest {
  std::vector<LineKey> my_lines, held_lines, owned_lines;
  std::vector<int> send_lines, recv_lines;
  double post_balance_ratio = 0.0;
  bool operator==(const PlanDigest&) const = default;
};

/// Test-local copy of the per-rank schedule build the shared cache
/// replaced: every line stable-sorted by source row (ties in bank order),
/// global position q assigned to destination row q * rows / total.
PlanDigest reference_digest(const Decomp2D& decomp, comm::MeshCoord me,
                            int rows, int cols, const FilterBank& bank) {
  struct Tagged {
    LineKey key;
    int src_row;
    std::size_t bank_pos;
  };
  std::vector<Tagged> global;
  for (std::size_t pos = 0; pos < bank.lines().size(); ++pos) {
    const LineKey& line = bank.lines()[pos];
    global.push_back({line, decomp.lat_partition().owner(line.j), pos});
  }
  std::stable_sort(global.begin(), global.end(),
                   [](const Tagged& a, const Tagged& b) {
                     return a.src_row != b.src_row ? a.src_row < b.src_row
                                                   : a.bank_pos < b.bank_pos;
                   });
  PlanDigest d;
  d.send_lines.assign(static_cast<std::size_t>(rows), 0);
  d.recv_lines.assign(static_cast<std::size_t>(rows), 0);
  std::vector<int> held_per_row(static_cast<std::size_t>(rows), 0);
  const std::size_t total = global.size();
  for (std::size_t q = 0; q < total; ++q) {
    const int src = global[q].src_row;
    const int dst =
        static_cast<int>(q * static_cast<std::size_t>(rows) / total);
    ++held_per_row[static_cast<std::size_t>(dst)];
    if (src == me.row) {
      d.my_lines.push_back(global[q].key);
      ++d.send_lines[static_cast<std::size_t>(dst)];
    }
    if (dst == me.row) {
      d.held_lines.push_back(global[q].key);
      ++d.recv_lines[static_cast<std::size_t>(src)];
    }
  }
  for (std::size_t q = 0; q < d.held_lines.size(); ++q)
    if (static_cast<int>(q % static_cast<std::size_t>(cols)) == me.col)
      d.owned_lines.push_back(d.held_lines[q]);
  const double ideal = static_cast<double>(total) / rows;
  d.post_balance_ratio =
      ideal > 0.0
          ? *std::max_element(held_per_row.begin(), held_per_row.end()) / ideal
          : 1.0;
  return d;
}

/// Builds a BalancedFilterPlan on every rank of a rows x cols mesh and
/// returns each rank's digest, in rank order.
std::vector<PlanDigest> plan_digests(const LatLonGrid& grid,
                                     const FilterBank& bank, int rows,
                                     int cols) {
  std::vector<PlanDigest> out(static_cast<std::size_t>(rows * cols));
  Machine machine(MachineProfile::ideal());
  machine.run(rows * cols, [&](RankContext& ctx) {
    Communicator world(ctx);
    Mesh2D mesh(world, rows, cols);
    const Decomp2D decomp(grid.nlon(), grid.nlat(), rows, cols);
    const BalancedFilterPlan plan(mesh, decomp, bank);
    out[static_cast<std::size_t>(world.rank())] = {
        plan.my_lines(),   plan.held_lines(),
        plan.row_plan().owned_lines(),
        plan.send_lines(), plan.recv_lines(),
        plan.post_balance_ratio()};
  });
  return out;
}

util::SharedCacheStats plan_cache_stats() {
  for (const util::SharedCacheInfo& info : util::SharedCaches::stats())
    if (info.name == "filter.plans") return info.stats;
  return {};
}

const std::vector<FilteredVariable> kModelVariables = {
    {"u", FilterKind::kStrong}, {"v", FilterKind::kStrong},
    {"h", FilterKind::kStrong}, {"theta", FilterKind::kWeak},
    {"q", FilterKind::kWeak}};

TEST(BalancedPlanCache, SharedScheduleEqualsPerRankBuild) {
  for (auto [nlon, nlat, nlev] :
       {std::tuple{144, 90, 9}, std::tuple{48, 30, 3}}) {
    const LatLonGrid grid(nlon, nlat, nlev);
    const FilterBank bank(grid, kModelVariables);
    for (auto [rows, cols] : {std::pair{1, 1}, std::pair{2, 2},
                              std::pair{4, 2}, std::pair{8, 30}}) {
      SCOPED_TRACE(::testing::Message()
                   << "grid " << nlon << "x" << nlat << "x" << nlev
                   << " mesh " << rows << "x" << cols);
      std::vector<PlanDigest> shared, fresh;
      {
        util::SharedCaches::ScopedEnable on(true);
        util::SharedCaches::clear_all();
        shared = plan_digests(grid, bank, rows, cols);
      }
      {
        util::SharedCaches::ScopedEnable off(false);
        fresh = plan_digests(grid, bank, rows, cols);
      }
      ASSERT_EQ(shared.size(), fresh.size());
      const Decomp2D decomp(nlon, nlat, rows, cols);
      for (int r = 0; r < rows; ++r)
        for (int c = 0; c < cols; ++c) {
          const auto rank = static_cast<std::size_t>(r * cols + c);
          EXPECT_TRUE(shared[rank] == fresh[rank]) << "rank " << rank;
          EXPECT_TRUE(shared[rank] ==
                      reference_digest(decomp, {r, c}, rows, cols, bank))
              << "rank " << rank << " differs from the stable-sort build";
        }
    }
  }
}

TEST(BalancedPlanCache, KeyedByLineListAndMeshRows) {
  util::SharedCaches::ScopedEnable on(true);
  util::SharedCaches::clear_all();
  const LatLonGrid grid(48, 30, 3);
  // Same geometry and line count, different variable lists: the lines
  // differ in their variable index only.
  const FilterBank strong(grid, {{"a", FilterKind::kStrong},
                                 {"b", FilterKind::kWeak}});
  const FilterBank weak(grid, {{"a", FilterKind::kWeak},
                               {"b", FilterKind::kStrong}});
  ASSERT_EQ(strong.lines().size(), weak.lines().size());
  const auto misses = [] { return plan_cache_stats().misses; };

  const std::uint64_t m0 = misses();
  const auto strong_2 = plan_digests(grid, strong, 2, 1);
  EXPECT_EQ(misses(), m0 + 1);
  const auto weak_2 = plan_digests(grid, weak, 2, 1);
  EXPECT_EQ(misses(), m0 + 2) << "two variable lists shared one entry";
  const auto strong_4 = plan_digests(grid, strong, 4, 1);
  EXPECT_EQ(misses(), m0 + 3) << "two mesh-row counts shared one entry";
  (void)plan_digests(grid, strong, 2, 3);  // more columns, same rows: a hit
  EXPECT_EQ(misses(), m0 + 3);

  // Each entry serves its own key, as a fresh build would.
  util::SharedCaches::ScopedEnable off(false);
  EXPECT_TRUE(strong_2 == plan_digests(grid, strong, 2, 1));
  EXPECT_TRUE(weak_2 == plan_digests(grid, weak, 2, 1));
  EXPECT_TRUE(strong_4 == plan_digests(grid, strong, 4, 1));
}

TEST(BalancedPlanCache, FlagshipSetupBuildsTheScheduleOnce) {
  // The paper's 240-node T3D run: 240 ranks, 8 distinct row slices, one
  // schedule build.
  util::SharedCaches::ScopedEnable on(true);
  util::SharedCaches::clear_all();
  const LatLonGrid grid(144, 90, 9);
  const FilterBank bank(grid, kModelVariables);
  const util::SharedCacheStats before = plan_cache_stats();
  (void)plan_digests(grid, bank, 8, 30);
  const util::SharedCacheStats after = plan_cache_stats();
  EXPECT_EQ(after.misses - before.misses, 1u);
  EXPECT_EQ(after.hits - before.hits, 239u);
}

TEST(RowTranspose, ToLinesToChunksRoundTrip) {
  const int nlon = 20, nlat = 8, nlev = 2;
  const LatLonGrid grid(nlon, nlat, nlev);
  const FilterBank bank(grid, {{"a", FilterKind::kStrong}});
  Machine machine(MachineProfile::ideal());
  machine.run(4, [&](RankContext& ctx) {
    Communicator world(ctx);
    Mesh2D mesh(world, 1, 4);
    const Decomp2D decomp(nlon, nlat, 1, 4);
    const auto box = decomp.box(mesh.coord());
    std::vector<LineKey> lines;
    for (int j : bank.rows(0))
      for (int k = 0; k < nlev; ++k) lines.push_back({0, j, k});
    const RowTransposePlan plan(mesh, decomp, lines);

    std::vector<double> chunks(lines.size() * static_cast<std::size_t>(box.ni));
    // Global value encodes (line index, global i) so assembled lines can be
    // checked exactly.
    for (std::size_t q = 0; q < lines.size(); ++q)
      for (int i = 0; i < box.ni; ++i)
        chunks[q * static_cast<std::size_t>(box.ni) +
               static_cast<std::size_t>(i)] =
            1000.0 * static_cast<double>(q) + (box.i0 + i);

    const auto full = plan.to_lines(mesh, chunks);
    ASSERT_EQ(full.size(),
              plan.owned_lines().size() * static_cast<std::size_t>(nlon));
    // Find which global line indexes I own and verify assembly.
    std::size_t p = 0;
    for (std::size_t q = 0; q < lines.size(); ++q) {
      if (static_cast<int>(q % 4) != mesh.coord().col) continue;
      for (int gi = 0; gi < nlon; ++gi)
        EXPECT_DOUBLE_EQ(full[p * static_cast<std::size_t>(nlon) +
                              static_cast<std::size_t>(gi)],
                         1000.0 * static_cast<double>(q) + gi);
      ++p;
    }

    const auto back = plan.to_chunks(mesh, full);
    ASSERT_EQ(back.size(), chunks.size());
    for (std::size_t i = 0; i < chunks.size(); ++i)
      EXPECT_DOUBLE_EQ(back[i], chunks[i]);
  });
}

TEST(BalancedFilter, SetupCostIsRecordedOnce) {
  const LatLonGrid grid(24, 16, 2);
  const FilterBank bank(grid, {{"a", FilterKind::kStrong}});
  Machine machine(MachineProfile::intel_paragon());
  machine.run(4, [&](RankContext& ctx) {
    Communicator world(ctx);
    Mesh2D mesh(world, 2, 2);
    const Decomp2D decomp(24, 16, 2, 2);
    FftBalancedFilter filter(mesh, decomp, bank);
    EXPECT_GT(filter.setup_cost_sec(), 0.0);
  });
}

// --- implicit-zonal extension -----------------------------------------------

TEST(ImplicitZonal, ResponseDampsLikeAnImplicitOperator) {
  // S(0) = 1; monotone decreasing to the Nyquist wavenumber; in (0, 1].
  const double k = 5.0;
  const int n = 48;
  EXPECT_DOUBLE_EQ(ImplicitZonalFilter::response(k, 0, n), 1.0);
  double prev = 1.0;
  for (int s = 1; s <= n / 2; ++s) {
    const double r = ImplicitZonalFilter::response(k, s, n);
    EXPECT_GT(r, 0.0);
    EXPECT_LE(r, prev + 1e-14);
    prev = r;
  }
  EXPECT_NEAR(ImplicitZonalFilter::response(k, n / 2, n), 1.0 / (1 + 4 * k),
              1e-12);
}

TEST(ImplicitZonal, PreservesZonalMeanAndDampsNoise) {
  const int nlon = 48, nlat = 24, nlev = 2;
  const LatLonGrid grid(nlon, nlat, nlev);
  const FilterBank bank(grid, {{"a", FilterKind::kStrong}});
  Machine machine(MachineProfile::cray_t3d());
  machine.run(8, [&](RankContext& ctx) {
    Communicator world(ctx);
    Mesh2D mesh(world, 2, 4);
    const Decomp2D decomp(nlon, nlat, 2, 4);
    const auto box = decomp.box(mesh.coord());
    Array3D<double> field(box.ni, box.nj, nlev, 1);
    // Mean 5 plus Nyquist-frequency noise.
    for (int k = 0; k < nlev; ++k)
      for (int j = 0; j < box.nj; ++j)
        for (int i = 0; i < box.ni; ++i)
          field(i, j, k) = 5.0 + ((box.i0 + i) % 2 == 0 ? 1.0 : -1.0);

    auto filter =
        make_filter(FilterAlgorithm::kImplicitZonal, mesh, decomp, bank);
    Array3D<double>* fields[] = {&field};
    filter->apply(fields);

    for (int k = 0; k < nlev; ++k) {
      for (int j = 0; j < box.nj; ++j) {
        const int gj = box.j0 + j;
        double mean = 0.0, wiggle = 0.0;
        for (int i = 0; i < box.ni; ++i) {
          mean += field(i, j, k);
          wiggle = std::max(wiggle, std::abs(field(i, j, k) - 5.0));
        }
        // Zonal mean preserved everywhere (chunk mean equals 5 because the
        // filtered result is mean + damped alternating mode).
        EXPECT_NEAR(mean / box.ni, 5.0, 1e-9);
        if (bank.filtered(0, gj)) {
          EXPECT_LT(wiggle, 0.15);  // Nyquist mode strongly damped
        } else {
          EXPECT_NEAR(wiggle, 1.0, 1e-12);  // untouched outside the band
        }
      }
    }
  });
}

TEST(ImplicitZonal, DecompositionInvariant) {
  const int nlon = 36, nlat = 16, nlev = 2;
  const LatLonGrid grid(nlon, nlat, nlev);
  const FilterBank bank(grid, {{"a", FilterKind::kStrong},
                               {"b", FilterKind::kWeak}});
  auto run = [&](int rows, int cols) {
    std::vector<double> out(static_cast<std::size_t>(nlon) * nlat * nlev *
                            2);
    Machine machine(MachineProfile::ideal());
    machine.run(rows * cols, [&](RankContext& ctx) {
      Communicator world(ctx);
      Mesh2D mesh(world, rows, cols);
      const Decomp2D decomp(nlon, nlat, rows, cols);
      const auto box = decomp.box(mesh.coord());
      std::vector<Array3D<double>> fields;
      std::vector<Array3D<double>*> ptrs;
      for (int v = 0; v < 2; ++v) {
        fields.emplace_back(box.ni, box.nj, nlev, 1);
        for (int k = 0; k < nlev; ++k)
          for (int j = 0; j < box.nj; ++j)
            for (int i = 0; i < box.ni; ++i)
              fields.back()(i, j, k) = std::sin(0.5 * (box.i0 + i) + v) +
                                       0.1 * (box.j0 + j) + 0.2 * k;
      }
      for (auto& f : fields) ptrs.push_back(&f);
      auto filter =
          make_filter(FilterAlgorithm::kImplicitZonal, mesh, decomp, bank);
      filter->apply(ptrs);
      for (int v = 0; v < 2; ++v)
        for (int k = 0; k < nlev; ++k)
          for (int j = 0; j < box.nj; ++j)
            for (int i = 0; i < box.ni; ++i)
              out[static_cast<std::size_t>(v) +
                  2 * (static_cast<std::size_t>(box.i0 + i) +
                       static_cast<std::size_t>(nlon) *
                           (static_cast<std::size_t>(box.j0 + j) +
                            static_cast<std::size_t>(nlat) * k))] =
                  fields[static_cast<std::size_t>(v)](i, j, k);
    });
    return out;
  };
  const auto serial = run(1, 1);
  const auto parallel = run(2, 3);
  EXPECT_LT(max_abs_diff(serial, parallel), 1e-9);
}

TEST(Factory, WrongFieldCountThrows) {
  const LatLonGrid grid(24, 16, 2);
  const FilterBank bank(grid, {{"a", FilterKind::kStrong}});
  Machine machine(MachineProfile::ideal());
  EXPECT_THROW(
      machine.run(1,
                  [&](RankContext& ctx) {
                    Communicator world(ctx);
                    Mesh2D mesh(world, 1, 1);
                    const Decomp2D decomp(24, 16, 1, 1);
                    auto filter = make_filter(FilterAlgorithm::kFftTranspose,
                                              mesh, decomp, bank);
                    filter->apply({});  // bank has one variable
                  }),
      ConfigError);
}

}  // namespace
}  // namespace agcm::filter
