// Allocation-freedom test for the zero-copy pooled transport: after a
// warm-up sweep, the steady-state communication hot paths — multi-field
// halo exchange, the filter row-transpose, the convolution ring and the
// dense all-to-all — must not touch the heap (docs/transport.md,
// "allocation-free steady state").
//
// The check hooks the global operator new/delete with the counting wrapper
// in tests/counting_new.hpp; it lives in its own binary so the hooks
// cannot perturb the other suites.
//
// Measurement protocol (the ranks run on real threads, so a naive global
// count would see other ranks' setup): all ranks warm up every code path
// including the gate messages themselves, then rank 0 plays gatekeeper —
// it samples the counter only while every other rank is provably either
// blocked in a pooled recv or executing the measured (allocation-free)
// region:
//
//   ranks != 0: send READY,  block on START
//   rank 0:     recv READYs, sample `before`, send STARTs
//   all:        measured iterations (the code under test)
//   ranks != 0: send DONE,   block on EXIT
//   rank 0:     recv DONEs,  sample `after`, assert, send EXITs
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "counting_new.hpp"

#include "comm/communicator.hpp"
#include "comm/mesh2d.hpp"
#include "filter/bank.hpp"
#include "filter/parallel.hpp"
#include "filter/variants.hpp"
#include "grid/array3d.hpp"
#include "grid/decomp.hpp"
#include "grid/halo.hpp"
#include "grid/latlon.hpp"
#include "simnet/machine.hpp"

namespace agcm {
namespace {

using comm::Communicator;
using comm::Mesh2D;
using grid::Array3D;
using grid::Decomp2D;
using simnet::Machine;
using simnet::MachineProfile;
using simnet::RankContext;

constexpr int kReady = 3001, kStart = 3002, kDone = 3003, kExit = 3004;

/// One gatekeeper round: rank 0 runs `sample_and_check` while every other
/// rank is blocked between its `entry` send and the matching release recv.
/// The gate messages themselves ride the pooled transport and are warmed
/// before the asserted round, so they are allocation-free too.
template <typename Fn, typename Sample>
void gated(const Communicator& comm, Fn&& measured, Sample&& sample) {
  if (comm.rank() == 0) {
    for (int r = 1; r < comm.size(); ++r) (void)comm.recv_value<int>(r, kReady);
    const std::size_t before = allocs();
    for (int r = 1; r < comm.size(); ++r) comm.send_value<int>(r, kStart, 1);
    measured();
    for (int r = 1; r < comm.size(); ++r) (void)comm.recv_value<int>(r, kDone);
    const std::size_t after = allocs();
    sample(before, after);
    for (int r = 1; r < comm.size(); ++r) comm.send_value<int>(r, kExit, 1);
  } else {
    comm.send_value<int>(0, kReady, 1);
    (void)comm.recv_value<int>(0, kStart);
    measured();
    comm.send_value<int>(0, kDone, 1);
    (void)comm.recv_value<int>(0, kExit);
  }
}

TEST(AllocationHook, CountsHeapTraffic) {
  const std::size_t before = allocs();
  auto* v = new std::vector<double>(1000);
  const std::size_t after = allocs();
  delete v;
  EXPECT_GE(after - before, 2u);  // the vector object + its storage
}

TEST(CommAllocFree, HaloExchangeAfterWarmup) {
  const int rows = 2, cols = 2, nlon = 24, nlat = 16, nlev = 3;
  Machine machine(MachineProfile::ideal());
  machine.run(rows * cols, [&](RankContext& ctx) {
    Communicator world(ctx);
    // Deterministic zero-alloc assertion under any thread interleaving:
    // cover the workload's peak buffer concurrency up front (the pool
    // would self-warm within a few sweeps anyway, but which storage grows
    // depends on scheduling).
    if (world.rank() == 0) ctx.network().pool().prewarm(128, 1 << 16);
    Mesh2D mesh(world, rows, cols);
    const Decomp2D decomp(nlon, nlat, rows, cols);
    const auto box = decomp.box(mesh.coord());

    std::vector<Array3D<double>> fields;
    std::vector<Array3D<double>*> ptrs;
    for (int v = 0; v < 3; ++v) {
      fields.emplace_back(box.ni, box.nj, nlev, 1);
      fields.back().fill(1.0 + v);
    }
    for (auto& f : fields) ptrs.push_back(&f);

    auto sweep = [&] {
      grid::exchange_halos(mesh, ptrs);                    // batched
      grid::exchange_halo(mesh, fields[0]);                // single-field
      grid::exchange_halos(mesh, ptrs, /*width=*/1,
                           grid::HaloMode::kAggregate);    // ablation mode
    };

    // Warm-up: pool growth, channel creation, gate channels.
    for (int it = 0; it < 3; ++it) sweep();
    gated(world, [] {}, [](std::size_t, std::size_t) {});

    gated(world, sweep, [](std::size_t before, std::size_t after) {
      EXPECT_EQ(after - before, 0u)
          << (after - before)
          << " heap allocations in the steady-state halo exchange";
    });
  });
}

TEST(CommAllocFree, FilterTransposeAfterWarmup) {
  const int rows = 2, cols = 2, nlon = 48, nlat = 24, nlev = 2;
  const grid::LatLonGrid grid(nlon, nlat, nlev);
  const filter::FilterBank bank(grid,
                                {{"u", filter::FilterKind::kStrong},
                                 {"t", filter::FilterKind::kWeak}});
  Machine machine(MachineProfile::ideal());
  machine.run(rows * cols, [&](RankContext& ctx) {
    Communicator world(ctx);
    if (world.rank() == 0) ctx.network().pool().prewarm(128, 1 << 16);
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
            fields.back()(i, j, k) = 0.25 * v + 0.01 * i + 0.1 * j + k;
    }
    for (auto& f : fields) ptrs.push_back(&f);

    filter::FftTransposeFilter transpose(mesh, decomp, bank);
    filter::FftBalancedFilter balanced(mesh, decomp, bank);
    filter::ConvolutionRingFilter ring(mesh, decomp, bank);

    auto sweep = [&] {
      transpose.apply(ptrs);
      balanced.apply(ptrs);
      ring.apply(ptrs);
    };

    for (int it = 0; it < 3; ++it) sweep();
    gated(world, [] {}, [](std::size_t, std::size_t) {});

    gated(world, sweep, [](std::size_t before, std::size_t after) {
      EXPECT_EQ(after - before, 0u)
          << (after - before)
          << " heap allocations in the steady-state filter sweep "
             "(transpose, balanced, ring)";
    });
  });
}

TEST(CommAllocFree, DenseAlltoallvPackedAfterWarmup) {
  // Scheme 1's payload shape: every rank pair exchanges a bulk block whose
  // size differs by pair, some sizes sharing a pool size class and some
  // spanning several. After warm-up neither the pool's class stacks nor a
  // mailbox's per-source channel index may grow.
  const int p = 16;
  auto doubles = [](int src, int dst) {
    return static_cast<std::size_t>(48 + 29 * ((7 * src + 3 * dst) % 23));
  };
  Machine machine(MachineProfile::ideal());
  machine.run(p, [&](RankContext& ctx) {
    Communicator world(ctx);
    // Peak concurrency per class is at most one buffer per rank pair.
    if (world.rank() == 0) {
      for (std::size_t bytes = 256; bytes <= 8192; bytes *= 2)
        ctx.network().pool().prewarm(p * p, bytes);
    }
    const int me = world.rank();
    std::vector<std::size_t> send_bytes(p), recv_bytes(p);
    std::vector<std::vector<double>> outgoing(p), incoming(p);
    for (int r = 0; r < p; ++r) {
      const auto ur = static_cast<std::size_t>(r);
      send_bytes[ur] = doubles(me, r) * sizeof(double);
      recv_bytes[ur] = doubles(r, me) * sizeof(double);
      outgoing[ur].assign(doubles(me, r), 100.0 * me + r);
      incoming[ur].resize(doubles(r, me));
    }

    auto sweep = [&] {
      world.alltoallv_packed(
          send_bytes, recv_bytes,
          [&](int dst, comm::PackedWriter& w) {
            w.write<double>(outgoing[static_cast<std::size_t>(dst)]);
          },
          [&](int src, comm::PackedReader& rd) {
            rd.read<double>(std::span<double>(
                incoming[static_cast<std::size_t>(src)]));
          });
    };

    for (int it = 0; it < 3; ++it) sweep();
    gated(world, [] {}, [](std::size_t, std::size_t) {});

    gated(world, sweep, [](std::size_t before, std::size_t after) {
      EXPECT_EQ(after - before, 0u)
          << (after - before)
          << " heap allocations in the steady-state dense alltoallv";
    });
    for (int r = 0; r < p; ++r) {
      const auto& got = incoming[static_cast<std::size_t>(r)];
      ASSERT_EQ(got.size(), doubles(r, me));
      EXPECT_EQ(got.front(), 100.0 * r + me);
      EXPECT_EQ(got.back(), 100.0 * r + me);
    }
  });
}

}  // namespace
}  // namespace agcm
