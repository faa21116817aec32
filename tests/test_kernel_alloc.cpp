// Allocation-freedom test for the kernel engine: after a warm-up step, the
// steady-state dynamics + physics hot paths must not touch the heap
// (docs/kernels.md, "allocation-free steady state"). All scratch lives in
// the per-rank KernelWorkspace (flux arrays, tracer updates, column bands),
// the Physics gather buffers are members sized in the constructor, and the
// profile Thomas solves run in place via thomas_solve_into.
//
// The check hooks the global operator new/delete with the counting wrapper
// in tests/counting_new.hpp; it lives in its own binary so the hooks
// cannot perturb the other suites. CI runs it under ASan+UBSan as well —
// the hooks pass through to malloc/aligned_alloc, so the sanitizers still
// see every underlying allocation.
//
// Unlike test_comm_alloc there is no gatekeeper protocol: the virtual
// machine here is a single rank (1x1 mesh), so exactly one thread runs and
// the global counter samples are race-free. The periodic east-west halo
// neighbour of a 1x1 mesh is the rank itself, which still exercises the
// pooled transport path under the step.
#include <gtest/gtest.h>

#include <vector>

#include "counting_new.hpp"

#include "comm/communicator.hpp"
#include "comm/mesh2d.hpp"
#include "dynamics/advection.hpp"
#include "dynamics/dynamics.hpp"
#include "dynamics/state.hpp"
#include "grid/array3d.hpp"
#include "grid/decomp.hpp"
#include "grid/latlon.hpp"
#include "kernels/simd/dispatch.hpp"
#include "physics/column.hpp"
#include "physics/physics.hpp"
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

TEST(AllocationHook, CountsHeapTraffic) {
  const std::size_t before = allocs();
  auto* v = new std::vector<double>(1000);
  const std::size_t after = allocs();
  delete v;
  EXPECT_GE(after - before, 2u);  // the vector object + its storage
  // The aligned path (Array3D storage) must be hook-visible too.
  const std::size_t before_aligned = allocs();
  { Array3D<double> a(8, 4, 2, 1); }
  EXPECT_GE(allocs() - before_aligned, 1u);
}

TEST(KernelAllocFree, AdvectionEngineAfterWarmup) {
  const grid::LatLonGrid g(24, 16, 3);
  const grid::LocalBox box{0, g.nlon(), 0, g.nlat()};
  const dynamics::Metrics metrics = dynamics::Metrics::build(g, box);
  dynamics::State state(box, g.nlev());
  dynamics::initialize_state(state, g, box, 7);
  const Array3D<double> h_new = state.h;
  Array3D<double>* tracers[] = {&state.theta, &state.q};

  // The warm engine must stay off the heap on every SIMD dispatch tier the
  // host offers, not just the auto-selected one (the tiers share one
  // workspace, so switching must not trigger regrowth).
  for (simd::Tier tier : {simd::Tier::kScalar, simd::Tier::kAvx2,
                          simd::Tier::kAvx512}) {
    if (!simd::tier_supported(tier)) continue;
    SCOPED_TRACE(simd::tier_name(tier));
    ASSERT_TRUE(simd::force_tier(tier));  // outside the counted window
    // Warm: first call grows the workspace to this shape.
    dynamics::advect_tracers_optimized(g, box, metrics, state.h, h_new,
                                       state.u, state.v, tracers, 450.0);
    const std::size_t before = allocs();
    for (int it = 0; it < 3; ++it) {
      dynamics::advect_tracers_optimized(g, box, metrics, state.h, h_new,
                                         state.u, state.v, tracers, 450.0);
    }
    EXPECT_EQ(allocs() - before, 0u)
        << "warm advection engine touched the heap";
  }
  simd::reset_tier();
}

TEST(KernelAllocFree, ColumnPhysicsAfterWarmup) {
  physics::ColumnParams params;  // nlev 9, implicit diffusion on
  std::vector<double> theta(9), q(9);
  for (int k = 0; k < 9; ++k) {
    theta[static_cast<std::size_t>(k)] = 285.0 + 0.7 * k - (k % 3 == 1);
    q[static_cast<std::size_t>(k)] = 0.01 / (1 + k);
  }
  (void)physics::step_column(params, 11, 0, 0.4, 1.2, 0.0, theta, q);  // warm
  const std::size_t before = allocs();
  for (int s = 1; s <= 4; ++s)
    (void)physics::step_column(params, 11, s, 0.4, 1.2, 450.0 * s, theta, q);
  EXPECT_EQ(allocs() - before, 0u)
      << "warm column physics touched the heap";
}

TEST(KernelAllocFree, WarmDynamicsPlusPhysicsStep) {
  const int nlon = 24, nlat = 16, nlev = 3;
  Machine machine(MachineProfile::ideal());
  machine.run(1, [&](RankContext& ctx) {
    Communicator world(ctx);
    ctx.network().pool().prewarm(128, 1 << 16);
    Mesh2D mesh(world, 1, 1);
    const Decomp2D decomp(nlon, nlat, 1, 1);
    const grid::LatLonGrid g(nlon, nlat, nlev);

    dynamics::DynamicsConfig dcfg;
    dcfg.optimized_advection = true;  // the engine path
    dynamics::Dynamics dyn(mesh, decomp, g, dcfg);

    physics::PhysicsConfig pcfg;
    pcfg.column.nlev = nlev;
    pcfg.load_balance = false;  // column pass stays rank-local
    physics::Physics phys(mesh, decomp, g, pcfg);

    dynamics::State state(decomp.box(mesh.coord()), nlev);
    dynamics::initialize_state(state, g, decomp.box(mesh.coord()), 1996);

    // Warm-up: workspace growth, FFT plans, transport pool, channels.
    for (int it = 0; it < 3; ++it) {
      dyn.step(state);
      (void)phys.step(state);
    }

    const std::size_t before = allocs();
    for (int it = 0; it < 2; ++it) {
      dyn.step(state);
      (void)phys.step(state);
    }
    EXPECT_EQ(allocs() - before, 0u)
        << "warm dynamics+physics step touched the heap";
  });
}

}  // namespace
}  // namespace agcm
