// A longer "climate" integration with history checkpointing.
//
// Integrates the model for a simulated half-day on a small mesh, writes a
// history (restart) file every quarter day, restarts from the last
// checkpoint, and verifies the restarted trajectory matches — the workflow
// the real AGCM's NetCDF history files support (Section 4 mentions the
// byte-order reversal the Paragon needed; this example writes the
// checkpoint byte-swapped to exercise that path).
//
//   $ ./climate_simulation [workdir]
#include <cstdio>
#include <string>

#include "comm/mesh2d.hpp"
#include "dynamics/dynamics.hpp"
#include "io/history.hpp"
#include "physics/physics.hpp"
#include "simnet/machine.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace agcm;
  const std::string workdir = argc > 1 ? argv[1] : "/tmp";
  const std::string checkpoint = workdir + "/agcm_demo_checkpoint.hist";

  const int nlon = 72, nlat = 46, nlev = 5;
  const int rows = 2, cols = 3;
  const double dt = 450.0;
  const int steps_per_quarter_day = 48;

  simnet::Machine machine(simnet::MachineProfile::cray_t3d());

  double mass_start = 0.0, mass_end = 0.0;
  double theta_mean_end = 0.0;
  double restart_mismatch = -1.0;

  machine.run(rows * cols, [&](simnet::RankContext& ctx) {
    comm::Communicator world(ctx);
    comm::Mesh2D mesh(world, rows, cols);
    const grid::LatLonGrid grid(nlon, nlat, nlev);
    const grid::Decomp2D decomp(nlon, nlat, rows, cols);
    const auto box = decomp.box(mesh.coord());

    dynamics::DynamicsConfig dyn_cfg;
    dyn_cfg.dt_sec = dt;
    dynamics::Dynamics dyn(mesh, decomp, grid, dyn_cfg);
    physics::PhysicsConfig phys_cfg;
    phys_cfg.column.nlev = nlev;
    phys_cfg.column.dt_sec = dt;
    phys_cfg.load_balance = true;
    physics::Physics phys(mesh, decomp, grid, phys_cfg);

    dynamics::State state(box, nlev);
    dynamics::initialize_state(state, grid, box, 2026);
    mass_start = dyn.total_mass(state);

    // Two quarter-days with a checkpoint in between.
    for (int quarter = 0; quarter < 2; ++quarter) {
      for (int s = 0; s < steps_per_quarter_day; ++s) {
        dyn.step(state);
        phys.step(state);
      }
      const io::HistoryFile snapshot =
          io::gather_state(mesh, decomp, grid, state);
      if (world.rank() == 0) {
        // Byte-swapped on purpose: the Paragon scenario.
        io::write_history(checkpoint, snapshot, /*foreign_endian=*/true);
        std::printf("checkpoint written at t = %.2f h (step %lld)\n",
                    state.time_sec / 3600.0,
                    static_cast<long long>(state.step));
      }
      world.barrier();
    }
    mass_end = dyn.total_mass(state);

    // Continue half a quarter more, remembering the trajectory...
    dynamics::State reference = state;
    for (int s = 0; s < steps_per_quarter_day / 2; ++s) {
      dyn.step(reference);
      phys.step(reference);
    }

    // ...then restart from the checkpoint and redo the same stretch. The
    // physics estimator state is rebuilt from scratch, but column physics
    // is deterministic given (state, step), so trajectories must match.
    io::HistoryFile loaded;
    if (world.rank() == 0) loaded = io::read_history(checkpoint);
    dynamics::State restarted(box, nlev);
    io::scatter_state(mesh, decomp, grid, loaded, restarted);
    physics::Physics phys2(mesh, decomp, grid, phys_cfg);
    for (int s = 0; s < steps_per_quarter_day / 2; ++s) {
      dyn.step(restarted);
      phys2.step(restarted);
    }
    double worst = 0.0;
    for (int k = 0; k < nlev; ++k)
      for (int j = 0; j < box.nj; ++j)
        for (int i = 0; i < box.ni; ++i)
          worst = std::max(worst, std::abs(reference.theta(i, j, k) -
                                           restarted.theta(i, j, k)));
    restart_mismatch = world.allreduce_max(worst);

    double theta_sum = 0.0;
    for (int j = 0; j < box.nj; ++j)
      for (int i = 0; i < box.ni; ++i) theta_sum += reference.theta(i, j, 0);
    theta_mean_end = world.allreduce_sum(theta_sum) / (nlon * nlat);
  });

  std::printf("\nHalf-day integration complete (%d x %d x %d grid, %dx%d "
              "node mesh).\n", nlon, nlat, nlev, rows, cols);
  std::printf("  relative mass drift      : %.2e\n",
              std::abs(mass_end - mass_start) / mass_start);
  std::printf("  mean surface theta       : %.2f K\n", theta_mean_end);
  std::printf("  restart trajectory error : %.2e K (bitwise restart => 0)\n",
              restart_mismatch);
  std::remove(checkpoint.c_str());
  return restart_mismatch == 0.0 ? 0 : 1;
}
