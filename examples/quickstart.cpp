// Quickstart: run the parallel AGCM on a virtual 1990s multicomputer.
//
// Builds the paper's standard configuration — the 2 x 2.5 degree, 9-layer
// grid on an 8x8 node mesh of a virtual Cray T3D — integrates a few steps,
// and prints the per-component cost breakdown plus physical diagnostics.
//
//   $ ./quickstart
#include <cstdio>

#include "core/model.hpp"

int main() {
  using namespace agcm;

  core::ModelConfig config;           // defaults: 144 x 90 x 9 grid
  config.mesh_rows = 8;               // 8 node rows across latitude
  config.mesh_cols = 8;               // 8 node columns across longitude
  config.machine = simnet::MachineProfile::cray_t3d();
  config.filter_algorithm = filter::FilterAlgorithm::kFftBalanced;
  config.physics_load_balance = true;

  std::printf("Running the AGCM on a virtual %s, %dx%d nodes...\n",
              config.machine.name.c_str(), config.mesh_rows,
              config.mesh_cols);

  const core::RunReport report = core::run_model(config, /*steps=*/4,
                                                 /*warmup_steps=*/1);

  std::printf("\nPer-component cost (virtual seconds per simulated day):\n");
  std::printf("  spectral filtering : %8.1f\n", report.filter_per_day());
  std::printf("  ghost exchanges    : %8.1f\n",
              report.per_step.halo * report.steps_per_day);
  std::printf("  finite differences : %8.1f\n",
              report.per_step.fd * report.steps_per_day);
  std::printf("  Dynamics total     : %8.1f\n", report.dynamics_per_day());
  std::printf("  Physics total      : %8.1f\n", report.physics_per_day());
  std::printf("  AGCM total         : %8.1f\n", report.total_per_day());

  std::printf("\nDiagnostics:\n");
  std::printf("  relative mass drift      : %.2e (flux form conserves)\n",
              report.mass_drift_rel);
  std::printf("  max zonal Courant number : %.3f\n", report.max_zonal_courant);
  if (config.physics_load_balance) {
    std::printf("  physics imbalance        : %.1f%% -> %.1f%% (%s)\n",
                100.0 * report.physics_imbalance_before,
                100.0 * report.physics_imbalance_after,
                lb::scheme_name(config.lb_scheme));
  } else {
    std::printf("  physics imbalance        : n/a (load balancing off)\n");
  }
  std::printf("  messages exchanged       : %llu (%.1f MB)\n",
              static_cast<unsigned long long>(report.total_messages),
              static_cast<double>(report.total_bytes) / 1.0e6);
  return 0;
}
