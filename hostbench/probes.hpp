// Host-clock probes built only from the simulator's public calls: the
// set-up program, the traced mirror of run_model's rank loop, and the
// per-layer probes. Nothing here edits or reaches into src/.
#pragma once

#include <string>
#include <vector>

#include "core/model.hpp"
#include "report.hpp"

namespace agcm::hostbench {

/// One Machine::run of what run_model builds before its first step
/// (Communicator, Mesh2D, grid, Decomp2D, Dynamics, Physics, initial
/// State). With `with_diagnostics` the program also evaluates the start and
/// end diagnostics run_model evaluates outside its step loop, so the run's
/// traffic is exactly run_model's minus its steps.
struct SetupRun {
  double wall_s = 0.0;
  simnet::RunResult result;
};
SetupRun run_setup(const core::ModelConfig& config, bool with_diagnostics);

/// run_model's rank loop re-built from public calls, with rank 0 stamping
/// the host clock after the barriers that close the dynamics and physics
/// phases. `report` holds the virtual results run_model would return
/// (component times, imbalance, diagnostics, traffic, per-rank breakdowns;
/// not the percentiles).
struct MirrorRun {
  double wall_s = 0.0;
  core::RunReport report;
  double dynamics_s = 0.0;  ///< host seconds per timed step, machine wide
  double physics_s = 0.0;
};
MirrorRun run_mirror(const core::ModelConfig& config, int steps,
                     int warmup_steps);

/// Every virtual result the mirror reproduces that differs between `a`
/// and `b`, bit for bit. Empty when they agree.
std::vector<std::string> report_mismatches(const core::RunReport& a,
                                           const core::RunReport& b);

/// Checks on one run: mass drift at round-off, and with load balancing on,
/// imbalance after below imbalance before (or equal to it when it starts
/// within the balancing tolerance). Empty when all hold.
std::vector<std::string> report_violations(const core::ModelConfig& config,
                                           const core::RunReport& report);

/// Times each layer's public calls at the config's geometry and adds the
/// simnet.*, comm.*, grid.*, filter.*, dynamics.*, physics.* and
/// loadbalance.* metrics to `out`. Failed checks go to out.fail().
void probe_layers(const core::ModelConfig& config, Result& out);

}  // namespace agcm::hostbench
