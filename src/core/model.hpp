// The assembled parallel AGCM: Dynamics + Physics on the virtual
// multicomputer, with the paper's component-level timing.
//
// run_model launches one SPMD program per virtual node, integrates the
// model for a number of steps, and reports per-component virtual times the
// way the paper does: component boundaries are synchronisation points, so
// a component's cost includes the load-imbalance wait it causes.
#pragma once

#include <cstdint>
#include <vector>

#include "dynamics/dynamics.hpp"
#include "loadbalance/schemes.hpp"
#include "physics/physics.hpp"
#include "simnet/machine.hpp"
#include "simnet/machine_profile.hpp"
#include "simnet/virtual_clock.hpp"

namespace agcm::core {

struct ModelConfig {
  // Grid: the paper's 2 x 2.5 degree resolution with 9 or 15 layers.
  int nlon = 144;
  int nlat = 90;
  int nlev = 9;
  // Node mesh: rows partition latitude, cols partition longitude.
  int mesh_rows = 1;
  int mesh_cols = 1;

  double dt_sec = 450.0;  ///< 192 steps per simulated day
  dynamics::TimeScheme time_scheme = dynamics::TimeScheme::kForwardBackward;
  bool use_polar_filter = true;
  filter::FilterAlgorithm filter_algorithm =
      filter::FilterAlgorithm::kFftBalanced;

  bool physics_enabled = true;
  bool physics_load_balance = false;
  /// Scheme run when physics_load_balance is on; pairwise (Scheme 3)
  /// preserves the flag's historical meaning. The `lb_scheme` config key
  /// drives both fields (none => balancing off).
  lb::Scheme lb_scheme = lb::Scheme::kPairwise;
  lb::PairwiseOptions lb_options{};
  /// Seasonal insolation regime (solar declination). Equinox is the
  /// historical default; the solstices skew the day/night load field.
  physics::PhysicsRegime physics_regime = physics::PhysicsRegime::kEquinox;

  bool optimized_advection = false;

  std::uint64_t seed = 1996;
  simnet::MachineProfile machine = simnet::MachineProfile::intel_paragon();
  /// Kept only because hostbench/ calls it: unused.
  int recv_timeout_ms = 600'000;
  /// Kept only because hostbench/ calls it: unused.
  simnet::SimBackend simnet_backend = simnet::SimBackend::kFibers;
  /// Host-execution knob for the simnet Machine (virtual-time neutral): the
  /// fiber worker-pool size. A campaign running many machines concurrently
  /// caps each machine's pool so the host isn't oversubscribed; 0 keeps the
  /// machine default (min(nranks, hardware)).
  int simnet_workers = 0;

  int nranks() const { return mesh_rows * mesh_cols; }
  double steps_per_day() const { return 86400.0 / dt_sec; }
};

/// Virtual seconds per *step*, max-reduced over ranks (see note in .cpp).
struct ComponentTimes {
  double filter = 0.0;
  double halo = 0.0;
  double fd = 0.0;
  double physics_compute = 0.0;
  double physics_balance = 0.0;

  double dynamics() const { return filter + halo + fd; }
  double physics() const { return physics_compute + physics_balance; }
  double total() const { return dynamics() + physics(); }
};

/// p50/p95/p99 of one component's per-(rank, timed-step) virtual-time
/// samples — the tail view the max-over-ranks averages hide. Estimated
/// with the log-binned histogram (trace/histogram.hpp), so the values are
/// order-independent and bit-deterministic at any concurrency.
struct PhasePercentiles {
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Percentiles for each of the paper's five components.
struct ComponentPercentiles {
  PhasePercentiles filter;
  PhasePercentiles halo;
  PhasePercentiles fd;
  PhasePercentiles physics_compute;
  PhasePercentiles physics_balance;
};

struct RunReport {
  int steps = 0;
  double steps_per_day = 0.0;
  ComponentTimes per_step;  ///< average over timed steps, max over ranks
  /// Tail behaviour over all (rank, timed step) samples per component.
  ComponentPercentiles percentiles;

  double dynamics_per_day() const { return per_step.dynamics() * steps_per_day; }
  double physics_per_day() const { return per_step.physics() * steps_per_day; }
  double filter_per_day() const { return per_step.filter * steps_per_day; }
  double total_per_day() const { return per_step.total() * steps_per_day; }

  // Physics load-balance statistics from the last timed step.
  double physics_imbalance_before = 0.0;
  double physics_imbalance_after = 0.0;
  /// Per-rank physics flops actually executed in the last timed step.
  std::vector<double> rank_physics_flops;

  // Diagnostics after the run.
  double mass_drift_rel = 0.0;       ///< |M_end - M_0| / M_0
  double max_zonal_courant = 0.0;
  double max_gravity_courant = 0.0;
  double filter_setup_sec = 0.0;     ///< one-time plan cost (balanced FFT)

  std::uint64_t total_messages = 0;
  std::uint64_t total_bytes = 0;

  /// Per-rank compute/overhead/wait accounting over the whole program (setup
  /// + warmup + timed steps + diagnostics), straight from the virtual
  /// machine. When tracing is enabled, each rank's "model.rank" span carries
  /// the same split — the trace layer validates itself against this.
  std::vector<simnet::TimeBreakdown> rank_breakdowns;
};

/// Integrates the model for `steps` timed steps (after `warmup_steps` that
/// prime the physics load estimator). Throws on invalid configuration.
RunReport run_model(const ModelConfig& config, int steps,
                    int warmup_steps = 1);

}  // namespace agcm::core
