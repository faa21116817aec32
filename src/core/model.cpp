#include "core/model.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "comm/mesh2d.hpp"
#include "simnet/machine.hpp"
#include "trace/histogram.hpp"
#include "trace/metrics.hpp"
#include "trace/tracer.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace agcm::core {

namespace {

/// Everything one rank accumulates for the report.
struct RankOutcome {
  ComponentTimes accumulated;  ///< summed over timed steps
  std::vector<ComponentTimes> step_samples;  ///< one entry per timed step
  double physics_flops_last = 0.0;
  double imbalance_before = 0.0;
  double imbalance_after = 0.0;
  double mass_start = 0.0;
  double mass_end = 0.0;
  double max_zonal_courant = 0.0;
  double max_gravity_courant = 0.0;
  double filter_setup_sec = 0.0;
};

}  // namespace

RunReport run_model(const ModelConfig& config, int steps, int warmup_steps) {
  check_config(steps > 0, "need at least one timed step");
  check_config(warmup_steps >= 0, "warmup_steps must be >= 0");

  simnet::Machine machine(config.machine);
  machine.set_workers(config.simnet_workers);
  const int nranks = config.nranks();

  std::vector<RankOutcome> outcomes(static_cast<std::size_t>(nranks));

  // A fresh trace per run. Cheap no-ops when tracing is disabled; the
  // tracer itself never touches any virtual clock, so enabling it changes
  // virtual-time results by exactly zero.
  if (trace::enabled()) {
    trace::Tracer::instance().begin_run(nranks);
    trace::MetricsRegistry::instance().reset();
  }

  const simnet::RunResult run_result =
      machine.run(nranks, [&](simnet::RankContext& ctx) {
    // Whole-program span: starts with a zeroed clock, so its split delta is
    // bitwise equal to the rank's final TimeBreakdown.
    AGCM_TRACE_SPAN("model.rank", ctx);
    comm::Communicator world(ctx);
    comm::Mesh2D mesh(world, config.mesh_rows, config.mesh_cols);
    const grid::LatLonGrid grid(config.nlon, config.nlat, config.nlev);
    const grid::Decomp2D decomp(config.nlon, config.nlat, config.mesh_rows,
                                config.mesh_cols);

    dynamics::DynamicsConfig dyn_cfg;
    dyn_cfg.dt_sec = config.dt_sec;
    dyn_cfg.time_scheme = config.time_scheme;
    dyn_cfg.use_polar_filter = config.use_polar_filter;
    dyn_cfg.filter_algorithm = config.filter_algorithm;
    dyn_cfg.optimized_advection = config.optimized_advection;

    // Pre-processing (excluded from step timing, as in the paper): filter
    // plan setup happens inside the Dynamics constructor.
    const double setup_t0 = world.now();
    std::optional<trace::ScopedSpan> setup_span;
    if (trace::enabled()) setup_span.emplace("model.setup", ctx);
    dynamics::Dynamics dyn(mesh, decomp, grid, dyn_cfg);
    setup_span.reset();
    const double setup_cost = world.now() - setup_t0;

    physics::PhysicsConfig phys_cfg;
    phys_cfg.column.nlev = config.nlev;
    phys_cfg.column.dt_sec = config.dt_sec;
    phys_cfg.column.seed = config.seed;
    phys_cfg.column.solar_declination_rad =
        physics::regime_declination_rad(config.physics_regime);
    phys_cfg.load_balance = config.physics_load_balance;
    phys_cfg.lb_scheme = config.lb_scheme;
    phys_cfg.lb_options = config.lb_options;
    physics::Physics phys(mesh, decomp, grid, phys_cfg);

    dynamics::State state(decomp.box(mesh.coord()), config.nlev);
    dynamics::initialize_state(state, grid, decomp.box(mesh.coord()),
                               config.seed);

    RankOutcome& out = outcomes[static_cast<std::size_t>(world.rank())];
    out.filter_setup_sec = setup_cost;
    out.mass_start = dyn.total_mass(state);

    physics::PhysicsStepStats phys_stats;
    for (int s = 0; s < warmup_steps + steps; ++s) {
      const bool timed = s >= warmup_steps;
      std::optional<trace::ScopedSpan> step_span;
      if (trace::enabled())
        step_span.emplace(timed ? "model.step" : "model.warmup", ctx);

      dyn.step(state);  // barriers internally after the filter phase
      world.barrier();  // dynamics/physics component boundary
      const auto dyn_t = dyn.last_timings();

      double phys_compute = 0.0;
      double phys_balance = 0.0;
      if (config.physics_enabled) {
        phys_stats = phys.step(state);
        // Component boundary. The barrier realises the imbalance: the slow
        // rank's compute time becomes everyone's time, and the report's
        // max-over-ranks per-component reduction attributes it to physics —
        // exactly like the paper's component timings.
        world.barrier();
        phys_compute = phys.last_timings().compute_sec;
        phys_balance = phys.last_timings().balance_sec;
      }

      if (timed) {
        out.accumulated.filter += dyn_t.filter_sec;
        out.accumulated.halo += dyn_t.halo_sec;
        out.accumulated.fd += dyn_t.fd_sec;
        out.accumulated.physics_compute += phys_compute;
        out.accumulated.physics_balance += phys_balance;
        // Per-(rank, step) sample for the tail percentiles; pure
        // bookkeeping, never touches any virtual clock.
        out.step_samples.push_back({dyn_t.filter_sec, dyn_t.halo_sec,
                                    dyn_t.fd_sec, phys_compute,
                                    phys_balance});
        out.physics_flops_last = phys.last_timings().local_flops;
        out.imbalance_before = phys_stats.imbalance_before;
        out.imbalance_after = phys_stats.imbalance_after;
      }
    }

    out.mass_end = dyn.total_mass(state);
    out.max_zonal_courant = dyn.max_zonal_courant(state);
    out.max_gravity_courant = dyn.max_gravity_courant(state);
  });


  RunReport report;
  report.steps = steps;
  report.steps_per_day = config.steps_per_day();

  // Max over ranks of per-step averages: with barriers at the component
  // boundaries, the max-rank time per component is what the whole machine
  // pays for that component.
  for (const RankOutcome& out : outcomes) {
    const double inv = 1.0 / steps;
    report.per_step.filter =
        std::max(report.per_step.filter, out.accumulated.filter * inv);
    report.per_step.halo =
        std::max(report.per_step.halo, out.accumulated.halo * inv);
    report.per_step.fd = std::max(report.per_step.fd, out.accumulated.fd * inv);
    report.per_step.physics_compute =
        std::max(report.per_step.physics_compute,
                 out.accumulated.physics_compute * inv);
    report.per_step.physics_balance =
        std::max(report.per_step.physics_balance,
                 out.accumulated.physics_balance * inv);
    report.rank_physics_flops.push_back(out.physics_flops_last);
    report.filter_setup_sec =
        std::max(report.filter_setup_sec, out.filter_setup_sec);
  }
  // Tail percentiles over every (rank, timed step) sample. The log-binned
  // histogram makes them order-independent, so concurrent campaign serving
  // reproduces them bit-for-bit.
  {
    trace::LogHistogram filter_h, halo_h, fd_h, compute_h, balance_h;
    for (const RankOutcome& out : outcomes) {
      for (const ComponentTimes& sample : out.step_samples) {
        filter_h.add(sample.filter);
        halo_h.add(sample.halo);
        fd_h.add(sample.fd);
        compute_h.add(sample.physics_compute);
        balance_h.add(sample.physics_balance);
      }
    }
    const auto summarize = [](const trace::LogHistogram& h) {
      return PhasePercentiles{h.percentile(50.0), h.percentile(95.0),
                              h.percentile(99.0)};
    };
    report.percentiles.filter = summarize(filter_h);
    report.percentiles.halo = summarize(halo_h);
    report.percentiles.fd = summarize(fd_h);
    report.percentiles.physics_compute = summarize(compute_h);
    report.percentiles.physics_balance = summarize(balance_h);
  }

  report.physics_imbalance_before = outcomes.front().imbalance_before;
  report.physics_imbalance_after = outcomes.front().imbalance_after;

  const double m0 = outcomes.front().mass_start;
  const double m1 = outcomes.front().mass_end;
  report.mass_drift_rel = m0 != 0.0 ? std::abs(m1 - m0) / std::abs(m0) : 0.0;
  report.max_zonal_courant = outcomes.front().max_zonal_courant;
  report.max_gravity_courant = outcomes.front().max_gravity_courant;
  report.total_messages = run_result.total_messages;
  report.total_bytes = run_result.total_bytes;
  report.rank_breakdowns = run_result.breakdowns;
  return report;
}

}  // namespace agcm::core
