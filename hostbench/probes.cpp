#include "probes.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "comm/communicator.hpp"
#include "comm/mesh2d.hpp"
#include "grid/halo.hpp"
#include "loadbalance/exchange.hpp"
#include "loadbalance/planner.hpp"
#include "simnet/machine.hpp"
#include "timing.hpp"
#include "util/shared_cache.hpp"

namespace agcm::hostbench {

namespace {

simnet::Machine make_machine(const core::ModelConfig& config) {
  simnet::Machine machine(config.machine);
  machine.set_recv_timeout_ms(config.recv_timeout_ms);
  machine.set_backend(config.simnet_backend);
  machine.set_workers(config.simnet_workers);
  return machine;
}

// The two component configs exactly as core::run_model fills them.
dynamics::DynamicsConfig dynamics_config(const core::ModelConfig& config) {
  dynamics::DynamicsConfig dyn;
  dyn.dt_sec = config.dt_sec;
  dyn.time_scheme = config.time_scheme;
  dyn.use_polar_filter = config.use_polar_filter;
  dyn.filter_algorithm = config.filter_algorithm;
  dyn.optimized_advection = config.optimized_advection;
  return dyn;
}

physics::PhysicsConfig physics_config(const core::ModelConfig& config) {
  physics::PhysicsConfig phys;
  phys.column.nlev = config.nlev;
  phys.column.dt_sec = config.dt_sec;
  phys.column.seed = config.seed;
  phys.column.solar_declination_rad =
      physics::regime_declination_rad(config.physics_regime);
  phys.load_balance = config.physics_load_balance;
  phys.lb_scheme = config.lb_scheme;
  phys.lb_options = config.lb_options;
  return phys;
}

/// One rank's model, built in run_model's order.
struct RankModel {
  RankModel(simnet::RankContext& ctx, const core::ModelConfig& config)
      : world(ctx),
        mesh(world, config.mesh_rows, config.mesh_cols),
        grid(config.nlon, config.nlat, config.nlev),
        decomp(config.nlon, config.nlat, config.mesh_rows, config.mesh_cols),
        dyn(mesh, decomp, grid, dynamics_config(config)),
        phys(mesh, decomp, grid, physics_config(config)),
        state(decomp.box(mesh.coord()), config.nlev) {
    dynamics::initialize_state(state, grid, decomp.box(mesh.coord()),
                               config.seed);
  }

  comm::Communicator world;
  comm::Mesh2D mesh;
  const grid::LatLonGrid grid;
  const grid::Decomp2D decomp;
  dynamics::Dynamics dyn;
  physics::Physics phys;
  dynamics::State state;
};

/// Rank 0's timeline: every rank passes a barrier, then rank 0 stamps.
class Timeline {
 public:
  void mark(const comm::Communicator& world, const char* phase) {
    world.barrier();
    stamp(world, phase);
  }
  /// A stamp without a barrier (only where the program has its own).
  void stamp(const comm::Communicator& world, const char* phase) {
    if (world.rank() == 0) stamps_.push_back({phase, now_s()});
  }
  /// Median sample of a phase; throws if the phase never ran.
  double median_of(const std::string& phase) const {
    return median(phase_samples(stamps_).at(phase));
  }
  std::map<std::string, std::vector<double>> samples() const {
    return phase_samples(stamps_);
  }

 private:
  std::vector<Stamp> stamps_;
};

/// Balancing must never worsen the imbalance, and must reduce it whenever
/// it starts above the tolerance below which Scheme 3 leaves a pair alone.
bool balance_improved(const core::ModelConfig& config, double before,
                      double after) {
  return before > config.lb_options.tolerance ? after < before
                                              : after <= before;
}

std::string num(double v) { return trace::JsonValue::number_repr(v); }

bool same(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Per-rank inputs of the load-balance probe, taken from a warm model.
struct LbInput {
  std::vector<lb::Item> items;
  std::vector<double> payloads;
};

lb::BalanceResult balance(const comm::Communicator& world,
                          const core::ModelConfig& config, const LbInput& in,
                          int per_item) {
  switch (config.lb_scheme) {
    case lb::Scheme::kCyclic:
      return lb::balance_cyclic(world, in.items, in.payloads, per_item);
    case lb::Scheme::kSortedGreedy:
      return lb::balance_sorted_greedy(world, in.items, in.payloads, per_item);
    case lb::Scheme::kNone:  // the model runs none; probe the adopted Scheme 3
    case lb::Scheme::kPairwise:
      break;
  }
  return lb::balance_pairwise(world, in.items, in.payloads, per_item,
                              config.lb_options);
}

/// Dynamics, physics, halo and filter probes on one warm model; returns
/// the load-balance inputs each rank ends with.
std::vector<LbInput> probe_model(const core::ModelConfig& config,
                                 Result& out) {
  const int nranks = config.nranks();
  const int reps = nranks >= 64 ? 3 : 8;
  std::vector<LbInput> lb_inputs(static_cast<std::size_t>(nranks));
  Timeline timeline;
  util::SharedCaches::clear_all();  // constructors run cold, as in setup_s
  make_machine(config).run(nranks, [&](simnet::RankContext& ctx) {
    comm::Communicator world(ctx);
    timeline.mark(world, "origin");
    comm::Mesh2D mesh(world, config.mesh_rows, config.mesh_cols);
    const grid::LatLonGrid grid(config.nlon, config.nlat, config.nlev);
    const grid::Decomp2D decomp(config.nlon, config.nlat, config.mesh_rows,
                                config.mesh_cols);
    timeline.mark(world, "mesh");
    dynamics::Dynamics dyn(mesh, decomp, grid, dynamics_config(config));
    timeline.mark(world, "dynamics.ctor");
    physics::Physics phys(mesh, decomp, grid, physics_config(config));
    timeline.mark(world, "physics.ctor");
    const grid::LocalBox box = decomp.box(mesh.coord());
    dynamics::State state(box, config.nlev);
    dynamics::initialize_state(state, grid, box, config.seed);
    // One full step so the caches are warm and the cost estimates real.
    dyn.step(state);
    world.barrier();
    phys.step(state);
    timeline.mark(world, "warm");

    grid::Array3D<double>* halo_fields[] = {&state.h, &state.u, &state.v,
                                            &state.theta, &state.q};
    for (int r = 0; r < reps; ++r) {
      grid::exchange_halos(mesh, halo_fields);
      timeline.mark(world, "grid.halo");
    }
    grid::Array3D<double>* filter_fields[] = {&state.u, &state.v, &state.h,
                                              &state.theta, &state.q};
    for (int r = 0; r < reps; ++r) {
      if (dyn.polar_filter()) dyn.polar_filter()->apply(filter_fields);
      timeline.mark(world, "filter.apply");
    }
    for (int r = 0; r < reps; ++r) {
      dyn.step(state);
      timeline.mark(world, "dynamics.step");
    }
    for (int r = 0; r < reps; ++r) {
      phys.step(state);
      timeline.mark(world, "physics.step");
    }

    // The physics gather: one item per column, weighted by the previous
    // pass's cost, carrying its theta and q profiles.
    LbInput& in = lb_inputs[static_cast<std::size_t>(world.rank())];
    const std::span<const double> cost = phys.column_cost_estimates();
    std::size_t c = 0;
    for (int j = 0; j < box.nj; ++j) {
      for (int i = 0; i < box.ni; ++i, ++c) {
        const auto id = static_cast<std::uint64_t>(box.j0 + j) *
                            static_cast<std::uint64_t>(config.nlon) +
                        static_cast<std::uint64_t>(box.i0 + i);
        in.items.push_back({id, cost[c]});
        for (int k = 0; k < config.nlev; ++k)
          in.payloads.push_back(state.theta(i, j, k));
        for (int k = 0; k < config.nlev; ++k)
          in.payloads.push_back(state.q(i, j, k));
      }
    }
  });
  out.add("dynamics.ctor_s", timeline.median_of("dynamics.ctor"), "s");
  out.add("physics.ctor_s", timeline.median_of("physics.ctor"), "s");
  out.add("grid.halo_s", timeline.median_of("grid.halo"), "s");
  out.add("filter.apply_s", timeline.median_of("filter.apply"), "s");
  out.add("dynamics.step_s", timeline.median_of("dynamics.step"), "s");
  out.add("physics.step_s", timeline.median_of("physics.step"), "s");
  return lb_inputs;
}

/// Traffic of a machine that only constructs a world communicator and
/// passes `barriers` barriers: the baseline the load-balance message count
/// is taken against.
simnet::RunResult barrier_only(const core::ModelConfig& config,
                               int barriers) {
  return make_machine(config).run(
      config.nranks(), [&](simnet::RankContext& ctx) {
        comm::Communicator world(ctx);
        for (int b = 0; b < barriers; ++b) world.barrier();
      });
}

void probe_loadbalance(const core::ModelConfig& config,
                       const std::vector<LbInput>& inputs, Result& out) {
  const int nranks = config.nranks();
  const int reps = nranks >= 64 ? 3 : 16;
  const int per_item = 2 * config.nlev;
  Timeline timeline;
  double before = 0.0;
  double after = 0.0;
  std::vector<char> round_trip_ok(static_cast<std::size_t>(nranks), 1);
  const simnet::RunResult run =
      make_machine(config).run(nranks, [&](simnet::RankContext& ctx) {
        comm::Communicator world(ctx);
        const LbInput& in = inputs[static_cast<std::size_t>(world.rank())];
        timeline.mark(world, "origin");
        for (int r = 0; r < reps; ++r) {
          const lb::BalanceResult held = balance(world, config, in, per_item);
          const std::vector<double> home = lb::return_to_owners(
              world, held, held.held_payloads, per_item,
              static_cast<int>(in.items.size()));
          timeline.mark(world, "loadbalance");
          if (home != in.payloads)
            round_trip_ok[static_cast<std::size_t>(world.rank())] = 0;
          if (world.rank() == 0) {
            before = held.imbalance_before;
            after = held.imbalance_after;
          }
        }
      });
  const simnet::RunResult base = barrier_only(config, reps + 1);
  const std::uint64_t msgs = run.total_messages - base.total_messages;
  out.add("loadbalance.balance_s", timeline.median_of("loadbalance"), "s");
  out.add("loadbalance.msgs_per_call",
          static_cast<double>(msgs) / static_cast<double>(reps), "count");
  out.add("loadbalance.imbalance_after", after, "ratio");
  if (std::count(round_trip_ok.begin(), round_trip_ok.end(), 0) > 0)
    out.fail("loadbalance: return_to_owners did not return every payload");
  if (!balance_improved(config, before, after))
    out.fail("loadbalance probe: imbalance after " + num(after) +
             " not below before " + num(before));
}

void probe_simnet(const core::ModelConfig& config, Result& out) {
  const int nranks = config.nranks();
  std::vector<double> spawn;
  for (int r = 0; r < 5; ++r) {
    spawn.push_back(time_s([&] {
      make_machine(config).run(nranks, [](simnet::RankContext&) {});
    }));
  }
  out.add("simnet.spawn_s", median(spawn), "s");

  // Token ring of 8-byte messages: every hop is one send, one park and one
  // unpark on the host.
  const int laps = std::max(1, 20000 / nranks);
  std::vector<double> per_msg;
  for (int r = 0; r < 3; ++r) {
    double t0 = 0.0;
    double t1 = 0.0;
    make_machine(config).run(nranks, [&](simnet::RankContext& ctx) {
      const std::byte token[8] = {};
      const int me = ctx.rank();
      const int next = (me + 1) % nranks;
      const int prev = (me + nranks - 1) % nranks;
      constexpr std::int64_t kTag = 7;
      if (me == 0) {
        t0 = now_s();
        for (int lap = 0; lap < laps; ++lap) {
          ctx.send_bytes(next, kTag, token);
          (void)ctx.recv_bytes(prev, kTag);
        }
        t1 = now_s();
      } else {
        for (int lap = 0; lap < laps; ++lap) {
          (void)ctx.recv_bytes(prev, kTag);
          ctx.send_bytes(next, kTag, token);
        }
      }
    });
    per_msg.push_back((t1 - t0) / (static_cast<double>(laps) * nranks));
  }
  out.add("simnet.ring_us_per_msg", median(per_msg) * 1e6, "us");
}

void probe_comm(const core::ModelConfig& config, Result& out) {
  const int nranks = config.nranks();
  const int reps = nranks >= 64 ? 5 : 50;
  Timeline timeline;
  std::vector<char> ok(static_cast<std::size_t>(nranks), 1);
  make_machine(config).run(nranks, [&](simnet::RankContext& ctx) {
    comm::Communicator world(ctx);
    const auto me = static_cast<std::size_t>(world.rank());
    // The load balancer's count exchange: one int per rank pair.
    const std::vector<int> ones(static_cast<std::size_t>(nranks), 1);
    const std::vector<int> send(static_cast<std::size_t>(nranks), world.rank());
    timeline.mark(world, "origin");
    for (int r = 0; r < reps; ++r) {
      const std::vector<int> got =
          world.alltoallv<int>(send, ones, ones);
      timeline.mark(world, "alltoallv");
      for (int src = 0; src < nranks; ++src)
        if (got[static_cast<std::size_t>(src)] != src) ok[me] = 0;
    }
    const double load = static_cast<double>(world.rank());
    for (int r = 0; r < reps; ++r) {
      const std::vector<double> loads =
          world.allgather<double>(std::span<const double>(&load, 1));
      timeline.mark(world, "allgather");
      if (loads.size() != static_cast<std::size_t>(nranks)) ok[me] = 0;
    }
    for (int r = 0; r < reps; ++r) timeline.mark(world, "barrier");
  });
  out.add("comm.alltoallv_s", timeline.median_of("alltoallv"), "s");
  out.add("comm.allgather_s", timeline.median_of("allgather"), "s");
  out.add("comm.barrier_s", timeline.median_of("barrier"), "s");
  if (std::count(ok.begin(), ok.end(), 0) > 0)
    out.fail("comm probe: a collective delivered wrong data");
}

}  // namespace

SetupRun run_setup(const core::ModelConfig& config, bool with_diagnostics) {
  SetupRun setup;
  const double t0 = now_s();
  setup.result =
      make_machine(config).run(config.nranks(), [&](simnet::RankContext& ctx) {
        RankModel model(ctx, config);
        if (!with_diagnostics) return;
        (void)model.dyn.total_mass(model.state);
        (void)model.dyn.total_mass(model.state);
        (void)model.dyn.max_zonal_courant(model.state);
        (void)model.dyn.max_gravity_courant(model.state);
      });
  setup.wall_s = now_s() - t0;
  return setup;
}

MirrorRun run_mirror(const core::ModelConfig& config, int steps,
                     int warmup_steps) {
  struct RankOutcome {
    core::ComponentTimes accumulated;
    double imbalance_before = 0.0;
    double imbalance_after = 0.0;
    double mass_start = 0.0;
    double mass_end = 0.0;
    double max_zonal_courant = 0.0;
    double max_gravity_courant = 0.0;
  };
  const int nranks = config.nranks();
  std::vector<RankOutcome> outcomes(static_cast<std::size_t>(nranks));
  Timeline timeline;
  MirrorRun mirror;
  const double t0 = now_s();
  const simnet::RunResult run =
      make_machine(config).run(nranks, [&](simnet::RankContext& ctx) {
        RankModel m(ctx, config);
        RankOutcome& out = outcomes[static_cast<std::size_t>(m.world.rank())];
        out.mass_start = m.dyn.total_mass(m.state);
        timeline.stamp(m.world, "origin");
        physics::PhysicsStepStats phys_stats;
        for (int s = 0; s < warmup_steps + steps; ++s) {
          const bool timed = s >= warmup_steps;
          m.dyn.step(m.state);
          m.world.barrier();
          timeline.stamp(m.world, timed ? "dynamics" : "warmup");
          const dynamics::DynamicsTimings dyn_t = m.dyn.last_timings();
          double phys_compute = 0.0;
          double phys_balance = 0.0;
          if (config.physics_enabled) {
            phys_stats = m.phys.step(m.state);
            m.world.barrier();
            timeline.stamp(m.world, timed ? "physics" : "warmup");
            phys_compute = m.phys.last_timings().compute_sec;
            phys_balance = m.phys.last_timings().balance_sec;
          }
          if (timed) {
            out.accumulated.filter += dyn_t.filter_sec;
            out.accumulated.halo += dyn_t.halo_sec;
            out.accumulated.fd += dyn_t.fd_sec;
            out.accumulated.physics_compute += phys_compute;
            out.accumulated.physics_balance += phys_balance;
            out.imbalance_before = phys_stats.imbalance_before;
            out.imbalance_after = phys_stats.imbalance_after;
          }
        }
        out.mass_end = m.dyn.total_mass(m.state);
        out.max_zonal_courant = m.dyn.max_zonal_courant(m.state);
        out.max_gravity_courant = m.dyn.max_gravity_courant(m.state);
      });
  mirror.wall_s = now_s() - t0;

  // The reduction core::run_model applies, in the same order.
  core::RunReport& report = mirror.report;
  report.steps = steps;
  report.steps_per_day = config.steps_per_day();
  const double inv = 1.0 / steps;
  for (const RankOutcome& out : outcomes) {
    core::ComponentTimes& p = report.per_step;
    p.filter = std::max(p.filter, out.accumulated.filter * inv);
    p.halo = std::max(p.halo, out.accumulated.halo * inv);
    p.fd = std::max(p.fd, out.accumulated.fd * inv);
    p.physics_compute =
        std::max(p.physics_compute, out.accumulated.physics_compute * inv);
    p.physics_balance =
        std::max(p.physics_balance, out.accumulated.physics_balance * inv);
  }
  const RankOutcome& first = outcomes.front();
  report.physics_imbalance_before = first.imbalance_before;
  report.physics_imbalance_after = first.imbalance_after;
  report.mass_drift_rel = first.mass_start != 0.0
                              ? std::abs(first.mass_end - first.mass_start) /
                                    std::abs(first.mass_start)
                              : 0.0;
  report.max_zonal_courant = first.max_zonal_courant;
  report.max_gravity_courant = first.max_gravity_courant;
  report.total_messages = run.total_messages;
  report.total_bytes = run.total_bytes;
  report.rank_breakdowns = run.breakdowns;

  const auto samples = timeline.samples();
  mirror.dynamics_s = sum(samples.at("dynamics")) / steps;
  mirror.physics_s =
      samples.count("physics") ? sum(samples.at("physics")) / steps : 0.0;
  return mirror;
}

std::vector<std::string> report_mismatches(const core::RunReport& a,
                                           const core::RunReport& b) {
  std::vector<std::string> diffs;
  const auto check = [&](const char* what, double x, double y) {
    if (!same(x, y)) {
      diffs.push_back(std::string(what) + ": " + num(x) + " vs " + num(y));
    }
  };
  if (a.steps != b.steps) diffs.push_back("steps differ");
  check("virtual.filter", a.per_step.filter, b.per_step.filter);
  check("virtual.halo", a.per_step.halo, b.per_step.halo);
  check("virtual.fd", a.per_step.fd, b.per_step.fd);
  check("virtual.physics_compute", a.per_step.physics_compute,
        b.per_step.physics_compute);
  check("virtual.physics_balance", a.per_step.physics_balance,
        b.per_step.physics_balance);
  check("imbalance_before", a.physics_imbalance_before,
        b.physics_imbalance_before);
  check("imbalance_after", a.physics_imbalance_after,
        b.physics_imbalance_after);
  check("mass_drift_rel", a.mass_drift_rel, b.mass_drift_rel);
  check("max_zonal_courant", a.max_zonal_courant, b.max_zonal_courant);
  check("max_gravity_courant", a.max_gravity_courant, b.max_gravity_courant);
  if (a.total_messages != b.total_messages)
    diffs.push_back("total_messages: " + std::to_string(a.total_messages) +
                    " vs " + std::to_string(b.total_messages));
  if (a.total_bytes != b.total_bytes)
    diffs.push_back("total_bytes: " + std::to_string(a.total_bytes) + " vs " +
                    std::to_string(b.total_bytes));
  if (a.rank_breakdowns.size() != b.rank_breakdowns.size()) {
    diffs.push_back("rank_breakdowns: sizes differ");
  } else {
    for (std::size_t r = 0; r < a.rank_breakdowns.size(); ++r) {
      const simnet::TimeBreakdown& x = a.rank_breakdowns[r];
      const simnet::TimeBreakdown& y = b.rank_breakdowns[r];
      if (!same(x.compute, y.compute) || !same(x.overhead, y.overhead) ||
          !same(x.wait, y.wait)) {
        diffs.push_back("rank_breakdowns[" + std::to_string(r) + "] differ");
        break;
      }
    }
  }
  return diffs;
}

std::vector<std::string> report_violations(const core::ModelConfig& config,
                                           const core::RunReport& report) {
  std::vector<std::string> bad;
  if (!(report.mass_drift_rel < 1e-12))
    bad.push_back("relative mass drift " + num(report.mass_drift_rel) +
                  " is not below 1e-12");
  if (config.physics_enabled && config.physics_load_balance &&
      !balance_improved(config, report.physics_imbalance_before,
                        report.physics_imbalance_after))
    bad.push_back("load balancing left imbalance " +
                  num(report.physics_imbalance_after) + " (before " +
                  num(report.physics_imbalance_before) + ")");
  return bad;
}

void probe_layers(const core::ModelConfig& config, Result& out) {
  probe_simnet(config, out);
  probe_comm(config, out);
  const std::vector<LbInput> lb_inputs = probe_model(config, out);
  probe_loadbalance(config, lb_inputs, out);
}

}  // namespace agcm::hostbench
