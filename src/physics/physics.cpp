#include "physics/physics.hpp"

#include <cmath>

#include "loadbalance/exchange.hpp"
#include "trace/tracer.hpp"
#include "util/error.hpp"

namespace agcm::physics {

Physics::Physics(const comm::Mesh2D& mesh, const grid::Decomp2D& decomp,
                 const grid::LatLonGrid& grid, const PhysicsConfig& config)
    : mesh_(&mesh), decomp_(&decomp), grid_(&grid), config_(config),
      box_(decomp.box(mesh.coord())) {
  check_config(config.column.nlev == grid.nlev(),
               "physics nlev must match the grid");
  // First pass: no history yet; assume uniform cost.
  const auto ncols =
      static_cast<std::size_t>(box_.ni) * static_cast<std::size_t>(box_.nj);
  prev_cost_.assign(ncols, 1.0);
  // Gather scratch sized once here: the steady-state step reuses it.
  items_.resize(ncols);
  payloads_.resize(ncols * 2 * static_cast<std::size_t>(grid.nlev()));
}

double Physics::run_one_column(std::uint64_t column_id, std::int64_t step,
                               double time_sec, std::span<double> theta,
                               std::span<double> q) const {
  const int nlon = grid_->nlon();
  const auto gi = static_cast<int>(column_id % static_cast<std::uint64_t>(nlon));
  const auto gj = static_cast<int>(column_id / static_cast<std::uint64_t>(nlon));
  const double lat = grid_->lat_center(gj);
  const double lon = grid_->lon_center(gi);
  const ColumnResult result = step_column(config_.column, column_id, step,
                                          lat, lon, time_sec, theta, q);
  return result.flops;
}

PhysicsStepStats Physics::step(dynamics::State& state) {
  auto& clock = mesh_->world().context().clock();
  timings_ = PhysicsTimings{};
  PhysicsStepStats stats;

  const int nlev = grid_->nlev();
  const auto ncols = static_cast<std::size_t>(box_.ni) *
                     static_cast<std::size_t>(box_.nj);
  const int per_item = 2 * nlev;  // theta + q profiles
  const auto nlon = static_cast<std::uint64_t>(grid_->nlon());

  // Gather column payloads and load estimates (previous-pass costs) into
  // the member scratch (sized in the constructor — no per-step allocation).
  std::vector<lb::Item>& items = items_;
  std::vector<double>& payloads = payloads_;
  AGCM_ASSERT(items.size() == ncols);
  AGCM_ASSERT(payloads.size() == ncols * static_cast<std::size_t>(per_item));
  {
    std::size_t c = 0;
    for (int j = 0; j < box_.nj; ++j) {
      for (int i = 0; i < box_.ni; ++i, ++c) {
        const std::uint64_t id =
            static_cast<std::uint64_t>(box_.j0 + j) * nlon +
            static_cast<std::uint64_t>(box_.i0 + i);
        items[c] = {id, prev_cost_[c]};
        double* p = payloads.data() + c * static_cast<std::size_t>(per_item);
        for (int k = 0; k < nlev; ++k) {
          p[k] = state.theta(i, j, k);
          p[nlev + k] = state.q(i, j, k);
        }
      }
    }
    clock.memory_traffic(static_cast<double>(payloads.size()) *
                         sizeof(double));
  }

  simnet::RankContext& ctx = mesh_->world().context();

  if (!config_.load_balance || config_.lb_scheme == lb::Scheme::kNone) {
    // Straight local pass.
    AGCM_TRACE_SPAN("physics.columns", ctx);
    const double t0 = clock.now();
    double local_flops = 0.0;
    std::size_t c = 0;
    for (int j = 0; j < box_.nj; ++j) {
      for (int i = 0; i < box_.ni; ++i, ++c) {
        double* p = payloads.data() + c * static_cast<std::size_t>(per_item);
        const double flops = run_one_column(
            items[c].id, state.step, state.time_sec,
            std::span<double>(p, static_cast<std::size_t>(nlev)),
            std::span<double>(p + nlev, static_cast<std::size_t>(nlev)));
        prev_cost_[c] = flops;
        local_flops += flops;
        for (int k = 0; k < nlev; ++k) {
          state.theta(i, j, k) = p[k];
          state.q(i, j, k) = p[nlev + k];
        }
      }
    }
    clock.compute(local_flops);
    timings_.local_flops = local_flops;
    timings_.compute_sec = clock.now() - t0;
    return stats;
  }

  // --- load-balanced pass (configured scheme) ----------------------------
  // All three executors return the same BalanceResult shape, and
  // return_to_owners below replays its hop log, so everything from the
  // held-column compute on is scheme-agnostic.
  const double t_bal0 = clock.now();
  lb::BalanceResult balanced;
  {
    AGCM_TRACE_SPAN("physics.balance", ctx);
    balanced = lb::balance(mesh_->world(), config_.lb_scheme, items, payloads,
                           per_item, config_.lb_options);
  }
  stats.imbalance_before = balanced.imbalance_before;
  stats.imbalance_after = balanced.imbalance_after;
  stats.lb_iterations = balanced.iterations;
  timings_.balance_sec = clock.now() - t_bal0;

  // Process the held columns; results carry the updated profiles plus the
  // measured cost (which becomes the owner's next estimate).
  const int per_result = per_item + 1;
  std::vector<double> results(balanced.held_items.size() *
                              static_cast<std::size_t>(per_result));
  const double t_comp0 = clock.now();
  double local_flops = 0.0;
  std::vector<double> held_payloads = balanced.held_payloads;
  {
    AGCM_TRACE_SPAN("physics.columns", ctx);
    for (std::size_t c = 0; c < balanced.held_items.size(); ++c) {
      double* p =
          held_payloads.data() + c * static_cast<std::size_t>(per_item);
      const double flops = run_one_column(
          balanced.held_items[c].id, state.step, state.time_sec,
          std::span<double>(p, static_cast<std::size_t>(nlev)),
          std::span<double>(p + nlev, static_cast<std::size_t>(nlev)));
      local_flops += flops;
      double* r = results.data() + c * static_cast<std::size_t>(per_result);
      for (int x = 0; x < per_item; ++x) r[x] = p[x];
      r[per_item] = flops;
    }
    clock.compute(local_flops);
  }
  timings_.local_flops = local_flops;
  timings_.compute_sec = clock.now() - t_comp0;

  // Route results home and write them back.
  const double t_ret0 = clock.now();
  std::vector<double> mine;
  {
    AGCM_TRACE_SPAN("physics.balance", ctx);
    mine = lb::return_to_owners(mesh_->world(), balanced, results, per_result,
                                static_cast<int>(ncols));
  }
  {
    std::size_t c = 0;
    for (int j = 0; j < box_.nj; ++j) {
      for (int i = 0; i < box_.ni; ++i, ++c) {
        const double* r =
            mine.data() + c * static_cast<std::size_t>(per_result);
        for (int k = 0; k < nlev; ++k) {
          state.theta(i, j, k) = r[k];
          state.q(i, j, k) = r[nlev + k];
        }
        prev_cost_[c] = r[per_item];
      }
    }
    clock.memory_traffic(static_cast<double>(mine.size()) * sizeof(double));
  }
  timings_.balance_sec += clock.now() - t_ret0;
  return stats;
}

}  // namespace agcm::physics
