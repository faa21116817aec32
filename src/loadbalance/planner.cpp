#include "loadbalance/planner.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "trace/metrics.hpp"
#include "trace/tracer.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace agcm::lb {

namespace {

constexpr int kTagItems = 410;
constexpr int kTagPayloads = 412;

/// Greedy heaviest-first pick of held items approximating `target` weight
/// (same policy as the pure planner in schemes.cpp).
std::vector<std::size_t> pick_held(const std::vector<Item>& held,
                                   double target) {
  std::vector<std::size_t> order(held.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return held[a].weight != held[b].weight ? held[a].weight > held[b].weight
                                            : a < b;
  });
  std::vector<std::size_t> picked;
  double shipped = 0.0;
  for (std::size_t q : order) {
    const double w = held[q].weight;
    if (shipped + w <= target) {
      picked.push_back(q);
      shipped += w;
    } else if (shipped + w - target < target - shipped) {
      picked.push_back(q);
      break;
    }
  }
  return picked;
}

/// Drops the held items at the `shipped` positions, keeping the rest in
/// their old order.
void drop_shipped(BalanceResult& held, std::span<const std::size_t> shipped,
                  int doubles_per_item) {
  const auto d = static_cast<std::size_t>(doubles_per_item);
  std::vector<char> gone(held.held_items.size(), 0);
  for (std::size_t q : shipped) gone[q] = 1;
  std::size_t kept = 0;
  for (std::size_t q = 0; q < gone.size(); ++q) {
    if (gone[q]) continue;
    if (kept != q) {
      held.held_items[kept] = held.held_items[q];
      std::copy_n(held.held_payloads.data() + q * d, d,
                  held.held_payloads.data() + kept * d);
    }
    ++kept;
  }
  held.held_items.resize(kept);
  held.held_payloads.resize(kept * d);
}

}  // namespace

BalanceResult balance_pairwise(const comm::Communicator& comm,
                               std::span<const Item> my_items,
                               std::span<const double> my_payloads,
                               int doubles_per_item,
                               PairwiseOptions options) {
  const int p = comm.size();
  const int me = comm.rank();
  const auto d = static_cast<std::size_t>(doubles_per_item);
  AGCM_ASSERT(my_payloads.size() == my_items.size() * d);

  BalanceResult result;
  result.held_items.assign(my_items.begin(), my_items.end());
  result.held_payloads.assign(my_payloads.begin(), my_payloads.end());

  const std::vector<int> ones(static_cast<std::size_t>(p), 1);

  for (int iter = 0; iter <= options.max_iterations; ++iter) {
    // Exchange only the total loads (one double per rank) — the cheap part
    // of Scheme 3.
    double my_load = 0.0;
    for (const Item& item : result.held_items) my_load += item.weight;
    const std::vector<double> loads = comm.allgatherv<double>(
        std::span<const double>(&my_load, 1), ones);

    const double imbalance = load_imbalance(loads);
    result.imbalance_history.push_back(imbalance);
    if (iter == 0) result.imbalance_before = imbalance;
    result.imbalance_after = imbalance;
    if (trace::enabled()) {
      // Per-iteration imbalance, visible as a counter track in the Chrome
      // trace and as a gauge/distribution in the metrics registry.
      trace::Tracer::instance().counter(me, "lb.imbalance",
                                        comm.now(), imbalance);
      trace::MetricsRegistry::instance().set_gauge("lb.imbalance", me,
                                                   imbalance);
      trace::MetricsRegistry::instance().observe("lb.imbalance", imbalance);
    }
    if (iter == options.max_iterations) break;
    if (imbalance <= options.tolerance) break;

    // Sort ranks by load (descending); pair position i with position
    // p-1-i. Deterministic, computed identically everywhere.
    std::vector<int> order(static_cast<std::size_t>(p));
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      const double la = loads[static_cast<std::size_t>(a)];
      const double lb = loads[static_cast<std::size_t>(b)];
      return la != lb ? la > lb : a < b;
    });
    comm.charge_flops(static_cast<double>(p) *
                      std::log2(std::max(2.0, static_cast<double>(p))));

    int my_pos = -1;
    for (int i = 0; i < p; ++i)
      if (order[static_cast<std::size_t>(i)] == me) my_pos = i;
    AGCM_ASSERT(my_pos >= 0);
    const int partner_pos = p - 1 - my_pos;
    if (partner_pos == my_pos) {
      result.iterations = iter + 1;
      continue;  // odd rank count: the median rank sits out
    }
    const int partner = order[static_cast<std::size_t>(partner_pos)];
    const auto up = static_cast<std::size_t>(partner);
    const double gap = std::abs(loads[static_cast<std::size_t>(me)] -
                                loads[up]);
    const double heavier = std::max(loads[static_cast<std::size_t>(me)],
                                    loads[up]);
    const bool exchange_needed =
        gap > options.tolerance * std::max(1.0e-300, heavier);

    Hop hop;
    hop.sent.assign(static_cast<std::size_t>(p), 0);
    hop.received.assign(static_cast<std::size_t>(p), 0);
    if (my_pos < partner_pos) {
      // I am the heavier side: pick and ship.
      if (exchange_needed)
        hop.shipped = pick_held(result.held_items, gap / 2.0);
      std::vector<Item> ship_items;
      std::vector<double> ship_payloads;
      for (std::size_t q : hop.shipped) {
        ship_items.push_back(result.held_items[q]);
        ship_payloads.insert(ship_payloads.end(),
                             result.held_payloads.data() + q * d,
                             result.held_payloads.data() + (q + 1) * d);
      }
      if (trace::enabled() && !hop.shipped.empty()) {
        trace::MetricsRegistry::instance().add(
            "lb.items_moved", me, static_cast<double>(hop.shipped.size()));
      }
      comm.send<Item>(partner, kTagItems, ship_items);
      comm.send<double>(partner, kTagPayloads, ship_payloads);
      drop_shipped(result, hop.shipped, doubles_per_item);
      hop.sent[up] = static_cast<int>(hop.shipped.size());
    } else {
      // I am the lighter side: receive (possibly empty) shipments.
      const auto items = comm.recv_any_size<Item>(partner, kTagItems);
      const auto payloads = comm.recv_any_size<double>(partner, kTagPayloads);
      AGCM_ASSERT(payloads.size() == items.size() * d);
      result.held_items.insert(result.held_items.end(), items.begin(),
                               items.end());
      result.held_payloads.insert(result.held_payloads.end(),
                                  payloads.begin(), payloads.end());
      hop.received[up] = static_cast<int>(items.size());
    }
    // A pair that moved nothing needs no return trip.
    if (hop.sent[up] > 0 || hop.received[up] > 0)
      result.hops.push_back(std::move(hop));
    result.iterations = iter + 1;
  }
  return result;
}

std::vector<double> return_to_owners(const comm::Communicator& comm,
                                     const BalanceResult& held,
                                     std::span<const double> held_results,
                                     int doubles_per_result,
                                     int my_item_count) {
  const auto p = static_cast<std::size_t>(comm.size());
  const auto d = static_cast<std::size_t>(doubles_per_result);
  AGCM_ASSERT(held_results.size() == held.held_items.size() * d);

  std::vector<double> results(held_results.begin(), held_results.end());
  std::vector<int> send_counts(p);
  std::vector<int> recv_counts(p);
  for (auto hop = held.hops.rbegin(); hop != held.hops.rend(); ++hop) {
    // The items this hop received sit at the tail, source by source: send
    // their results back, and take back the results of the items it
    // shipped. Both sides know every count from the forward hop.
    std::size_t received = 0;
    for (std::size_t r = 0; r < p; ++r) {
      send_counts[r] = hop->received[r] * doubles_per_result;
      recv_counts[r] = hop->sent[r] * doubles_per_result;
      received += static_cast<std::size_t>(hop->received[r]);
    }
    const std::size_t kept = results.size() / d - received;
    const std::vector<double> back = comm.alltoallv<double>(
        std::span<const double>(results).subspan(kept * d), send_counts,
        recv_counts);

    // Rebuild the pre-hop order: returned results at the shipped
    // positions, kept results in the remaining ones, in order.
    const std::size_t n = kept + hop->shipped.size();
    std::vector<double> before(n * d);
    std::vector<char> shipped(n, 0);
    for (std::size_t s = 0; s < hop->shipped.size(); ++s) {
      const std::size_t q = hop->shipped[s];
      shipped[q] = 1;
      std::copy_n(back.data() + s * d, d, before.data() + q * d);
    }
    std::size_t k = 0;
    for (std::size_t q = 0; q < n; ++q) {
      if (shipped[q]) continue;
      std::copy_n(results.data() + k * d, d, before.data() + q * d);
      ++k;
    }
    results = std::move(before);
  }
  AGCM_ASSERT(results.size() == static_cast<std::size_t>(my_item_count) * d);
  return results;
}

}  // namespace agcm::lb
