#include "loadbalance/exchange.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/stats.hpp"

namespace agcm::lb {

BalanceResult execute_migration(const comm::Communicator& comm,
                                std::span<const Item> my_items,
                                std::span<const double> my_payloads,
                                int doubles_per_item,
                                std::span<const int> my_dest) {
  const int p = comm.size();
  const int me = comm.rank();
  AGCM_ASSERT(my_dest.size() == my_items.size());
  AGCM_ASSERT(my_payloads.size() ==
              my_items.size() * static_cast<std::size_t>(doubles_per_item));

  BalanceResult result;
  const std::vector<int> ones(static_cast<std::size_t>(p), 1);

  // Pre-balance loads for the statistics.
  {
    double my_load = 0.0;
    for (const Item& item : my_items) my_load += item.weight;
    const auto loads = comm.allgatherv<double>(
        std::span<const double>(&my_load, 1), ones);
    result.imbalance_before = load_imbalance(loads);
    result.imbalance_history.push_back(result.imbalance_before);
  }

  // Keep my items that stay. The hop log entry doubles as the send plan:
  // per-destination counts, and the shipped positions grouped by
  // destination in rank order.
  const auto up = static_cast<std::size_t>(p);
  const auto dpi = static_cast<std::size_t>(doubles_per_item);
  Hop hop;
  hop.sent.assign(up, 0);
  for (std::size_t q = 0; q < my_items.size(); ++q) {
    const int d = my_dest[q];
    AGCM_ASSERT(d >= 0 && d < p);
    if (d == me) {
      result.held_items.push_back(my_items[q]);
      const auto off = q * static_cast<std::size_t>(doubles_per_item);
      result.held_payloads.insert(
          result.held_payloads.end(),
          my_payloads.begin() + static_cast<std::ptrdiff_t>(off),
          my_payloads.begin() +
              static_cast<std::ptrdiff_t>(
                  off + static_cast<std::size_t>(doubles_per_item)));
    } else {
      ++hop.sent[static_cast<std::size_t>(d)];
      hop.shipped.push_back(q);
    }
  }
  std::stable_sort(
      hop.shipped.begin(), hop.shipped.end(),
      [&](std::size_t a, std::size_t b) { return my_dest[a] < my_dest[b]; });
  std::vector<std::size_t> send_off(up + 1, 0);
  for (std::size_t r = 0; r < up; ++r)
    send_off[r + 1] = send_off[r] + static_cast<std::size_t>(hop.sent[r]);
  std::vector<Item> send_items;
  send_items.reserve(hop.shipped.size());
  for (std::size_t q : hop.shipped) send_items.push_back(my_items[q]);

  // Exchange per-pair item counts, then the items and payloads.
  hop.received = comm.alltoallv<int>(hop.sent, ones, ones);
  const auto items =
      comm.alltoallv<Item>(send_items, hop.sent, hop.received);
  result.held_items.insert(result.held_items.end(), items.begin(), items.end());

  // Payloads go over the pooled zero-copy engine: each destination's item
  // payloads are gathered straight from `my_payloads` into the wire buffer
  // (no send staging vector) and received blocks land directly in their
  // final held_payloads position.
  std::vector<std::size_t> send_bytes(up);
  std::vector<std::size_t> recv_bytes(up);
  std::vector<std::size_t> recv_off(up + 1, 0);
  for (std::size_t r = 0; r < up; ++r) {
    send_bytes[r] =
        static_cast<std::size_t>(hop.sent[r]) * dpi * sizeof(double);
    recv_bytes[r] =
        static_cast<std::size_t>(hop.received[r]) * dpi * sizeof(double);
    recv_off[r + 1] = recv_off[r] + recv_bytes[r] / sizeof(double);
  }
  const std::size_t kept_doubles = result.held_payloads.size();
  result.held_payloads.resize(kept_doubles + recv_off.back());
  comm.alltoallv_packed(
      send_bytes, recv_bytes,
      [&](int dst, comm::PackedWriter& w) {
        const auto ud = static_cast<std::size_t>(dst);
        for (std::size_t s = send_off[ud]; s < send_off[ud + 1]; ++s)
          w.write<double>(my_payloads.subspan(hop.shipped[s] * dpi, dpi));
      },
      [&](int src, comm::PackedReader& rd) {
        const auto us = static_cast<std::size_t>(src);
        rd.read<double>(std::span<double>(result.held_payloads)
                            .subspan(kept_doubles + recv_off[us],
                                     recv_bytes[us] / sizeof(double)));
      });
  result.hops.push_back(std::move(hop));

  {
    double my_load = 0.0;
    for (const Item& item : result.held_items) my_load += item.weight;
    const auto loads = comm.allgatherv<double>(
        std::span<const double>(&my_load, 1), ones);
    result.imbalance_after = load_imbalance(loads);
    result.imbalance_history.push_back(result.imbalance_after);
  }
  result.iterations = 1;
  return result;
}

BalanceResult balance_cyclic(const comm::Communicator& comm,
                             std::span<const Item> my_items,
                             std::span<const double> my_payloads,
                             int doubles_per_item) {
  const int p = comm.size();
  std::vector<int> dest(my_items.size());
  for (std::size_t q = 0; q < my_items.size(); ++q)
    dest[q] = static_cast<int>(
        (static_cast<std::size_t>(comm.rank()) + q) % static_cast<std::size_t>(p));
  return execute_migration(comm, my_items, my_payloads, doubles_per_item,
                           dest);
}

BalanceResult balance_sorted_greedy(const comm::Communicator& comm,
                                    std::span<const Item> my_items,
                                    std::span<const double> my_payloads,
                                    int doubles_per_item) {
  const int p = comm.size();
  // Global item metadata on every rank — Scheme 2's overhead.
  const int my_count = static_cast<int>(my_items.size());
  const std::vector<int> ones(static_cast<std::size_t>(p), 1);
  const std::vector<int> counts = comm.allgatherv<int>(
      std::span<const int>(&my_count, 1), ones);
  const std::vector<Item> all_items = comm.allgatherv<Item>(my_items, counts);

  ItemLists lists(static_cast<std::size_t>(p));
  std::size_t pos = 0;
  for (int r = 0; r < p; ++r) {
    const auto n = static_cast<std::size_t>(counts[static_cast<std::size_t>(r)]);
    lists[static_cast<std::size_t>(r)].assign(
        all_items.begin() + static_cast<std::ptrdiff_t>(pos),
        all_items.begin() + static_cast<std::ptrdiff_t>(pos + n));
    pos += n;
  }
  const DestLists dest = plan_sorted_greedy(lists);
  // Bookkeeping cost: the whole plan is recomputed on every node.
  comm.charge_flops(30.0 * static_cast<double>(all_items.size()));
  return execute_migration(comm, my_items, my_payloads, doubles_per_item,
                           dest[static_cast<std::size_t>(comm.rank())]);
}

BalanceResult balance(const comm::Communicator& comm, Scheme scheme,
                      std::span<const Item> my_items,
                      std::span<const double> my_payloads,
                      int doubles_per_item, const PairwiseOptions& options) {
  switch (scheme) {
    case Scheme::kCyclic:
      return balance_cyclic(comm, my_items, my_payloads, doubles_per_item);
    case Scheme::kSortedGreedy:
      return balance_sorted_greedy(comm, my_items, my_payloads,
                                   doubles_per_item);
    case Scheme::kPairwise:
      return balance_pairwise(comm, my_items, my_payloads, doubles_per_item,
                              options);
    case Scheme::kNone:
      break;
  }
  AGCM_ASSERT(scheme != Scheme::kNone);
  return {};
}

}  // namespace agcm::lb
