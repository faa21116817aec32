// Collective load balancing: moves real item payloads between ranks.
//
// balance_pairwise implements the paper's adopted Scheme 3 end-to-end, with
// the communication structure of the original: per iteration, only the
// per-rank *total loads* are exchanged globally (one double each); the
// actual item movement is pairwise between sorted partners. Scheme 1 and 2
// executors live in exchange.hpp (they need global item metadata — which is
// exactly the bookkeeping overhead the paper criticises them for).
//
// Every executor records its forward moves as a hop log: one Hop per
// exchange, holding what this rank shipped to and received from each peer.
// return_to_owners replays the log in reverse, so results travel home along
// the edges the items came by, with counts both sides already know — no
// count or index exchange. Return-trip messages per call:
//
//   Scheme 1 (cyclic)         one payload exchange, as dense as its forward
//                             shuffle: up to N-1 messages per rank.
//   Scheme 2 (sorted greedy)  one payload exchange over its forward edges.
//   Scheme 3 (pairwise)       at most one message per iteration per rank
//                             (the lighter partner of each pair sends).
#pragma once

#include <span>
#include <vector>

#include "comm/communicator.hpp"
#include "loadbalance/schemes.hpp"

namespace agcm::lb {

/// One forward exchange as seen by one rank. Before the hop the rank held
/// some list of items; it shipped the positions in `shipped` and kept the
/// rest in their old order, then appended the received items source by
/// source in rank order.
struct Hop {
  std::vector<int> sent;              ///< [rank] items shipped to that rank
  std::vector<std::size_t> shipped;   ///< pre-hop held positions, grouped
                                      ///< by destination rank, in ship order
  std::vector<int> received;          ///< [rank] items received from it
};

/// Result of a collective balancing operation. The held_* vectors describe
/// the items this rank must now process, in a stable order.
struct BalanceResult {
  std::vector<Item> held_items;
  std::vector<double> held_payloads;  ///< doubles_per_item per held item
  std::vector<Hop> hops;              ///< forward exchanges, in order
  double imbalance_before = 0.0;      ///< (max-avg)/avg of estimated loads
  double imbalance_after = 0.0;
  int iterations = 0;
  std::vector<double> imbalance_history;  ///< [0]=before, [i]=after iter i
};

/// Scheme 3 (iterative sorted pairwise exchange), collective. `my_items`
/// carry the estimated weights; `my_payloads` holds doubles_per_item
/// contiguous doubles per item.
BalanceResult balance_pairwise(const comm::Communicator& comm,
                               std::span<const Item> my_items,
                               std::span<const double> my_payloads,
                               int doubles_per_item,
                               PairwiseOptions options = {});

/// Routes per-item results back to the items' original owners by replaying
/// `held.hops` in reverse. `held` must come from a balancing call over this
/// communicator; `held_results` holds doubles_per_result contiguous doubles
/// per held item, ordered like held_items. Returns my original items'
/// results in original item order. Collective.
std::vector<double> return_to_owners(const comm::Communicator& comm,
                                     const BalanceResult& held,
                                     std::span<const double> held_results,
                                     int doubles_per_result,
                                     int my_item_count);

}  // namespace agcm::lb
