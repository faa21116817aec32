// Executors for load-balancing Schemes 1 and 2 plus the generic migration
// primitive they share. Scheme 3 has its own iterative executor in
// planner.hpp.
#pragma once

#include <span>

#include "loadbalance/planner.hpp"
#include "loadbalance/schemes.hpp"

namespace agcm::lb {

/// Moves items to the destinations in `my_dest` (one destination per local
/// item) with a single personalised all-to-all. Collective. The returned
/// held set is ordered: kept items first (original order), then received
/// items grouped by source rank; the exchange is logged as one hop.
BalanceResult execute_migration(const comm::Communicator& comm,
                                std::span<const Item> my_items,
                                std::span<const double> my_payloads,
                                int doubles_per_item,
                                std::span<const int> my_dest);

/// Scheme 1 (Figure 4): cyclic shuffle — item q of rank r moves to rank
/// (r + q) mod N. Needs no load information at all, but costs O(N^2)
/// messages in aggregate.
BalanceResult balance_cyclic(const comm::Communicator& comm,
                             std::span<const Item> my_items,
                             std::span<const double> my_payloads,
                             int doubles_per_item);

/// Scheme 2 (Figure 5): sorted greedy surplus moves. Requires global item
/// metadata on every rank (the allgather is the "number of global
/// communications and a substantial amount of local bookkeeping" the paper
/// criticises), then executes the moves with O(N) transfers.
BalanceResult balance_sorted_greedy(const comm::Communicator& comm,
                                    std::span<const Item> my_items,
                                    std::span<const double> my_payloads,
                                    int doubles_per_item);

/// Runs `scheme`'s executor (`options` applies to Scheme 3 only). Collective.
/// `scheme` must not be Scheme::kNone.
BalanceResult balance(const comm::Communicator& comm, Scheme scheme,
                      std::span<const Item> my_items,
                      std::span<const double> my_payloads,
                      int doubles_per_item, const PairwiseOptions& options = {});

}  // namespace agcm::lb
