// Tests for the load-balancing library: the three pure planners (invariant
// properties swept over random load distributions) and the collective
// executors, including the result-return round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <numeric>

#include "comm/communicator.hpp"
#include "loadbalance/exchange.hpp"
#include "loadbalance/planner.hpp"
#include "loadbalance/schemes.hpp"
#include "simnet/machine.hpp"
#include "trace/metrics.hpp"
#include "trace/tracer.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace agcm::lb {
namespace {

using comm::Communicator;
using simnet::Machine;
using simnet::MachineProfile;
using simnet::RankContext;

/// A random item distribution: `p` ranks, roughly `per_rank` items each,
/// with a day/night-like two-population weight structure plus noise.
ItemLists random_items(int p, int per_rank, std::uint64_t seed) {
  Rng rng(seed);
  ItemLists lists(static_cast<std::size_t>(p));
  std::uint64_t id = 0;
  for (int r = 0; r < p; ++r) {
    const bool heavy_rank = rng.uniform() < 0.5;  // "daytime" ranks
    const int n = per_rank + static_cast<int>(rng.uniform_int(5));
    for (int q = 0; q < n; ++q) {
      const double base = heavy_rank ? 3.0 : 1.0;
      lists[static_cast<std::size_t>(r)].push_back(
          {id++, base * (0.8 + 0.4 * rng.uniform())});
    }
  }
  return lists;
}

double total_weight(const ItemLists& items) {
  double total = 0.0;
  for (const auto& list : items)
    for (const Item& item : list) total += item.weight;
  return total;
}

class PlannerSweep : public ::testing::TestWithParam<int> {};

TEST_P(PlannerSweep, AllPlannersConserveTotalLoad) {
  const int p = GetParam();
  const ItemLists items = random_items(p, 40, 1000 + static_cast<std::uint64_t>(p));
  const double total = total_weight(items);
  for (const DestLists& dest :
       {plan_cyclic(items), plan_sorted_greedy(items),
        plan_pairwise(items).dest}) {
    const auto loads = loads_after(items, dest);
    EXPECT_NEAR(sum(loads), total, 1e-9 * total);
  }
}

TEST_P(PlannerSweep, SortedGreedyImprovesImbalance) {
  const int p = GetParam();
  if (p < 2) return;
  const ItemLists items = random_items(p, 40, 2000 + static_cast<std::uint64_t>(p));
  const double before = load_imbalance(loads_of(items));
  const double after = load_imbalance(loads_after(items, plan_sorted_greedy(items)));
  EXPECT_LE(after, before + 1e-12);
}

TEST_P(PlannerSweep, PairwiseImbalanceNonIncreasingPerIteration) {
  const int p = GetParam();
  if (p < 2) return;
  const ItemLists items = random_items(p, 40, 3000 + static_cast<std::uint64_t>(p));
  PairwiseOptions options;
  options.max_iterations = 4;
  const auto result = plan_pairwise(items, options);
  for (std::size_t i = 1; i < result.imbalance_history.size(); ++i)
    EXPECT_LE(result.imbalance_history[i],
              result.imbalance_history[i - 1] + 0.02);
  // With fine-grained items, two iterations should reach the low teens at
  // worst — the paper's Tables 1-3 land at 5-12.5% on real loads.
  if (result.imbalance_history.size() >= 3) {
    EXPECT_LT(result.imbalance_history[2], 0.16);
  }
}

TEST_P(PlannerSweep, CyclicBalancesUniformItems) {
  const int p = GetParam();
  // Uniform weights, identical counts: cyclic shuffle must balance almost
  // perfectly (the paper's stated guarantee for near-uniform local loads).
  ItemLists items(static_cast<std::size_t>(p));
  std::uint64_t id = 0;
  for (auto& list : items)
    for (int q = 0; q < 4 * p; ++q) list.push_back({id++, 1.0});
  const auto loads = loads_after(items, plan_cyclic(items));
  EXPECT_LT(load_imbalance(loads), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, PlannerSweep,
                         ::testing::Values(1, 2, 3, 4, 8, 13, 16, 32, 64));

TEST(Planners, PaperFigure5Example) {
  // Loads 65, 24, 38, 15 (Figure 5A). Build one coarse item per unit.
  ItemLists items(4);
  const double loads[] = {65, 24, 38, 15};
  std::uint64_t id = 0;
  for (int r = 0; r < 4; ++r)
    for (int u = 0; u < static_cast<int>(loads[r]); ++u)
      items[static_cast<std::size_t>(r)].push_back({id++, 1.0});
  // avg = 35.5; greedy should land everyone within one unit of it.
  const auto after = loads_after(items, plan_sorted_greedy(items));
  for (double l : after) EXPECT_NEAR(l, 35.5, 1.0);
}

TEST(Planners, PaperFigure6PairwiseTwoRounds) {
  // Same initial distribution; scheme 3 with 2 iterations should reach a
  // small imbalance, like Figure 6D (36, 35, 35, 36).
  ItemLists items(4);
  const double loads[] = {65, 24, 38, 15};
  std::uint64_t id = 0;
  for (int r = 0; r < 4; ++r)
    for (int u = 0; u < static_cast<int>(loads[r]); ++u)
      items[static_cast<std::size_t>(r)].push_back({id++, 1.0});
  const auto result = plan_pairwise(items);
  EXPECT_LE(result.imbalance_history.back(), 0.05);
}

TEST(Planners, EmptyRanksAreHandled) {
  ItemLists items(3);
  items[0].push_back({0, 10.0});
  items[0].push_back({1, 10.0});
  const auto result = plan_pairwise(items);
  const auto after = loads_after(items, result.dest);
  EXPECT_LT(load_imbalance(after), load_imbalance(loads_of(items)));
}

TEST(Planners, DestinationsAreValidRanks) {
  const ItemLists items = random_items(8, 20, 99);
  for (const DestLists& dest :
       {plan_cyclic(items), plan_sorted_greedy(items),
        plan_pairwise(items).dest}) {
    for (std::size_t r = 0; r < dest.size(); ++r) {
      ASSERT_EQ(dest[r].size(), items[r].size());
      for (int d : dest[r]) {
        EXPECT_GE(d, 0);
        EXPECT_LT(d, 8);
      }
    }
  }
}

// --- collective executors ---------------------------------------------------

TEST(Collective, PairwiseBalanceMovesRealPayloads) {
  Machine machine(MachineProfile::ideal());
  machine.set_recv_timeout_ms(20'000);
  const int p = 6;
  machine.run(p, [&](RankContext& ctx) {
    Communicator comm(ctx);
    // Rank r: (r+1)*8 items of weight (r+1) — strongly imbalanced.
    const int n = 8 * (comm.rank() + 1);
    std::vector<Item> items(static_cast<std::size_t>(n));
    std::vector<double> payloads;
    for (int q = 0; q < n; ++q) {
      const auto id = static_cast<std::uint64_t>(comm.rank()) * 1000 +
                      static_cast<std::uint64_t>(q);
      items[static_cast<std::size_t>(q)] = {id, 1.0 * (comm.rank() + 1)};
      payloads.push_back(static_cast<double>(id));
      payloads.push_back(static_cast<double>(id) + 0.5);
    }
    PairwiseOptions options;
    options.max_iterations = 3;
    const BalanceResult result =
        balance_pairwise(comm, items, payloads, 2, options);
    EXPECT_LT(result.imbalance_after, result.imbalance_before);
    // Payloads stay attached to their items.
    for (std::size_t q = 0; q < result.held_items.size(); ++q) {
      EXPECT_DOUBLE_EQ(result.held_payloads[2 * q],
                       static_cast<double>(result.held_items[q].id));
      EXPECT_DOUBLE_EQ(result.held_payloads[2 * q + 1],
                       static_cast<double>(result.held_items[q].id) + 0.5);
    }
    // Global item conservation.
    const double held =
        comm.allreduce_sum(static_cast<double>(result.held_items.size()));
    const double expected = comm.allreduce_sum(static_cast<double>(n));
    EXPECT_DOUBLE_EQ(held, expected);
  });
}

/// Item distributions for the round-trip tests.
enum class Loads {
  kRandom,    ///< 10+3r items per rank, weights in [0.5, 4)
  kCoarse,    ///< 2-7 coarse items per rank: items overshoot and move on
  kUniform,   ///< 12 unit items per rank: already balanced
};

struct RoundTripCase {
  const char* name;
  Scheme scheme;
  Loads loads;
  int ranks;
  int max_iterations;
};

class ReturnToOwners : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(ReturnToOwners, RestoresOriginalOrder) {
  const RoundTripCase& c = GetParam();
  Machine machine(MachineProfile::ideal());
  machine.set_recv_timeout_ms(20'000);
  std::atomic<int> moved{0};
  std::atomic<int> hopped_twice{0};
  machine.run(c.ranks, [&](RankContext& ctx) {
    Communicator comm(ctx);
    const auto me = static_cast<std::uint64_t>(comm.rank());
    // The coarse seed is one where an item moves on in a later iteration
    // (asserted below through hopped_twice).
    Rng rng(c.loads == Loads::kCoarse ? 279 + me : me + 5);
    int n = 12;
    if (c.loads == Loads::kRandom) n = 10 + 3 * comm.rank();
    if (c.loads == Loads::kCoarse) n = 2 + static_cast<int>(rng.uniform_int(6));
    std::vector<Item> items(static_cast<std::size_t>(n));
    std::vector<double> payloads;
    for (int q = 0; q < n; ++q) {
      double weight = 1.0;
      if (c.loads == Loads::kRandom) weight = rng.uniform(0.5, 4.0);
      if (c.loads == Loads::kCoarse) weight = rng.uniform(0.5, 8.0);
      items[static_cast<std::size_t>(q)] = {
          me * 100 + static_cast<std::uint64_t>(q), weight};
      payloads.push_back(1000.0 * comm.rank() + q);
      payloads.push_back(-0.5 * q);
    }
    PairwiseOptions options;
    options.max_iterations = c.max_iterations;
    const BalanceResult result =
        balance(comm, c.scheme, items, payloads, 2, options);
    // "Process" into three doubles per item, as Physics returns profiles
    // plus a cost: (2a + 1, b, id).
    std::vector<double> processed;
    for (std::size_t q = 0; q < result.held_items.size(); ++q) {
      processed.push_back(result.held_payloads[2 * q] * 2.0 + 1.0);
      processed.push_back(result.held_payloads[2 * q + 1]);
      processed.push_back(static_cast<double>(result.held_items[q].id));
    }
    const auto mine = return_to_owners(comm, result, processed, 3, n);
    ASSERT_EQ(mine.size(), static_cast<std::size_t>(3 * n));
    for (int q = 0; q < n; ++q) {
      const auto uq = static_cast<std::size_t>(q);
      EXPECT_EQ(mine[3 * uq], (1000.0 * comm.rank() + q) * 2.0 + 1.0);
      EXPECT_EQ(mine[3 * uq + 1], -0.5 * q);
      EXPECT_EQ(mine[3 * uq + 2], static_cast<double>(items[uq].id));
    }
    // An item held here whose owner never shipped to this rank directly
    // reached it over two or more hops.
    for (const Item& item : result.held_items) {
      const auto owner = static_cast<std::size_t>(item.id / 100);
      if (owner == me) continue;
      ++moved;
      bool direct = false;
      for (const Hop& hop : result.hops) direct |= hop.received[owner] > 0;
      if (!direct) ++hopped_twice;
    }
  });
  if (c.loads == Loads::kUniform) {
    EXPECT_EQ(moved.load(), 0);
  } else {
    EXPECT_GT(moved.load(), 0);
  }
  if (c.loads == Loads::kCoarse) {
    EXPECT_GT(hopped_twice.load(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Executors, ReturnToOwners,
    ::testing::Values(
        RoundTripCase{"pairwise", Scheme::kPairwise, Loads::kRandom, 5, 2},
        RoundTripCase{"cyclic", Scheme::kCyclic, Loads::kRandom, 5, 2},
        RoundTripCase{"sorted_greedy", Scheme::kSortedGreedy, Loads::kRandom,
                      5, 2},
        RoundTripCase{"pairwise_two_hops", Scheme::kPairwise, Loads::kCoarse,
                      4, 3},
        RoundTripCase{"pairwise_no_moves", Scheme::kPairwise, Loads::kUniform,
                      5, 2},
        RoundTripCase{"sorted_greedy_no_moves", Scheme::kSortedGreedy,
                      Loads::kUniform, 5, 2}),
    [](const ::testing::TestParamInfo<RoundTripCase>& info) {
      return std::string(info.param.name);
    });

/// Per-rank traffic, indexed by rank.
struct Traffic {
  std::vector<double> messages;
  std::vector<double> bytes;
};

/// Messages and bytes each rank sent while `program` ran on `p` ranks, from
/// the comm layer's traffic counters (recorded only while tracing is on).
Traffic traffic_of(int p, const std::function<void(Communicator&)>& program) {
  struct TraceOn {
    explicit TraceOn(int ranks) {
      trace::set_enabled(true);
      trace::Tracer::instance().begin_run(ranks);
      trace::MetricsRegistry::instance().reset();
    }
    ~TraceOn() { trace::set_enabled(false); }
  } on(p);
  Machine machine(MachineProfile::ideal());
  machine.set_recv_timeout_ms(60'000);
  machine.run(p, [&](RankContext& ctx) {
    Communicator comm(ctx);
    program(comm);
  });
  Traffic out{std::vector<double>(static_cast<std::size_t>(p), 0.0),
              std::vector<double>(static_cast<std::size_t>(p), 0.0)};
  const auto& metrics = trace::MetricsRegistry::instance();
  for (const auto& [rank, n] : metrics.per_rank("comm.messages_sent"))
    out.messages[static_cast<std::size_t>(rank)] = n;
  for (const auto& [rank, n] : metrics.per_rank("comm.bytes_sent"))
    out.bytes[static_cast<std::size_t>(rank)] = n;
  return out;
}

/// 20 day/night-weighted items per rank with two payload doubles each.
void make_items(const Communicator& comm, std::vector<Item>& items,
                std::vector<double>& payloads) {
  Rng rng(static_cast<std::uint64_t>(comm.rank()) * 7 + 3);
  const double base = rng.uniform() < 0.5 ? 3.0 : 1.0;
  for (int q = 0; q < 20; ++q) {
    items.push_back({static_cast<std::uint64_t>(comm.rank() * 100 + q),
                     base * rng.uniform(0.8, 1.2)});
    payloads.push_back(static_cast<double>(q));
    payloads.push_back(static_cast<double>(comm.rank()));
  }
}

class PairwiseMessages : public ::testing::TestWithParam<int> {};

TEST_P(PairwiseMessages, BalancePlusReturnIsLinearInIterations) {
  // Scheme 3's point (Figure 6): per iteration a rank either ships items
  // and payloads to its partner or gets results back from it, so it sends
  // at most two messages per iteration besides the load allgather.
  const int p = GetParam();
  std::size_t allgathers = 0;
  int iterations = 0;
  double before = 0.0;
  double after = 0.0;
  const Traffic lb = traffic_of(p, [&](Communicator& comm) {
    std::vector<Item> items;
    std::vector<double> payloads;
    make_items(comm, items, payloads);
    const BalanceResult held = balance_pairwise(comm, items, payloads, 2);
    const auto home = return_to_owners(comm, held, held.held_payloads, 2,
                                       static_cast<int>(items.size()));
    EXPECT_EQ(home, payloads);
    if (comm.rank() == 0) {
      allgathers = held.imbalance_history.size();
      iterations = held.iterations;
      before = held.imbalance_before;
      after = held.imbalance_after;
    }
  });
  ASSERT_GT(iterations, 0);
  EXPECT_LT(after, before);
  const Traffic gathers = traffic_of(p, [&](Communicator& comm) {
    const std::vector<int> ones(static_cast<std::size_t>(p), 1);
    const double load = 1.0;
    for (std::size_t a = 0; a < allgathers; ++a)
      comm.allgatherv<double>(std::span<const double>(&load, 1), ones);
  });
  for (int r = 0; r < p; ++r) {
    const auto ur = static_cast<std::size_t>(r);
    EXPECT_LE(lb.messages[ur] - gathers.messages[ur], 2.0 * iterations)
        << "rank " << r << " of " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, PairwiseMessages,
                         ::testing::Values(16, 64, 240));

TEST(Collective, CyclicReturnIsOnePayloadExchange) {
  // Scheme 1's return replays its forward shuffle: one message per forward
  // payload message, carrying result doubles only (no count or index ints).
  const int p = 16;
  const int per_result = 3;
  std::vector<BalanceResult> held(static_cast<std::size_t>(p));
  const auto run = [&](bool return_home) {
    return traffic_of(p, [&](Communicator& comm) {
      std::vector<Item> items;
      std::vector<double> payloads;
      make_items(comm, items, payloads);
      BalanceResult& mine = held[static_cast<std::size_t>(comm.rank())];
      mine = balance_cyclic(comm, items, payloads, 2);
      if (!return_home) return;
      const std::vector<double> results(
          mine.held_items.size() * static_cast<std::size_t>(per_result), 1.0);
      return_to_owners(comm, mine, results, per_result,
                       static_cast<int>(items.size()));
    });
  };
  const Traffic forward = run(false);
  const Traffic both = run(true);
  for (int r = 0; r < p; ++r) {
    const auto ur = static_cast<std::size_t>(r);
    ASSERT_EQ(held[ur].hops.size(), 1u);
    const Hop& hop = held[ur].hops[0];
    // Forward payload messages this rank received = return messages it
    // sends; results of its received items are all it sends back.
    const auto payload_msgs = static_cast<double>(std::count_if(
        hop.received.begin(), hop.received.end(), [](int n) { return n > 0; }));
    const double received =
        std::accumulate(hop.received.begin(), hop.received.end(), 0.0);
    EXPECT_EQ(payload_msgs, p - 1.0);
    EXPECT_EQ(both.messages[ur] - forward.messages[ur], payload_msgs)
        << "rank " << r;
    EXPECT_EQ(both.bytes[ur] - forward.bytes[ur],
              received * per_result * sizeof(double))
        << "rank " << r;
  }
}

TEST(Collective, CyclicExecutorBalancesCounts) {
  Machine machine(MachineProfile::ideal());
  machine.set_recv_timeout_ms(20'000);
  const int p = 4;
  machine.run(p, [&](RankContext& ctx) {
    Communicator comm(ctx);
    const int n = 12;  // divisible by p: perfect count balance
    std::vector<Item> items(static_cast<std::size_t>(n));
    std::vector<double> payloads(static_cast<std::size_t>(n), 1.0);
    for (int q = 0; q < n; ++q)
      items[static_cast<std::size_t>(q)] = {
          static_cast<std::uint64_t>(comm.rank() * 100 + q), 1.0};
    const auto result = balance_cyclic(comm, items, payloads, 1);
    EXPECT_EQ(result.held_items.size(), static_cast<std::size_t>(n));
    EXPECT_NEAR(result.imbalance_after, 0.0, 1e-12);
  });
}

TEST(Collective, SortedGreedyExecutorImproves) {
  Machine machine(MachineProfile::ideal());
  machine.set_recv_timeout_ms(20'000);
  const int p = 4;
  machine.run(p, [&](RankContext& ctx) {
    Communicator comm(ctx);
    // Figure 5's loads, one unit per item.
    const int loads[] = {65, 24, 38, 15};
    const int n = loads[comm.rank()];
    std::vector<Item> items(static_cast<std::size_t>(n));
    std::vector<double> payloads(static_cast<std::size_t>(n), 0.0);
    for (int q = 0; q < n; ++q)
      items[static_cast<std::size_t>(q)] = {
          static_cast<std::uint64_t>(comm.rank() * 100 + q), 1.0};
    const auto result = balance_sorted_greedy(comm, items, payloads, 1);
    EXPECT_NEAR(result.imbalance_before, (65.0 - 35.5) / 35.5, 1e-9);
    EXPECT_LT(result.imbalance_after, 0.05);
  });
}

TEST(Collective, MigrationRoutesPayloadsWithItems) {
  Machine machine(MachineProfile::ideal());
  machine.set_recv_timeout_ms(20'000);
  machine.run(3, [&](RankContext& ctx) {
    Communicator comm(ctx);
    std::vector<Item> items{{static_cast<std::uint64_t>(comm.rank()), 2.0}};
    std::vector<double> payloads{static_cast<double>(comm.rank())};
    std::vector<int> dest{(comm.rank() + 1) % 3};
    const auto result = execute_migration(comm, items, payloads, 1, dest);
    ASSERT_EQ(result.held_items.size(), 1u);
    EXPECT_EQ(static_cast<int>(result.held_items[0].id),
              (comm.rank() + 2) % 3);
    EXPECT_DOUBLE_EQ(result.held_payloads[0],
                     static_cast<double>((comm.rank() + 2) % 3));
    // One hop: position 0 shipped to the next rank, one item received from
    // the previous one.
    ASSERT_EQ(result.hops.size(), 1u);
    const Hop& hop = result.hops[0];
    EXPECT_EQ(hop.shipped, std::vector<std::size_t>{0});
    EXPECT_EQ(hop.sent, (std::vector<int>{(comm.rank() + 1) % 3 == 0,
                                          (comm.rank() + 1) % 3 == 1,
                                          (comm.rank() + 1) % 3 == 2}));
    EXPECT_EQ(hop.received, (std::vector<int>{(comm.rank() + 2) % 3 == 0,
                                              (comm.rank() + 2) % 3 == 1,
                                              (comm.rank() + 2) % 3 == 2}));
  });
}

}  // namespace
}  // namespace agcm::lb
