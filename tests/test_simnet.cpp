// Tests for the virtual multicomputer: clock arithmetic, transport
// semantics, determinism, failure injection, and the fiber scheduler's
// park/unpark machinery under heavy oversubscription.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "simnet/fiber.hpp"
#include "simnet/machine.hpp"
#include "util/error.hpp"
#include "util/exec_local.hpp"

namespace agcm::simnet {
namespace {

std::span<const std::byte> as_bytes(const std::vector<double>& v) {
  return std::as_bytes(std::span<const double>(v));
}

/// Builds a one-byte test packet (mailbox tests have no Network/pool, so the
/// payload is a self-owning unpooled Buffer).
Packet make_packet(std::byte value, int src, std::int64_t tag) {
  Packet packet;
  packet.payload = Buffer::unpooled(std::vector<std::byte>{value});
  packet.depart_time = 0.0;
  packet.src = src;
  packet.tag = tag;
  return packet;
}

TEST(MachineProfile, ComputeTimeScalesWithRateAndEfficiency) {
  MachineProfile p = MachineProfile::ideal();  // 1 flop/s
  EXPECT_DOUBLE_EQ(p.compute_time(10.0), 10.0);
  EXPECT_DOUBLE_EQ(p.compute_time(10.0, 0.5), 20.0);
}

TEST(MachineProfile, EfficiencyIsClamped) {
  MachineProfile p = MachineProfile::ideal();
  EXPECT_DOUBLE_EQ(p.compute_time(1.0, 5.0), 1.0);      // clamped to 1
  EXPECT_DOUBLE_EQ(p.compute_time(1.0, 0.0), 1000.0);   // clamped to 1e-3
}

TEST(MachineProfile, TransferTime) {
  MachineProfile p;
  p.msg_latency_sec = 1.0e-3;
  p.link_bytes_per_sec = 1.0e6;
  EXPECT_DOUBLE_EQ(p.transfer_time(1.0e6), 1.0e-3 + 1.0);
}

TEST(MachineProfile, T3dFasterThanParagon) {
  const auto paragon = MachineProfile::intel_paragon();
  const auto t3d = MachineProfile::cray_t3d();
  EXPECT_GT(t3d.flops_per_sec, paragon.flops_per_sec);
  EXPECT_LT(t3d.msg_latency_sec, paragon.msg_latency_sec);
}

TEST(MachineProfile, LoopEfficiencyModel) {
  MachineProfile p;
  p.loop_startup_elems = 8.0;
  EXPECT_DOUBLE_EQ(p.loop_efficiency(8.0), 0.5);
  EXPECT_NEAR(p.loop_efficiency(144.0), 144.0 / 152.0, 1e-12);
  // Monotone increasing toward 1.
  EXPECT_LT(p.loop_efficiency(4.0), p.loop_efficiency(16.0));
  EXPECT_LT(p.loop_efficiency(16.0), 1.0);
  // No startup cost => always 1.
  p.loop_startup_elems = 0.0;
  EXPECT_DOUBLE_EQ(p.loop_efficiency(3.0), 1.0);
}

TEST(MachineProfile, ShortLoopsHurtParagonMoreThanT3d) {
  const auto paragon = MachineProfile::intel_paragon();
  const auto t3d = MachineProfile::cray_t3d();
  EXPECT_LT(paragon.loop_efficiency(5.0), t3d.loop_efficiency(5.0));
}

TEST(VirtualClock, ComputeAdvancesAndAccumulates) {
  const MachineProfile p = MachineProfile::ideal();
  VirtualClock clock(p);
  clock.compute(5.0);
  clock.compute(2.0);
  EXPECT_DOUBLE_EQ(clock.now(), 7.0);
  EXPECT_DOUBLE_EQ(clock.breakdown().compute, 7.0);
  EXPECT_DOUBLE_EQ(clock.breakdown().wait, 0.0);
}

TEST(VirtualClock, ArrivalInFutureRecordsWait) {
  const MachineProfile p = MachineProfile::ideal();
  VirtualClock clock(p);
  clock.compute(1.0);
  clock.apply_arrival(4.0);
  EXPECT_DOUBLE_EQ(clock.now(), 4.0);  // zero recv overhead on ideal
  EXPECT_DOUBLE_EQ(clock.breakdown().wait, 3.0);
}

TEST(VirtualClock, ArrivalInPastIsFree) {
  const MachineProfile p = MachineProfile::ideal();
  VirtualClock clock(p);
  clock.compute(10.0);
  clock.apply_arrival(4.0);
  EXPECT_DOUBLE_EQ(clock.now(), 10.0);
  EXPECT_DOUBLE_EQ(clock.breakdown().wait, 0.0);
}

TEST(VirtualClock, WaitUntil) {
  VirtualClock clock(MachineProfile::ideal());
  clock.wait_until(3.0);
  EXPECT_DOUBLE_EQ(clock.now(), 3.0);
  clock.wait_until(1.0);  // no-op
  EXPECT_DOUBLE_EQ(clock.now(), 3.0);
}

TEST(Mailbox, FifoPerChannel) {
  Mailbox box;
  box.push(make_packet(std::byte{1}, /*src=*/0, /*tag=*/7));
  box.push(make_packet(std::byte{2}, 0, 7));
  EXPECT_EQ(box.pop(0, 7).payload[0], std::byte{1});
  EXPECT_EQ(box.pop(0, 7).payload[0], std::byte{2});
}

TEST(Mailbox, FifoSurvivesInterleavedChannels) {
  // Sharded channels must stay FIFO per (src, tag) even when pushes to other
  // channels interleave arbitrarily.
  Mailbox box;
  for (int i = 0; i < 16; ++i) {
    box.push(make_packet(std::byte(i), 0, 7));
    box.push(make_packet(std::byte(100 + i), 3, 7));
    box.push(make_packet(std::byte(200 + i), 0, 9));
  }
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(box.pop(0, 7).payload[0], std::byte(i));
    EXPECT_EQ(box.pop(3, 7).payload[0], std::byte(100 + i));
    EXPECT_EQ(box.pop(0, 9).payload[0], std::byte(200 + i));
  }
  EXPECT_EQ(box.pending(), 0u);
}

TEST(Mailbox, ChannelsAreIndependent) {
  Mailbox box;
  box.push(make_packet(std::byte{9}, 1, 5));
  box.push(make_packet(std::byte{8}, 2, 5));
  EXPECT_EQ(box.pop(2, 5).payload[0], std::byte{8});
  EXPECT_EQ(box.pop(1, 5).payload[0], std::byte{9});
}

// A plain thread (no rank fiber) has nothing to park: a pop on an empty
// channel can never complete, so it throws at once.
TEST(Mailbox, OffFiberEmptyPopThrowsCommError) {
  Mailbox box;
  EXPECT_THROW(box.pop(0, 0), CommError);
}

TEST(Mailbox, OffFiberErrorListsPendingChannels) {
  // The deadlock diagnostic names what *is* queued, so a tag or source
  // mismatch is visible from the error message alone.
  Mailbox box;
  box.push(make_packet(std::byte{1}, 2, 11));
  box.push(make_packet(std::byte{2}, 2, 11));
  box.push(make_packet(std::byte{3}, 4, 3));
  try {
    box.pop(0, 7);
    FAIL() << "pop on an empty channel should throw";
  } catch (const CommError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("src=0 tag=7"), std::string::npos) << msg;
    EXPECT_NE(msg.find("pending channels:"), std::string::npos) << msg;
    EXPECT_NE(msg.find("(src=2 tag=11 depth=2)"), std::string::npos) << msg;
    EXPECT_NE(msg.find("(src=4 tag=3 depth=1)"), std::string::npos) << msg;
  }
}

TEST(Mailbox, OffFiberErrorOnEmptyMailbox) {
  Mailbox box;
  try {
    box.pop(1, 2);
    FAIL() << "pop on an empty channel should throw";
  } catch (const CommError& e) {
    EXPECT_NE(std::string(e.what()).find("mailbox empty"), std::string::npos);
  }
}

TEST(Mailbox, PendingChannelsSortedAndCounted) {
  Mailbox box;
  box.push(make_packet(std::byte{0}, 3, 1));
  box.push(make_packet(std::byte{0}, 1, 9));
  box.push(make_packet(std::byte{0}, 1, 2));
  box.push(make_packet(std::byte{0}, 1, 2));
  const auto infos = box.pending_channels();
  ASSERT_EQ(infos.size(), 3u);
  EXPECT_EQ(infos[0].src, 1);
  EXPECT_EQ(infos[0].tag, 2);
  EXPECT_EQ(infos[0].depth, 2u);
  EXPECT_EQ(infos[1].src, 1);
  EXPECT_EQ(infos[1].tag, 9);
  EXPECT_EQ(infos[2].src, 3);
  EXPECT_EQ(infos[2].tag, 1);
  EXPECT_EQ(box.pending(), 4u);
}

TEST(Mailbox, ChannelIndexBySourceKeepsFifoAndSortedDiagnostics) {
  // Sources arrive out of order (200 first, so the index grows past ranks
  // that have no channel yet) and several tags share a source, including
  // two wide tags from different communicator contexts above 2^32.
  const std::int64_t wide_a = (std::int64_t{1} << 32) + 7;
  const std::int64_t wide_b = (std::int64_t{5} << 32) + 7;
  const std::vector<std::pair<int, std::int64_t>> channels = {
      {200, 9}, {200, wide_b}, {200, 1}, {3, wide_a}, {3, 4},
      {3, wide_b}, {0, 2}, {0, 0}};
  Mailbox box;
  constexpr int kRounds = 5;
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t c = 0; c < channels.size(); ++c) {
      box.push(make_packet(std::byte(16 * c + round), channels[c].first,
                           channels[c].second));
    }
  }
  EXPECT_EQ(box.pending(), channels.size() * kRounds);

  auto sorted = channels;
  std::sort(sorted.begin(), sorted.end());
  const auto infos = box.pending_channels();
  ASSERT_EQ(infos.size(), sorted.size());
  for (std::size_t c = 0; c < sorted.size(); ++c) {
    EXPECT_EQ(infos[c].src, sorted[c].first);
    EXPECT_EQ(infos[c].tag, sorted[c].second);
    EXPECT_EQ(infos[c].depth, static_cast<std::size_t>(kRounds));
  }

  // Drain in reverse channel order: each channel stays FIFO on its own.
  for (std::size_t c = channels.size(); c-- > 0;) {
    for (int round = 0; round < kRounds; ++round) {
      EXPECT_EQ(box.pop(channels[c].first, channels[c].second).payload[0],
                std::byte(16 * c + round));
    }
  }
  EXPECT_EQ(box.pending(), 0u);
  EXPECT_TRUE(box.pending_channels().empty());
}

TEST(BufferPool, BestFitBySizeClass) {
  // A small request must not take the large storage while a fitting smaller
  // one is free, and a large request takes the storage that covers it.
  BufferPool pool;
  pool.prewarm(1, 64 * 1024);
  pool.prewarm(1, 4 * 1024);
  Buffer small = pool.acquire(3000);
  EXPECT_EQ(small.capacity(), 4u * 1024);
  Buffer large = pool.acquire(40 * 1024);
  EXPECT_EQ(large.capacity(), 64u * 1024);
  EXPECT_EQ(pool.reuses(), 2u);
  EXPECT_EQ(pool.misses(), 0u);
  EXPECT_EQ(pool.free_count(), 0u);
}

TEST(BufferPool, GrowsLargestFreeStorageWhenNothingFits) {
  BufferPool pool;
  pool.prewarm(1, 1024);
  pool.prewarm(1, 4096);
  Buffer big = pool.acquire(10'000);
  EXPECT_EQ(big.size(), 10'000u);
  EXPECT_EQ(big.capacity(), 16u * 1024);  // grown to the full class size
  EXPECT_EQ(pool.reuses(), 1u);
  EXPECT_EQ(pool.misses(), 0u);
  // The 4 KiB storage was the one grown: the 1 KiB one is still free.
  Buffer rest = pool.acquire(512);
  EXPECT_EQ(rest.capacity(), 1024u);
  EXPECT_EQ(pool.misses(), 0u);
}

TEST(BufferPool, FreePlusOutstandingIsConservedAcrossClasses) {
  BufferPool pool;
  pool.prewarm(3, 256);
  pool.prewarm(3, 8192);
  const std::size_t total = pool.free_count();
  ASSERT_EQ(total, 6u);
  std::vector<Buffer> held;
  const std::size_t sizes[] = {100, 8192, 3000, 256, 20'000, 1, 5000, 64};
  for (int pass = 0; pass < 3; ++pass) {
    for (const std::size_t bytes : sizes) {
      if (held.size() == total) held.erase(held.begin());  // release oldest
      EXPECT_EQ(pool.free_count() + pool.outstanding(), total);
      held.push_back(pool.acquire(bytes));
      EXPECT_EQ(held.back().size(), bytes);
      EXPECT_EQ(pool.free_count() + pool.outstanding(), total);
    }
  }
  held.clear();
  EXPECT_EQ(pool.free_count(), total);
  EXPECT_EQ(pool.outstanding(), 0u);
  EXPECT_EQ(pool.misses(), 0u);
}

TEST(BufferPool, RecyclesStorageWithCapacityIntact) {
  BufferPool pool;
  const std::byte* first_data = nullptr;
  {
    Buffer b = pool.acquire(256);
    EXPECT_EQ(b.size(), 256u);
    first_data = b.data();
    EXPECT_EQ(pool.outstanding(), 1u);
  }  // released back to the pool here
  EXPECT_EQ(pool.outstanding(), 0u);
  EXPECT_EQ(pool.free_count(), 1u);
  Buffer again = pool.acquire(128);  // smaller: must reuse, not allocate
  EXPECT_EQ(again.size(), 128u);
  EXPECT_GE(again.capacity(), 256u);  // growth-only capacity
  EXPECT_EQ(again.data(), first_data);
  EXPECT_EQ(pool.reuses(), 1u);
  EXPECT_EQ(pool.misses(), 1u);
}

TEST(BufferPool, MoveTransfersOwnership) {
  BufferPool pool;
  Buffer a = pool.acquire(8);
  Buffer b = std::move(a);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move): spec'd empty
  EXPECT_EQ(b.size(), 8u);
  EXPECT_EQ(pool.outstanding(), 1u);
  a = std::move(b);
  EXPECT_EQ(a.size(), 8u);
  EXPECT_EQ(pool.outstanding(), 1u);
}

TEST(BufferPool, UnpooledBufferOwnsItsStorage) {
  Buffer b = Buffer::unpooled({std::byte{42}, std::byte{43}});
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(b[1], std::byte{43});
}

TEST(Machine, RunsAllRanks) {
  Machine machine(MachineProfile::ideal());
  std::vector<int> hits(8, 0);
  machine.run(8, [&](RankContext& ctx) { hits[static_cast<std::size_t>(ctx.rank())] = 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(Machine, PingPongTransfersDataAndTime) {
  MachineProfile p = MachineProfile::ideal();
  p.msg_latency_sec = 2.0;
  Machine machine(p);
  const auto result = machine.run(2, [&](RankContext& ctx) {
    std::vector<double> payload{1.5, 2.5};
    if (ctx.rank() == 0) {
      ctx.clock().compute(5.0);  // rank 0 is busy before sending
      ctx.send_bytes(1, 3, as_bytes(payload));
    } else {
      const auto bytes = ctx.recv_bytes(0, 3);
      ASSERT_EQ(bytes.size(), 2 * sizeof(double));
      double values[2];
      std::memcpy(values, bytes.data(), sizeof(values));
      EXPECT_DOUBLE_EQ(values[0], 1.5);
      EXPECT_DOUBLE_EQ(values[1], 2.5);
    }
  });
  // Receiver time = sender depart (5.0) + latency (2.0) + ~0 serialisation.
  EXPECT_NEAR(result.finish_times[1], 7.0, 1e-9);
  EXPECT_DOUBLE_EQ(result.breakdowns[1].wait, 7.0);
  EXPECT_EQ(result.total_messages, 1u);
  EXPECT_EQ(result.total_bytes, 2 * sizeof(double));
}

TEST(Machine, ZeroCopySendPathMatchesCopyPath) {
  // Packing into an acquired buffer and moving it into the network must be
  // indistinguishable (payload bytes AND virtual time) from the span path.
  MachineProfile p = MachineProfile::ideal();
  p.msg_latency_sec = 2.0;
  Machine machine(p);
  const auto run = [&](bool zero_copy) {
    return machine.run(2, [&, zero_copy](RankContext& ctx) {
      const std::vector<double> payload{3.25, -7.5, 11.0};
      if (ctx.rank() == 0) {
        ctx.clock().compute(5.0);
        if (zero_copy) {
          Buffer buf = ctx.acquire_buffer(payload.size() * sizeof(double));
          std::memcpy(buf.data(), payload.data(), buf.size());
          ctx.send_bytes(1, 3, std::move(buf));
        } else {
          ctx.send_bytes(1, 3, as_bytes(payload));
        }
      } else {
        const Buffer bytes = ctx.recv_bytes(0, 3);
        ASSERT_EQ(bytes.size(), payload.size() * sizeof(double));
        std::vector<double> values(payload.size());
        std::memcpy(values.data(), bytes.data(), bytes.size());
        EXPECT_EQ(values, payload);
      }
    });
  };
  const auto copy = run(false);
  const auto moved = run(true);
  ASSERT_EQ(copy.finish_times.size(), moved.finish_times.size());
  for (std::size_t r = 0; r < copy.finish_times.size(); ++r)
    EXPECT_DOUBLE_EQ(copy.finish_times[r], moved.finish_times[r]);
  EXPECT_EQ(copy.total_bytes, moved.total_bytes);
}

TEST(Machine, PayloadStorageRecyclesThroughPool) {
  Machine machine(MachineProfile::ideal());
  machine.run(2, [](RankContext& ctx) {
    const int peer = 1 - ctx.rank();
    std::vector<double> data(32, 1.0);
    for (int iter = 0; iter < 8; ++iter) {
      ctx.send_bytes(peer, 1, as_bytes(data));
      (void)ctx.recv_bytes(peer, 1);
    }
    // After warm-up every acquire is served from the freelist; with 2 ranks
    // ping-ponging equal sizes the pool needs at most a handful of buffers.
    EXPECT_LE(ctx.network().pool().misses(), 4u);
    EXPECT_GE(ctx.network().pool().reuses(), 8u);
  });
}

TEST(Machine, RepeatedNonPowerOfTwoSizeCostsOneMiss) {
  // One 3000 B storage circulates for the whole ping-pong: it is filed
  // under the class its requests ask for, so it is never grown again.
  Machine machine(MachineProfile::ideal());
  std::vector<const std::byte*> seen;
  machine.run(2, [&](RankContext& ctx) {
    const int peer = 1 - ctx.rank();
    const std::vector<std::byte> payload(3000, std::byte{7});
    for (int iter = 0; iter < 100; ++iter) {
      if (ctx.rank() == 0) {
        ctx.send_bytes(peer, 1, payload);
        seen.push_back(ctx.recv_bytes(peer, 1).data());
      } else {
        (void)ctx.recv_bytes(peer, 1);
        ctx.send_bytes(peer, 1, payload);
      }
    }
    // Rank 0's last receive follows every acquire of the run.
    if (ctx.rank() == 0) {
      EXPECT_EQ(ctx.network().pool().misses(), 1u);
    }
  });
  ASSERT_EQ(seen.size(), 100u);
  for (const std::byte* data : seen) EXPECT_EQ(data, seen.front());
}

TEST(Machine, VirtualTimeIsDeterministicAcrossRuns) {
  MachineProfile p = MachineProfile::intel_paragon();
  Machine machine(p);
  auto program = [&](RankContext& ctx) {
    // Irregular compute + ring communication; host scheduling varies but
    // virtual time must not.
    ctx.clock().compute(1000.0 * (ctx.rank() + 1));
    const int next = (ctx.rank() + 1) % ctx.nranks();
    const int prev = (ctx.rank() + ctx.nranks() - 1) % ctx.nranks();
    std::vector<double> data(64, ctx.rank());
    ctx.send_bytes(next, 1, as_bytes(data));
    (void)ctx.recv_bytes(prev, 1);
  };
  const auto r1 = machine.run(5, program);
  const auto r2 = machine.run(5, program);
  for (int r = 0; r < 5; ++r)
    EXPECT_DOUBLE_EQ(r1.finish_times[static_cast<std::size_t>(r)],
                     r2.finish_times[static_cast<std::size_t>(r)]);
}

TEST(Machine, ExceptionInRankPropagates) {
  Machine machine(MachineProfile::ideal());
  EXPECT_THROW(machine.run(2,
                           [](RankContext& ctx) {
                             if (ctx.rank() == 0) throw DataError("boom");
                             // rank 1 exits normally
                           }),
               DataError);
}

TEST(Machine, RecvDeadlockSurfacesAsCommError) {
  Machine machine(MachineProfile::ideal());
  EXPECT_THROW(
      machine.run(2,
                  [](RankContext& ctx) {
                    if (ctx.rank() == 0) {
                      (void)ctx.recv_bytes(1, 9);  // never sent: deadlock
                    }
                  }),
      CommError);
}

TEST(Machine, SendToInvalidRankThrows) {
  Machine machine(MachineProfile::ideal());
  EXPECT_THROW(machine.run(1,
                           [](RankContext& ctx) {
                             std::byte b{0};
                             ctx.send_bytes(5, 0, {&b, 1});
                           }),
               CommError);
}

TEST(Machine, MakespanIsMaxFinishTime) {
  Machine machine(MachineProfile::ideal());
  const auto result = machine.run(3, [](RankContext& ctx) {
    ctx.clock().compute(static_cast<double>(ctx.rank()) * 10.0);
  });
  EXPECT_DOUBLE_EQ(result.makespan(), 20.0);
}

TEST(Machine, MemoryTrafficUsesBandwidth) {
  MachineProfile p = MachineProfile::ideal();
  p.mem_bytes_per_sec = 100.0;
  Machine machine(p);
  const auto result = machine.run(1, [](RankContext& ctx) {
    ctx.clock().memory_traffic(50.0);
  });
  EXPECT_DOUBLE_EQ(result.finish_times[0], 0.5);
}

// ---------------------------------------------------------------------------
// Fiber-scheduler torture tests. These force the M:N machinery through its
// worst cases: far more fibers than workers, parks nested inside hand-rolled
// collectives, channel FIFO under migration, and bit-equality of virtual
// times under jittered host schedules at several worker counts.
// ---------------------------------------------------------------------------

/// Hand-rolled barrier on p2p messages (gather-to-0 + broadcast), so the
/// test exercises recv parks nested inside a collective without depending
/// on the comm layer.
void p2p_barrier(RankContext& ctx, std::int64_t tag) {
  const std::byte token{1};
  if (ctx.rank() == 0) {
    for (int r = 1; r < ctx.nranks(); ++r) (void)ctx.recv_bytes(r, tag);
    for (int r = 1; r < ctx.nranks(); ++r) ctx.send_bytes(r, tag, {&token, 1});
  } else {
    ctx.send_bytes(0, tag, {&token, 1});
    (void)ctx.recv_bytes(0, tag);
  }
}

TEST(FiberScheduler, ManyMoreFibersThanWorkers) {
  // 192 rank fibers on 2 workers: every message round parks ~all fibers,
  // so the run queue, the park/unpark handshake and fiber migration across
  // the two workers all churn constantly.
  Machine machine(MachineProfile::ideal());
  machine.set_workers(2);
  const int nranks = 192;
  const int rounds = 5;
  std::vector<int> visits(static_cast<std::size_t>(nranks), 0);
  const auto result = machine.run(nranks, [&](RankContext& ctx) {
    const int next = (ctx.rank() + 1) % ctx.nranks();
    const int prev = (ctx.rank() + ctx.nranks() - 1) % ctx.nranks();
    std::vector<double> data{static_cast<double>(ctx.rank())};
    for (int round = 0; round < rounds; ++round) {
      ctx.send_bytes(next, round, as_bytes(data));
      const Buffer got = ctx.recv_bytes(prev, round);
      double value = 0.0;
      std::memcpy(&value, got.data(), sizeof(value));
      EXPECT_DOUBLE_EQ(value, static_cast<double>(prev));
    }
    ++visits[static_cast<std::size_t>(ctx.rank())];
  });
  for (int v : visits) EXPECT_EQ(v, 1);
  EXPECT_EQ(result.total_messages,
            static_cast<std::uint64_t>(nranks) * rounds);
}

// All P fiber stacks of a run share one mapping, each stack above its own
// PROT_NONE guard page. These fences check that neighbouring stacks stay
// isolated when every rank is deep at once, that the run unmaps the whole
// mapping, and that an impossible mapping fails before any rank runs.

/// Three quarters of the default 512 KiB fiber stack.
constexpr std::size_t kDeepFrameBytes = 384 * 1024;

/// Marks one byte per cache line of a kDeepFrameBytes frame on the calling
/// fiber's stack with `mark`, runs `park` while the frame is live, then
/// returns how many marked bytes no longer hold `mark`.
[[gnu::noinline]] std::size_t fill_park_check(
    unsigned char mark, const std::function<void()>& park) {
  volatile unsigned char frame[kDeepFrameBytes];
  for (std::size_t i = 0; i < kDeepFrameBytes; i += 64) frame[i] = mark;
  park();
  std::size_t clobbered = 0;
  for (std::size_t i = 0; i < kDeepFrameBytes; i += 64)
    clobbered += frame[i] != mark ? 1 : 0;
  return clobbered;
}

TEST(FiberScheduler, DeepStacksOnOneMappingStayIsolated) {
  // Every rank fills 3/4 of its stack, then parks in a barrier: rank 0
  // cannot leave it before all 64 ranks are inside, so all 64 deep frames
  // are live at once on adjacent stacks of the one mapping.
  Machine machine(MachineProfile::ideal());
  machine.set_workers(2);
  const int nranks = 64;
  std::vector<std::size_t> clobbered(static_cast<std::size_t>(nranks), 1);
  machine.run(nranks, [&](RankContext& ctx) {
    const auto mark = static_cast<unsigned char>(ctx.rank() + 1);
    clobbered[static_cast<std::size_t>(ctx.rank())] =
        fill_park_check(mark, [&] { p2p_barrier(ctx, /*tag=*/7); });
  });
  for (int r = 0; r < nranks; ++r)
    EXPECT_EQ(clobbered[static_cast<std::size_t>(r)], 0u) << "rank " << r;
}

std::size_t maps_line_count() {
  std::ifstream maps("/proc/self/maps");
  std::size_t lines = 0;
  for (std::string line; std::getline(maps, line);) ++lines;
  return lines;
}

TEST(FiberScheduler, RunUnmapsEveryStack) {
  FiberSchedulerOptions options;
  options.workers = 2;
  const std::function<void(int)> body = [](int) {};
  // Warm-up: the workers' thread stacks and malloc arenas stay mapped
  // across runs (glibc caches them), so only the second run is measured.
  run_fibers(1024, body, options);
  const std::size_t before = maps_line_count();
  run_fibers(1024, body, options);
  EXPECT_EQ(maps_line_count(), before);
}

TEST(FiberScheduler, ImpossibleStackMappingFailsBeforeAnyFiberRuns) {
  FiberSchedulerOptions options;
  options.workers = 1;
  options.stack_bytes = std::size_t{1} << 46;  // 2 x 64 TiB: no address space
  bool ran = false;
  try {
    run_fibers(2, [&](int) { ran = true; }, options);
    ADD_FAILURE() << "a 128 TiB stack mapping did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("AGCM_SIMNET_STACK_KB"),
              std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(ran);
}

TEST(FiberScheduler, RecvNestedInsideBarrierPhases) {
  // Data messages cross barrier phases: sent before a barrier, received
  // after it — so data recvs park while peers are already parked inside the
  // barrier's own recvs, and the channel must buffer across both.
  Machine machine(MachineProfile::ideal());
  machine.set_workers(3);
  const int nranks = 64;
  machine.run(nranks, [&](RankContext& ctx) {
    const int partner = ctx.rank() ^ 1;  // pair (even, odd)
    const std::int64_t kData = 1000;
    std::vector<double> payload{ctx.rank() * 1.25};
    if (ctx.rank() % 2 == 1) ctx.send_bytes(partner, kData, as_bytes(payload));
    p2p_barrier(ctx, /*tag=*/1);
    if (ctx.rank() % 2 == 0) {
      const Buffer got = ctx.recv_bytes(partner, kData);
      double value = 0.0;
      std::memcpy(&value, got.data(), sizeof(value));
      EXPECT_DOUBLE_EQ(value, partner * 1.25);
      ctx.send_bytes(partner, kData + 1, as_bytes(payload));
    }
    p2p_barrier(ctx, /*tag=*/2);
    if (ctx.rank() % 2 == 1) {
      const Buffer got = ctx.recv_bytes(partner, kData + 1);
      double value = 0.0;
      std::memcpy(&value, got.data(), sizeof(value));
      EXPECT_DOUBLE_EQ(value, partner * 1.25);
    }
  });
}

TEST(FiberScheduler, FifoPreservedPerChannelUnderOversubscription) {
  // One sender floods two tags toward each receiver while the scheduler
  // bounces the receiving fibers between workers; per-(src, tag) order must
  // still be exactly the send order.
  Machine machine(MachineProfile::ideal());
  machine.set_workers(2);
  const int nranks = 48;  // rank 0 sends, everyone else receives
  const int messages = 32;
  machine.run(nranks, [&](RankContext& ctx) {
    if (ctx.rank() == 0) {
      for (int i = 0; i < messages; ++i) {
        for (int dst = 1; dst < ctx.nranks(); ++dst) {
          std::vector<double> a{static_cast<double>(i)};
          std::vector<double> b{static_cast<double>(1000 + i)};
          ctx.send_bytes(dst, 7, as_bytes(a));
          ctx.send_bytes(dst, 9, as_bytes(b));
        }
      }
    } else {
      for (int i = 0; i < messages; ++i) {
        const Buffer a = ctx.recv_bytes(0, 7);
        const Buffer b = ctx.recv_bytes(0, 9);
        double va = 0.0;
        double vb = 0.0;
        std::memcpy(&va, a.data(), sizeof(va));
        std::memcpy(&vb, b.data(), sizeof(vb));
        EXPECT_DOUBLE_EQ(va, static_cast<double>(i));
        EXPECT_DOUBLE_EQ(vb, static_cast<double>(1000 + i));
      }
    }
  });
}

TEST(FiberScheduler, EachRankGetsItsOwnExecSlot) {
  // The per-rank local-storage handle must be distinct per fiber and stable
  // across parks — it is what keeps fft/kernel workspaces rank-private when
  // fibers migrate between workers.
  Machine machine(MachineProfile::ideal());
  machine.set_workers(2);
  const int nranks = 32;
  std::vector<util::ExecSlot*> slots(static_cast<std::size_t>(nranks),
                                     nullptr);
  machine.run(nranks, [&](RankContext& ctx) {
    util::ExecSlot* before = util::ExecSlot::current();
    ASSERT_NE(before, nullptr);
    p2p_barrier(ctx, /*tag=*/5);  // park at least once
    EXPECT_EQ(util::ExecSlot::current(), before);
    slots[static_cast<std::size_t>(ctx.rank())] = before;
  });
  std::sort(slots.begin(), slots.end());
  EXPECT_EQ(std::unique(slots.begin(), slots.end()), slots.end());
  EXPECT_EQ(std::count(slots.begin(), slots.end(), nullptr), 0);
}

/// Everything virtual a run produces, as raw bits: per-rank finish time and
/// breakdown components, then the message and byte totals.
std::vector<std::uint64_t> virtual_bits(const RunResult& result) {
  std::vector<std::uint64_t> bits;
  for (std::size_t r = 0; r < result.finish_times.size(); ++r) {
    const TimeBreakdown& b = result.breakdowns[r];
    for (const double v : {result.finish_times[r], b.compute, b.overhead,
                           b.wait}) {
      bits.push_back(std::bit_cast<std::uint64_t>(v));
    }
  }
  bits.push_back(result.total_messages);
  bits.push_back(result.total_bytes);
  return bits;
}

std::uint64_t lcg_next(std::uint64_t& s) {
  s = s * 6364136223846793005ULL + 1442695040888963407ULL;
  return s >> 33;
}

TEST(FiberScheduler, VirtualTimesIndependentOfHostSchedule) {
  // The determinism fence. One seeded program (pseudo-random compute plus
  // permutation exchanges) runs at W = 2, 4 and 8 workers with a seeded
  // per-rank host jitter — a busy-spin and an occasional yield before every
  // send and recv — so the ranks interleave differently on every run. Every
  // virtual observable must be bitwise equal to a W=1 run without jitter,
  // and the host order in which recvs complete must actually vary, or the
  // fence proves nothing.
  constexpr int kRanks = 24;
  constexpr int kRounds = 8;
  constexpr std::uint64_t kProgramSeed = 20260808ULL;
  constexpr int kJitterSeeds = 8;

  std::mutex order_mutex;
  std::vector<int> recv_order;  // rank * kRounds + round, in host order
  const auto run = [&](int workers, std::uint64_t jitter_seed) {
    recv_order.clear();
    Machine machine(MachineProfile::intel_paragon());
    machine.set_workers(workers);
    const RunResult result = machine.run(kRanks, [&](RankContext& ctx) {
      std::uint64_t offs = kProgramSeed;  // rank-independent offset stream
      std::uint64_t mine =
          kProgramSeed * 1000003ULL + static_cast<std::uint64_t>(ctx.rank());
      std::uint64_t jitter =
          jitter_seed * 7919ULL + static_cast<std::uint64_t>(ctx.rank());
      const auto perturb = [&] {
        if (jitter_seed == 0) return;
        volatile std::uint64_t sink = 0;
        const std::uint64_t spins = lcg_next(jitter) % 4096;
        for (std::uint64_t i = 0; i < spins; ++i) sink = sink + i;
        if (lcg_next(jitter) % 4 == 0) std::this_thread::yield();
      };
      for (int round = 0; round < kRounds; ++round) {
        ctx.clock().compute(static_cast<double>(lcg_next(mine) % 10000) + 1.0);
        const int off = 1 + static_cast<int>(lcg_next(offs) % (kRanks - 1));
        const int dst = (ctx.rank() + off) % kRanks;
        const int src = (ctx.rank() + kRanks - off) % kRanks;
        std::vector<double> data(1 + lcg_next(mine) % 64,
                                 static_cast<double>(ctx.rank()));
        perturb();
        ctx.send_bytes(dst, round, as_bytes(data));
        perturb();
        (void)ctx.recv_bytes(src, round);
        std::lock_guard lock(order_mutex);
        recv_order.push_back(ctx.rank() * kRounds + round);
      }
    });
    return virtual_bits(result);
  };

  const std::vector<std::uint64_t> reference = run(1, /*jitter_seed=*/0);
  for (const int workers : {2, 4, 8}) {
    std::set<std::vector<int>> orders;
    for (std::uint64_t seed = 1; seed <= kJitterSeeds; ++seed) {
      EXPECT_EQ(run(workers, seed), reference)
          << "W=" << workers << " jitter seed " << seed;
      orders.insert(recv_order);
    }
    EXPECT_GE(orders.size(), 2u)
        << "W=" << workers << ": the jitter never changed the host schedule";
  }
}

TEST(FiberScheduler, DeadlockDetectedWithoutWallClockWait) {
  // Quiescence detection: a recv that can never be satisfied must throw as
  // soon as all live fibers are parked, with no wall-clock timeout.
  Machine machine(MachineProfile::ideal());
  try {
    machine.run(3, [](RankContext& ctx) {
      if (ctx.rank() == 0) (void)ctx.recv_bytes(1, 9);  // never sent
    });
    FAIL() << "deadlocked run should throw";
  } catch (const CommError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("deadlock"), std::string::npos) << msg;
    EXPECT_NE(msg.find("src=1 tag=9"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace agcm::simnet
