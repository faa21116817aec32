// In-memory message transport between virtual nodes.
//
// Every (src, dst, tag) channel preserves FIFO order, matching MPI point-to-
// point semantics. Payloads are pooled byte buffers (see buffer_pool.hpp)
// that move — never copy — from the sender's pack loop to the receiver's
// unpack loop. The typed layer lives in comm/communicator.hpp. Each packet
// carries the sender's virtual departure time so the receiver can compute
// its virtual arrival.
//
// The mailbox is sharded: every channel owns its queue, mutex and wakeup
// slot, so a push wakes exactly the receiver parked on that channel instead
// of broadcasting to every blocked receiver of the rank, and queue
// operations never scan or lock unrelated channels. The channel table is
// indexed by source rank; each source holds a short list of (tag, channel)
// entries, one per communicator context and tag it uses. A separate mutex
// guards the table and is held only for that lookup/insert: one array
// index plus a scan of a few tags.
//
// The wakeup slot is scheduler-integrated: under the fiber backend the
// blocked receive publishes its Fiber* as the channel's waiter and parks
// (a user-space context switch), and the sender unparks exactly that fiber;
// under the thread backend the same slot role is played by the channel's
// condition variable (notify_one). At most one receiver ever waits on a
// (src, tag) channel — the destination rank — so both wakeups are exact.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "simnet/buffer_pool.hpp"

namespace agcm::simnet {

class Fiber;

/// One in-flight message.
struct Packet {
  Buffer payload;
  double depart_time = 0.0;  ///< sender's virtual clock when injected
  int src = -1;
  std::int64_t tag = 0;  ///< wide: encodes (communicator context, user tag)
};

/// Queue depth of one (src, tag) channel — deadlock diagnostics.
struct ChannelInfo {
  int src = -1;
  std::int64_t tag = 0;
  std::size_t depth = 0;
};

/// Growth-only FIFO ring of packets. Unlike std::deque (whose forward-
/// walking cursors allocate and free a block node every handful of
/// operations even at constant depth), a ring at steady depth never touches
/// the heap — a requirement of the allocation-free transport contract
/// (tests/test_comm_alloc.cpp). Capacity is a power of two and only grows.
class PacketRing {
 public:
  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  void push(Packet&& packet) {
    if (count_ == slots_.size()) grow();
    slots_[(head_ + count_) & (slots_.size() - 1)] = std::move(packet);
    ++count_;
  }

  Packet pop() {
    Packet packet = std::move(slots_[head_]);
    head_ = (head_ + 1) & (slots_.size() - 1);
    --count_;
    return packet;
  }

 private:
  void grow() {
    const std::size_t cap = slots_.empty() ? 8 : slots_.size() * 2;
    std::vector<Packet> next(cap);
    for (std::size_t q = 0; q < count_; ++q)
      next[q] = std::move(slots_[(head_ + q) & (slots_.size() - 1)]);
    slots_ = std::move(next);
    head_ = 0;
  }

  std::vector<Packet> slots_;  ///< power-of-two capacity
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

/// Per-destination mailbox; thread-safe, sharded per channel.
class Mailbox {
 public:
  void push(Packet packet);

  /// Blocks until a packet from (src, tag) is available; FIFO per channel.
  /// Throws CommError on deadlock, with a message listing every channel
  /// that has queued packets so a tag mismatch or ordering deadlock is
  /// visible at a glance. On a fiber the call parks the calling fiber and
  /// deadlock is detected by scheduler quiescence (immediately); on a plain
  /// thread it waits on the channel's condition variable and deadlock is a
  /// `timeout_ms` real-time timeout.
  Packet pop(int src, std::int64_t tag, int timeout_ms);

  /// Number of queued packets across all channels (diagnostics).
  std::size_t pending() const;

  /// Per-channel queue depths for every non-empty channel, sorted by
  /// (src, tag) — the payload of the enriched timeout diagnostics.
  std::vector<ChannelInfo> pending_channels() const;

 private:
  /// One FIFO channel shard: own lock, own queue, own wakeup. `waiter` is
  /// the fiber-backend wakeup slot (guarded by `mutex`): the parked
  /// receiver, published just before it switches out, cleared by the sender
  /// that wakes it. The condition variable serves the same role for
  /// thread-backend receivers.
  struct Channel {
    std::mutex mutex;
    std::condition_variable cv;
    Fiber* waiter = nullptr;
    PacketRing queue;
  };

  /// One channel of a source, keyed by its wide tag.
  struct TaggedChannel {
    std::int64_t tag = 0;
    std::unique_ptr<Channel> channel;
  };

  /// Finds or creates the channel shard for (src, tag): one index by source
  /// plus a scan of the few tags that source uses. Channels are created on
  /// first touch and live for the mailbox's lifetime (stable addresses, so
  /// waiting threads never hold the table lock).
  Channel& channel(int src, std::int64_t tag);

  mutable std::mutex table_mutex_;
  /// Channels by source rank, each source's in first-touch order. Grows to
  /// the highest source seen.
  std::vector<std::vector<TaggedChannel>> by_src_;
};

/// The whole interconnect: one mailbox per rank, the shared payload buffer
/// pool, and volume counters.
class Network {
 public:
  explicit Network(int nranks);

  int nranks() const { return nranks_; }
  Mailbox& mailbox(int rank);

  /// The recycling payload pool shared by every rank of this network.
  BufferPool& pool() { return pool_; }

  /// Deadlock-detection timeout for blocking receives (real milliseconds).
  void set_recv_timeout_ms(int ms) { timeout_ms_ = ms; }
  int recv_timeout_ms() const { return timeout_ms_; }

  /// Global traffic counters (atomic, aggregated across ranks).
  void count_message(std::size_t bytes);
  std::uint64_t total_messages() const;
  std::uint64_t total_bytes() const;
  void reset_counters();

 private:
  int nranks_;
  BufferPool pool_;  ///< declared before mailboxes_: queued packets release
                     ///< their buffers into the pool during destruction
  std::vector<Mailbox> mailboxes_;
  int timeout_ms_ = 60'000;
  std::atomic<std::uint64_t> messages_{0};
  std::atomic<std::uint64_t> bytes_{0};
};

}  // namespace agcm::simnet
