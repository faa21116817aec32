#include "simnet/network.hpp"

#include <algorithm>

#include "simnet/fiber.hpp"
#include "util/error.hpp"
#include "util/format.hpp"

namespace agcm::simnet {

namespace {

/// Tail of the deadlock error: describe what *is* queued so a tag or
/// source mismatch is obvious from the error alone.
std::string describe_pending(const Mailbox& mailbox) {
  const auto infos = mailbox.pending_channels();
  if (infos.empty()) return "mailbox empty";
  std::string desc = "pending channels:";
  for (const ChannelInfo& info : infos) {
    desc += strformat(" (src={} tag={} depth={})", info.src, info.tag,
                      info.depth);
  }
  return desc;
}

}  // namespace

Mailbox::Channel& Mailbox::channel(int src, std::int64_t tag) {
  AGCM_ASSERT(src >= 0);
  const auto usrc = static_cast<std::size_t>(src);
  std::lock_guard lock(table_mutex_);
  if (usrc >= by_src_.size()) by_src_.resize(usrc + 1);
  std::vector<TaggedChannel>& tags = by_src_[usrc];
  for (const TaggedChannel& entry : tags) {
    if (entry.tag == tag) return *entry.channel;
  }
  return *tags.emplace_back(tag, std::make_unique<Channel>()).channel;
}

void Mailbox::push(Packet packet) {
  Channel& ch = channel(packet.src, packet.tag);
  Fiber* waiter = nullptr;
  {
    std::lock_guard lock(ch.mutex);
    ch.queue.push(std::move(packet));
    // Scheduler-integrated wakeup: claim the parked receiving fiber (if
    // any) while holding the channel lock, unpark it after releasing — the
    // scheduler takes its own lock and must never nest inside a channel's.
    waiter = ch.waiter;
    ch.waiter = nullptr;
  }
  if (waiter != nullptr) waiter->unpark();
}

Packet Mailbox::pop(int src, std::int64_t tag) {
  Channel& ch = channel(src, tag);
  Fiber* self = current_fiber();
  // Park instead of blocking the worker thread. Loop because a wake can
  // also come from the scheduler's deadlock sweep.
  for (;;) {
    {
      std::lock_guard lock(ch.mutex);
      if (!ch.queue.empty()) return ch.queue.pop();
      // A plain thread has no fiber to park, so for it an empty channel
      // is final.
      if (self == nullptr || self->run_deadlocked()) break;
      // Publish ourselves as the channel's waiter *after* flagging the
      // parking state, both under the channel lock, so the sender that
      // sees the waiter is guaranteed a well-formed unpark target.
      self->prepare_park();
      ch.waiter = self;
    }
    self->park();
  }
  throw CommError(strformat(
      "recv deadlock: {} while waiting for message src={} tag={} "
      "(likely deadlock or tag mismatch); {}",
      self == nullptr ? "no rank fiber to park (off-machine receive)"
                      : "every live rank is blocked",
      src, tag, describe_pending(*this)));
}

std::size_t Mailbox::pending() const {
  std::size_t n = 0;
  std::lock_guard table_lock(table_mutex_);
  for (const auto& tags : by_src_) {
    for (const TaggedChannel& entry : tags) {
      std::lock_guard lock(entry.channel->mutex);
      n += entry.channel->queue.size();
    }
  }
  return n;
}

std::vector<ChannelInfo> Mailbox::pending_channels() const {
  std::vector<ChannelInfo> out;
  {
    std::lock_guard table_lock(table_mutex_);
    for (std::size_t src = 0; src < by_src_.size(); ++src) {
      for (const TaggedChannel& entry : by_src_[src]) {
        std::lock_guard lock(entry.channel->mutex);
        if (!entry.channel->queue.empty()) {
          out.push_back({static_cast<int>(src), entry.tag,
                         entry.channel->queue.size()});
        }
      }
    }
  }
  // Sources come out ascending; tags within a source in first-touch order.
  std::sort(out.begin(), out.end(), [](const ChannelInfo& a,
                                       const ChannelInfo& b) {
    return a.src != b.src ? a.src < b.src : a.tag < b.tag;
  });
  return out;
}

Network::Network(int nranks) : nranks_(nranks), mailboxes_(nranks) {
  AGCM_ASSERT(nranks > 0);
}

Mailbox& Network::mailbox(int rank) {
  AGCM_ASSERT(rank >= 0 && rank < nranks_);
  return mailboxes_[static_cast<std::size_t>(rank)];
}

void Network::count_message(std::size_t bytes) {
  messages_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(bytes, std::memory_order_relaxed);
}

std::uint64_t Network::total_messages() const {
  return messages_.load(std::memory_order_relaxed);
}

std::uint64_t Network::total_bytes() const {
  return bytes_.load(std::memory_order_relaxed);
}

void Network::reset_counters() {
  messages_.store(0, std::memory_order_relaxed);
  bytes_.store(0, std::memory_order_relaxed);
}

}  // namespace agcm::simnet
