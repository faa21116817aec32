// Recycling byte-buffer pool backing the zero-copy simnet transport.
//
// Every message payload that crosses the virtual interconnect lives in a
// `Buffer`: a movable RAII handle over a `std::vector<std::byte>` borrowed
// from a per-`Network` `BufferPool`. Senders pack directly into pool
// storage, the buffer is *moved* (never copied) through the mailbox, and
// when the receiver's handle dies the storage returns to the pool with its
// capacity intact ("growth-only"): after a warm-up phase in which every
// live buffer has grown to the largest payload it ever carried, the
// steady-state communication hot path performs zero heap allocations
// (tests/test_comm_alloc.cpp proves it with an operator-new hook).
//
// Free storage is filed by power-of-two size class, floor(log2(capacity)),
// one LIFO stack per class, with a bitmask of the non-empty classes. An
// acquire is therefore O(1) whatever the freelist length: one mask, one
// bit scan and one pop, under the pool mutex.
//
// Lifetime rule: a pooled Buffer must not outlive the Network whose pool it
// came from (in practice: don't let Buffers escape the SPMD program passed
// to Machine::run). Unpooled Buffers (Buffer::unpooled) own their storage
// outright and are used by tests and tooling that have no Network.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

namespace agcm::simnet {

class BufferPool;

/// Movable RAII handle over pooled (or standalone) byte storage.
class Buffer {
 public:
  Buffer() = default;

  Buffer(Buffer&& other) noexcept
      : pool_(std::exchange(other.pool_, nullptr)),
        storage_(std::move(other.storage_)) {
    other.storage_.clear();
  }

  Buffer& operator=(Buffer&& other) noexcept {
    if (this != &other) {
      release();
      pool_ = std::exchange(other.pool_, nullptr);
      storage_ = std::move(other.storage_);
      other.storage_.clear();
    }
    return *this;
  }

  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;

  ~Buffer() { release(); }

  /// A self-owning buffer with no pool behind it (tests, tooling).
  static Buffer unpooled(std::vector<std::byte> bytes) {
    Buffer b;
    b.storage_ = std::move(bytes);
    return b;
  }

  std::byte* data() { return storage_.data(); }
  const std::byte* data() const { return storage_.data(); }
  std::size_t size() const { return storage_.size(); }
  bool empty() const { return storage_.empty(); }
  std::size_t capacity() const { return storage_.capacity(); }

  std::byte& operator[](std::size_t i) { return storage_[i]; }
  const std::byte& operator[](std::size_t i) const { return storage_[i]; }

  std::span<std::byte> span() { return storage_; }
  std::span<const std::byte> span() const { return storage_; }

  /// Grows or shrinks the logical size (capacity never shrinks).
  void resize(std::size_t bytes) { storage_.resize(bytes); }

 private:
  friend class BufferPool;
  Buffer(BufferPool* pool, std::vector<std::byte> storage)
      : pool_(pool), storage_(std::move(storage)) {}

  void release();

  BufferPool* pool_ = nullptr;
  std::vector<std::byte> storage_;
};

/// Thread-safe freelist of byte vectors with growth-only capacity, kept
/// as one LIFO stack per power-of-two size class. Shared by every rank of
/// a Network: a payload acquired by the sender is released back by
/// whichever rank's handle dies last.
class BufferPool {
 public:
  BufferPool() = default;
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Hands out a buffer of exactly `bytes` logical size in O(1). Best-fit
  /// at class granularity: a request of class ceil(log2(bytes)) pops the
  /// smallest non-empty class at or above it, so small messages never
  /// steal large buffers while a fitting smaller one is free (the large
  /// request would then have to grow a small vector: a heap allocation in
  /// the steady state). When nothing fits, the storage of the largest
  /// non-empty class is grown instead, so capacities only ever ratchet
  /// upward. A fresh or grown storage reserves the whole class size,
  /// 2^ceil(log2(bytes)), so a repeated size is always served from its
  /// own class.
  Buffer acquire(std::size_t bytes) {
    const int want = ceil_class(bytes);
    std::vector<std::byte> storage;
    {
      std::lock_guard lock(mutex_);
      if (nonempty_ != 0) {
        const std::uint64_t fits = nonempty_ & (~std::uint64_t{0} << want);
        storage = pop(fits != 0 ? std::countr_zero(fits)
                                : std::bit_width(nonempty_) - 1);
        ++reuses_;
      } else {
        ++misses_;
      }
      ++outstanding_;
    }
    if (bytes > storage.capacity()) storage.reserve(std::size_t{1} << want);
    storage.resize(bytes);
    return Buffer(this, std::move(storage));
  }

  /// Pre-populates the freelist with `count` storages that each serve a
  /// `bytes` request (capacity rounded up to the class size).
  /// Optional: pools self-warm after a few sweeps anyway, but a prewarmed
  /// pool covering the workload's peak concurrency is allocation-free from
  /// the very first message (tests/test_comm_alloc.cpp uses this to make
  /// the zero-allocation assertion deterministic under any thread
  /// interleaving).
  void prewarm(std::size_t count, std::size_t bytes) {
    const std::size_t capacity = std::size_t{1} << ceil_class(bytes);
    std::lock_guard lock(mutex_);
    for (std::size_t q = 0; q < count; ++q) {
      std::vector<std::byte> storage;
      storage.reserve(capacity);
      push(std::move(storage));
    }
  }

  // --- statistics (diagnostics / bench instrumentation) --------------------

  /// Buffers currently held by live handles or in-flight packets.
  std::size_t outstanding() const {
    std::lock_guard lock(mutex_);
    return outstanding_;
  }
  /// Buffers sitting in the freelist.
  std::size_t free_count() const {
    std::lock_guard lock(mutex_);
    return free_count_;
  }
  /// acquire() calls served from the freelist.
  std::size_t reuses() const {
    std::lock_guard lock(mutex_);
    return reuses_;
  }
  /// acquire() calls that had to start from empty storage.
  std::size_t misses() const {
    std::lock_guard lock(mutex_);
    return misses_;
  }

 private:
  friend class Buffer;

  static constexpr int kClasses = 64;

  /// Smallest class whose size 2^c covers `bytes`: ceil(log2(bytes)).
  static int ceil_class(std::size_t bytes) {
    return bytes <= 1 ? 0 : std::bit_width(bytes - 1);
  }

  /// Files free storage under floor(log2(capacity)): every storage in
  /// class c holds at least 2^c bytes. Caller holds `mutex_`.
  void push(std::vector<std::byte>&& storage) {
    const std::size_t cap = storage.capacity();
    const int c = cap == 0 ? 0 : std::bit_width(cap) - 1;
    free_[c].push_back(std::move(storage));
    nonempty_ |= std::uint64_t{1} << c;
    ++free_count_;
  }

  /// Pops the most recently filed storage of non-empty class `c`. Caller
  /// holds `mutex_`.
  std::vector<std::byte> pop(int c) {
    std::vector<std::byte> storage = std::move(free_[c].back());
    free_[c].pop_back();
    if (free_[c].empty()) nonempty_ &= ~(std::uint64_t{1} << c);
    --free_count_;
    return storage;
  }

  void release(std::vector<std::byte>&& storage) {
    storage.clear();  // keeps capacity: the whole point of the pool
    std::lock_guard lock(mutex_);
    push(std::move(storage));
    --outstanding_;
  }

  mutable std::mutex mutex_;
  std::array<std::vector<std::vector<std::byte>>, kClasses> free_;
  std::uint64_t nonempty_ = 0;  ///< bit c set iff free_[c] is non-empty
  std::size_t free_count_ = 0;
  std::size_t outstanding_ = 0;
  std::size_t reuses_ = 0;
  std::size_t misses_ = 0;
};

inline void Buffer::release() {
  if (pool_ != nullptr) {
    pool_->release(std::move(storage_));
    pool_ = nullptr;
  }
  storage_.clear();
}

}  // namespace agcm::simnet
