// M:N cooperative fiber scheduler for the virtual multicomputer.
//
// Every rank of a Machine::run is a *fiber* — a stackful coroutine owning
// its own stack and per-rank ExecSlot — and P fibers run on a fixed pool
// of W worker threads (W ~ hardware concurrency). One OS thread per rank
// would cap useful machine sizes at a few dozen ranks: kernel context
// switches and futex wakeups would dominate the host cost of every virtual
// message long before P reaches the paper's 240-node runs. A fiber yields
// only at virtual-time events that cannot proceed (today: a blocking recv
// on an empty channel — barriers and clock waits are built on recv);
// everything else runs straight through. Parking and waking a fiber is a
// user-space context switch, so thousands of ranks sweep at full host
// speed (bench/bench_simnet_sched.cpp gates how host cost scales with P,
// docs/simnet.md has the design).
//
// Determinism: the scheduler moves *host* execution around but never
// touches a virtual clock, and per-(src,tag) channel FIFO order is
// preserved by the mailbox whatever the interleaving — so virtual times
// are bit-identical at any worker count and under any host schedule
// (gated by FiberScheduler.VirtualTimesIndependentOfHostSchedule, which
// jitters the schedule with seeded spins and yields).
//
// Blocking protocol (the park/unpark handshake with simnet::Mailbox):
//   1. the fiber, holding the channel lock and finding the queue empty,
//      calls prepare_park() and publishes itself as the channel's waiter;
//   2. it releases the lock and calls park(), which switches back to the
//      worker; the worker commits kParking -> kParked under the scheduler
//      mutex — or, if an unpark() raced in between, requeues the fiber
//      immediately (kUnparkedWhileParking). The fiber is never resumed
//      before it has fully switched off its stack;
//   3. a sender that finds a published waiter clears it and calls
//      unpark(), which moves a parked fiber to the run queue.
//
// Deadlock detection is by quiescence, not by wall clock: when every live
// fiber is parked (no fiber running, run queue empty), no message can ever
// arrive — the scheduler declares the run deadlocked and wakes all parked
// fibers, whose blocked recvs then throw an enriched CommError listing the
// pending channels, immediately.
#pragma once

#include <cstddef>
#include <functional>

namespace agcm::util {
class ExecSlot;
}  // namespace agcm::util

namespace agcm::simnet {

class Fiber;
class FiberScheduler;

/// The fiber executing on the calling host thread, or nullptr when the
/// caller is a plain thread (unit tests, tools). The mailbox parks a fiber
/// on an empty channel; a plain thread has nothing to park and gets an
/// immediate CommError instead.
Fiber* current_fiber() noexcept;

/// Scheduler configuration. Zero values resolve to defaults (and the
/// AGCM_SIMNET_WORKERS / AGCM_SIMNET_STACK_KB environment overrides).
struct FiberSchedulerOptions {
  int workers = 0;            ///< 0 = min(hardware_concurrency, fibers)
  std::size_t stack_bytes = 0;  ///< 0 = 512 KiB per fiber (virtual, lazily
                                ///< committed; one guard page below)
};

/// Runs `count` fibers of `body(index)` to completion on a fixed worker
/// pool, then rethrows the first exception any fiber threw (after all
/// fibers have finished). Each fiber owns a util::ExecSlot installed
/// around every slice it runs, so per-rank workspaces are migration-safe.
void run_fibers(int count, const std::function<void(int)>& body,
                const FiberSchedulerOptions& options);

/// Blocking-primitive interface used by simnet::Mailbox (see the protocol
/// in the header comment). All methods are implemented in fiber.cpp; the
/// class is opaque everywhere else.
class Fiber {
 public:
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;
  ~Fiber();

  int index() const noexcept;

  /// Step 1 of parking: marks the fiber kParking. Call while holding the
  /// lock that also publishes the waiter pointer, so any waker that can
  /// see the waiter also sees the state.
  void prepare_park() noexcept;

  /// Step 2: switches to the worker; returns when unpark() (or the
  /// deadlock sweep) reschedules the fiber. Must not hold any lock.
  void park();

  /// Wakes a parking/parked fiber; no-op in any other state. Safe to call
  /// from any host thread.
  void unpark();

  /// True once the scheduler has declared the run deadlocked; a woken
  /// fiber whose recv still cannot proceed must abandon the wait.
  bool run_deadlocked() const noexcept;

 private:
  friend class FiberScheduler;
  Fiber();
  struct Impl;
  Impl* impl_;
};

}  // namespace agcm::simnet
