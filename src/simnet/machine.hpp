// The virtual multicomputer: runs an SPMD program with one rank *fiber* per
// virtual node on a fixed worker pool (M:N scheduling — see simnet/fiber.hpp
// and docs/simnet.md). Real data moves between ranks (results are
// verifiable); the machine profile only prices the operations on each rank's
// virtual clock, so virtual times are bit-identical at any worker count and
// under any host schedule.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "simnet/machine_profile.hpp"
#include "simnet/network.hpp"
#include "simnet/virtual_clock.hpp"

namespace agcm::simnet {

/// Everything one rank of an SPMD program can touch. Byte-level transport;
/// the typed interface is comm::Communicator.
class RankContext {
 public:
  RankContext(int rank, Network& network, const MachineProfile& profile)
      : rank_(rank), network_(&network), clock_(profile) {}

  RankContext(const RankContext&) = delete;
  RankContext& operator=(const RankContext&) = delete;

  int rank() const { return rank_; }
  int nranks() const { return network_->nranks(); }
  VirtualClock& clock() { return clock_; }
  const VirtualClock& clock() const { return clock_; }
  Network& network() { return *network_; }

  /// Borrows a payload buffer of `bytes` logical size from the network's
  /// recycling pool — the zero-copy send path packs directly into it.
  Buffer acquire_buffer(std::size_t bytes) {
    return network_->pool().acquire(bytes);
  }

  /// Sends raw bytes to `dst` with `tag`; charges sender overhead and
  /// stamps the packet with the virtual departure time. Copies once, into
  /// pooled storage (allocation-free after pool warm-up).
  void send_bytes(int dst, std::int64_t tag, std::span<const std::byte> bytes);

  /// Zero-copy overload: the pooled buffer is moved into the packet, so
  /// callers that packed via acquire_buffer() inject without any copy.
  void send_bytes(int dst, std::int64_t tag, Buffer&& payload);

  /// Blocking receive of the next packet on channel (src, tag). Advances the
  /// virtual clock to the message arrival (wire latency + serialisation)
  /// and returns the pooled payload directly — no copy-out; the storage
  /// recycles into the pool when the returned Buffer dies.
  Buffer recv_bytes(int src, std::int64_t tag);

 private:
  int rank_;
  Network* network_;
  VirtualClock clock_;
};

/// Result of one SPMD run: per-rank virtual clocks and traffic totals.
struct RunResult {
  std::vector<double> finish_times;          ///< virtual now() at program end
  std::vector<TimeBreakdown> breakdowns;     ///< per-rank accounting
  std::uint64_t total_messages = 0;
  std::uint64_t total_bytes = 0;

  /// Virtual makespan: the slowest rank's finish time.
  double makespan() const;
};

/// Kept only because hostbench/ calls it: ranks always run as fibers.
enum class SimBackend { kFibers };

/// Launches `nranks` instances of `program` (one rank fiber each, scheduled
/// on a fixed worker pool), waits for all of them and returns the
/// virtual-time accounting. Exceptions thrown by any rank are rethrown here
/// (first one wins) after all ranks have stopped.
class Machine {
 public:
  explicit Machine(MachineProfile profile) : profile_(std::move(profile)) {}

  const MachineProfile& profile() const { return profile_; }

  /// Kept only because hostbench/ calls it: a no-op.
  void set_recv_timeout_ms(int /*ms*/) {}

  /// Kept only because hostbench/ calls it: a no-op.
  void set_backend(SimBackend /*backend*/) {}

  /// Worker-pool size; 0 (default) resolves to
  /// min(nranks, hardware_concurrency), or AGCM_SIMNET_WORKERS when set.
  /// Virtual-time neutral.
  void set_workers(int workers) { workers_ = workers; }

  RunResult run(int nranks, const std::function<void(RankContext&)>& program);

 private:
  RunResult collect(int nranks, Network& network,
                    const std::vector<std::unique_ptr<RankContext>>& contexts);

  MachineProfile profile_;
  int workers_ = 0;
};

}  // namespace agcm::simnet
