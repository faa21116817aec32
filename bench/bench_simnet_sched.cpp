// Host-side cost of the simnet fiber scheduler as the machine grows
// (docs/simnet.md).
//
// The workload is deliberately message-dominated — per virtual timestep
// each rank does a ring shift plus a binomial reduce-and-broadcast tree on
// p2p messages, with only a token virtual compute charge — because that is
// the regime where the host cost of a virtual machine lives: every recv
// parks the rank, so the scheduler's park/wake mechanism is exercised
// ~3P times per step, each one a user-space context switch.
//
// Measurements:
//  * P-scaling gate: host ms per rank-step at P=1024 must stay within
//    2.5x of P=64, both on ONE worker, 30 steps, best of N wall clock
//    (exit code 1 otherwise). The work per rank-step is constant, so an
//    O(1) park/wake path reads ~1.4-1.8x (cache footprint only), while
//    even a bare O(P) scan of the fibers per dequeue reads ~3.8x.
//  * Correctness fence: per-rank virtual finish times at P=64 on one
//    worker and on the default worker pool must be bit-identical (the
//    scheduler moves host execution around, never virtual time).
//  * The P=1024 multi-step run is the paper-scale demonstration
//    (240-node Table 4 sweeps fit with room to spare) and must complete.
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "simnet/machine.hpp"
#include "util/table.hpp"

namespace {

using agcm::Table;
using agcm::simnet::Buffer;
using agcm::simnet::Machine;
using agcm::simnet::MachineProfile;
using agcm::simnet::RankContext;
using agcm::simnet::RunResult;

/// One virtual timestep: token ring + binomial reduce-to-0 + broadcast.
/// ~3P messages per step, and nearly every recv parks the rank: the baton
/// pass is strictly sequential (exactly one rank runnable at a time), so
/// each hop is one park + one wake on the host — the classic ring
/// benchmark for scheduler switch latency.
void step(RankContext& ctx, int s) {
  const int rank = ctx.rank();
  const int n = ctx.nranks();
  // Tags are reused across steps, as real field exchanges do: per-channel
  // FIFO makes the matching unambiguous, and the mailbox's channel table
  // stays small instead of growing a fresh channel per step.
  constexpr std::int64_t base = 0;
  (void)s;
  double payload[32] = {static_cast<double>(rank)};
  const auto bytes = std::as_bytes(std::span<const double>(payload));

  ctx.clock().compute(64.0);  // token compute so wait/compute both appear

  // Token circulation: rank 0 injects the baton, everyone else blocks for
  // it and relays it onward; rank 0 finally absorbs it.
  if (rank == 0) {
    ctx.send_bytes(1 % n, base, bytes);
    (void)ctx.recv_bytes(n - 1, base);
  } else {
    (void)ctx.recv_bytes(rank - 1, base);
    ctx.send_bytes((rank + 1) % n, base, bytes);
  }

  // Binomial reduce to rank 0 ...
  for (int stride = 1; stride < n; stride *= 2) {
    if (rank % (2 * stride) == stride) {
      ctx.send_bytes(rank - stride, base + 1, bytes);
      break;
    }
    if (rank % (2 * stride) == 0 && rank + stride < n) {
      (void)ctx.recv_bytes(rank + stride, base + 1);
    }
  }
  // ... and broadcast back down the same tree.
  int up = 1;
  while (up < n) up *= 2;
  for (int stride = up / 2; stride >= 1; stride /= 2) {
    if (rank % (2 * stride) == stride) {
      (void)ctx.recv_bytes(rank - stride, base + 2);
    } else if (rank % (2 * stride) == 0 && rank + stride < n) {
      ctx.send_bytes(rank + stride, base + 2, bytes);
    }
  }
}

struct Timed {
  double best_ms = 0.0;
  RunResult result;
};

Timed time_run(int nranks, int steps, int trials, int workers) {
  Machine machine(MachineProfile::cray_t3d());
  machine.set_workers(workers);
  Timed out;
  for (int t = 0; t < trials; ++t) {
    const agcm::bench::Stopwatch sw;
    RunResult r = machine.run(nranks, [steps](RankContext& ctx) {
      for (int s = 0; s < steps; ++s) step(ctx, s);
    });
    const double ms = sw.seconds() * 1e3;
    if (t == 0 || ms < out.best_ms) out.best_ms = ms;
    out.result = std::move(r);
  }
  return out;
}

bool virtual_times_match(const RunResult& a, const RunResult& b) {
  if (a.finish_times.size() != b.finish_times.size()) return false;
  for (std::size_t r = 0; r < a.finish_times.size(); ++r) {
    if (a.finish_times[r] != b.finish_times[r]) return false;  // exact
  }
  return a.total_messages == b.total_messages &&
         a.total_bytes == b.total_bytes;
}

}  // namespace

int main(int argc, char** argv) {
  auto opts = agcm::bench::BenchOptions::parse(argc, argv, "simnet_sched");
  agcm::bench::JsonReport report(opts);
  agcm::bench::print_header(
      "Simnet rank scheduling: host cost per rank-step as P grows");

  constexpr int kSteps = 30;  // enough steps that steady-state park/wake
                              // cost dominates per-run machine setup
  constexpr int kTrials = 5;
  constexpr double kRatioGate = 2.5;

  // Best-of-N wall clock (host noise is one-sided). The baton makes the
  // workload sequential — at most one rank is runnable — so the gated runs
  // are pinned to ONE worker: that is the right pool for the workload, and
  // it keeps the measurement machine-independent (with a core-count pool,
  // every hop would wake a *sleeping* worker — futex + cross-core handoff —
  // and the gate would measure the host's core topology instead of the
  // scheduler mechanism).
  const Timed p64 = time_run(64, kSteps, kTrials, /*workers=*/1);
  const Timed p64_pool = time_run(64, kSteps, /*trials=*/1, /*workers=*/0);
  const Timed p256 = time_run(256, kSteps, kTrials, /*workers=*/1);
  const Timed p1024 = time_run(1024, kSteps, kTrials, /*workers=*/1);

  const auto us_per_rank_step = [](const Timed& t, int p) {
    return t.best_ms * 1e3 / (static_cast<double>(p) * kSteps);
  };
  const double p64_us = us_per_rank_step(p64, 64);
  const double p1024_us = us_per_rank_step(p1024, 1024);
  const double ratio = p1024_us / p64_us;
  const bool times_match = virtual_times_match(p64.result, p64_pool.result);
  const bool sweep_ok =
      p1024.result.finish_times.size() == static_cast<std::size_t>(1024);

  Table table("Scheduler wall clock (message-dominated step, best of " +
                  std::to_string(kTrials) + " where W=1)",
              {"P", "Workers", "Steps", "Wall ms", "us/rank-step",
               "Virtual s"});
  auto add_row = [&](int p, const char* workers, const Timed& t) {
    table.add_row({std::to_string(p), workers, std::to_string(kSteps),
                   Table::num(t.best_ms, 2),
                   Table::num(us_per_rank_step(t, p), 3),
                   Table::num(t.result.makespan(), 4)});
  };
  add_row(64, "1", p64);
  add_row(64, "default", p64_pool);
  add_row(256, "1", p256);
  add_row(1024, "1", p1024);
  agcm::bench::emit_table(report, table);

  agcm::bench::print_note(
      "gate: host cost per rank-step at P=1024 <= " +
      Table::num(kRatioGate, 1) + "x that at P=64 (got " +
      Table::num(ratio, 2) + "x); virtual times at W=1 vs default W " +
      (times_match ? "bit-identical" : "DIVERGED"));

  report.set("p64_wall_ms", p64.best_ms);
  report.set("p64_us_per_rank_step", p64_us);
  report.set("p1024_us_per_rank_step", p1024_us);
  report.set("p1024_over_p64_ratio", ratio);
  report.set("gate_ratio_max", kRatioGate);
  report.set("virtual_times_match", times_match);
  report.set("p1024_wall_ms", p1024.best_ms);
  report.set("p1024_completed", sweep_ok);

  bool ok = true;
  if (!times_match) {
    std::fprintf(stderr,
                 "virtual times diverged between 1 worker and the default "
                 "worker pool\n");
    ok = false;
  }
  if (ratio > kRatioGate) {
    std::fprintf(stderr,
                 "P-scaling gate failed: %.2fx (<= %.1fx required)\n", ratio,
                 kRatioGate);
    ok = false;
  }
  if (!sweep_ok) {
    std::fprintf(stderr, "P=1024 run did not complete\n");
    ok = false;
  }
  report.set("gates_passed", ok);
  report.finish();
  return ok ? 0 : 1;
}
