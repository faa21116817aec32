// hostbench: host-clock benchmark of the AGCM simulator.
//
//   hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 is the untraced end-to-end run: it calls core::run_model
// unchanged and reports host_s_per_step, setup_s, cells_per_s and
// peak_rss_mib. --trace 1 is the separate traced run: the mirror of
// run_model's rank loop, the per-layer probes and the campaign layer. The
// last stdout line is the result object (report.hpp); the line
// before it records the host facts the numbers depend on. Virtual-clock
// results are correctness outputs only. See README.md.
#include <sched.h>

#include <algorithm>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "campaign/runner.hpp"
#include "campaign/store.hpp"
#include "kernels/simd/dispatch.hpp"
#include "probes.hpp"
#include "report.hpp"
#include "timing.hpp"
#include "util/shared_cache.hpp"
#include "workloads.hpp"

#ifndef HOSTBENCH_BUILD_TYPE
#define HOSTBENCH_BUILD_TYPE "unknown"
#endif

namespace agcm::hostbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
};

constexpr const char* kUsage =
    "usage: hostbench --workload <name> --seed <n> --seconds <s> "
    "--trace <0|1>\n";

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    std::size_t used = 0;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value, &used);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value, &used);
      if (!(args.seconds > 0.0 && args.seconds <= 600.0))
        throw std::invalid_argument("--seconds must be in (0, 600]");
    } else if (flag == "--trace") {
      args.trace = std::stoi(value, &used);
      if (args.trace != 0 && args.trace != 1)
        throw std::invalid_argument("--trace must be 0 or 1");
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
    if (flag != "--workload" && used != value.size())
      throw std::invalid_argument("malformed value for " + flag);
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return args;
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

int total_steps(const core::RunSpec& spec) {
  return spec.warmup_steps + spec.steps;
}

// At least this many timed repetitions, however short --seconds is.
constexpr int kMinReps = 3;

// Set-up repetitions run between the timed repetitions, so that its
// samples span the whole run and a burst of host load cannot set its median.
constexpr int kSetupsPerRep = 4;
// Untraced reference and traced mirror runs in the traced run.
constexpr int kTracedPairs = 2;

// ---------------------------------------------------------------------------
// Untraced end-to-end runs.

void untraced(const Workload& w, const Args& args, const HostPlan& plan,
                    Result& out) {
  const core::RunSpec spec = model_spec(w, args.seed, plan);
  const core::ModelConfig& config = spec.model;

  // Set-up, cold: every agcm_run process starts with empty caches.
  std::vector<double> setup;
  std::optional<simnet::RunResult> first_setup;
  const auto measure_setup = [&] {
    util::SharedCaches::clear_all();
    const SetupRun run = run_setup(config, false);
    setup.push_back(run.wall_s);
    if (!first_setup) {
      first_setup = run.result;
    } else if (run.result.total_messages != first_setup->total_messages ||
               run.result.total_bytes != first_setup->total_bytes) {
      out.fail("set-up traffic differs between repetitions");
    }
  };

  std::vector<double> per_step;
  std::vector<double> runs_per_s;
  std::optional<core::RunReport> first;
  const double deadline = now_s() + args.seconds;
  for (int r = 0; r < kMinReps || now_s() < deadline; ++r) {
    for (int s = 0; s < kSetupsPerRep; ++s) measure_setup();
    util::SharedCaches::clear_all();
    core::RunReport report;
    double wall = 0.0;
    try {
      wall = time_s([&] {
        report = core::run_model(config, spec.steps, spec.warmup_steps);
      });
    } catch (const std::exception& e) {
      out.attempt(false);
      out.fail(std::string("run_model threw: ") + e.what());
      continue;
    }
    bool ok = true;
    for (const std::string& v : report_violations(config, report)) {
      out.fail(v);
      ok = false;
    }
    if (!first) {
      first = report;
    } else {
      for (const std::string& d : report_mismatches(*first, report)) {
        out.fail("repetition " + std::to_string(r) + " differs: " + d);
        ok = false;
      }
    }
    out.attempt(ok);
    per_step.push_back(wall / total_steps(spec));
    runs_per_s.push_back(1.0 / wall);
  }
  out.add("host_s_per_step", median(per_step), "s");
  out.add("setup_s", median(setup), "s");
  out.add("cells_per_s", median(runs_per_s), "cells/s");
  out.add("peak_rss_mib", peak_rss_mib(), "MiB");
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// One cold pass over a campaign. Returns the results, or nothing if the
/// runner threw (every cell then counts as failed).
std::optional<std::vector<campaign::CellResult>> campaign_pass(
    const campaign::Campaign& matrix, const campaign::RunnerOptions& options,
    double& wall, Result& out) {
  util::SharedCaches::clear_all();
  try {
    std::vector<campaign::CellResult> results;
    wall = time_s([&] { results = campaign::run_campaign(matrix, options); });
    return results;
  } catch (const std::exception& e) {
    for (std::size_t c = 0; c < matrix.cells.size(); ++c) out.attempt(false);
    out.fail(std::string("run_campaign threw: ") + e.what());
    return std::nullopt;
  }
}

/// Checks every cell of a pass against its virtual-result rules and the
/// first pass's --no-wall store line; counts one attempt per cell.
void check_pass(const campaign::Campaign& matrix,
                const std::vector<campaign::CellResult>& results,
                std::vector<std::string>& first_lines, Result& out) {
  const std::vector<std::string> lines =
      split_lines(campaign::store_lines(matrix.name, results, false));
  if (first_lines.empty()) first_lines = lines;
  for (std::size_t c = 0; c < results.size(); ++c) {
    bool ok = true;
    for (const std::string& v :
         report_violations(results[c].cell.spec.model, results[c].report)) {
      out.fail(results[c].cell.name + ": " + v);
      ok = false;
    }
    if (c >= lines.size() || c >= first_lines.size() ||
        lines[c] != first_lines[c]) {
      out.fail(results[c].cell.name + ": store record differs between passes");
      ok = false;
    }
    out.attempt(ok);
  }
}

// ---------------------------------------------------------------------------
// Traced run: mirror, layer probes, campaign layer.

util::SharedCacheStats stats_of(const std::vector<util::SharedCacheInfo>& all,
                                std::string_view name) {
  for (const util::SharedCacheInfo& cache : all)
    if (cache.name == name) return cache.stats;
  return {};  // never used, so never registered
}

/// Hit ratios of the shared caches between two stats() snapshots.
void add_cache_ratios(const std::vector<util::SharedCacheInfo>& before,
                      const std::vector<util::SharedCacheInfo>& after,
                      Result& out) {
  for (const char* name : {"fft.plans", "filter.banks", "kernels.emissivity"}) {
    const util::SharedCacheStats a = stats_of(after, name);
    const util::SharedCacheStats b = stats_of(before, name);
    const std::uint64_t hits = a.hits - b.hits;
    const std::uint64_t lookups = hits + (a.misses - b.misses);
    out.add(std::string("campaign.cache_hit_ratio.") + name,
            lookups ? static_cast<double>(hits) / static_cast<double>(lookups)
                    : 0.0,
            "ratio");
  }
}

void traced(const Workload& w, const Args& args, const HostPlan& plan,
            Result& out) {
  const core::RunSpec spec = model_spec(w, args.seed, plan);
  const core::ModelConfig& config = spec.model;
  campaign::Campaign one;
  one.name = w.name;
  one.cells.push_back(campaign::make_cell(w.name, spec));
  const campaign::RunnerOptions alone{1, plan.fiber_workers};

  // Untraced reference (run_model through the runner, which times it) and
  // traced mirror, alternated so drift in the host's speed hits both.
  std::vector<double> ref_step, mirror_step, dyn_s, phys_s, cell_s, store_s;
  std::optional<core::RunReport> reference;
  std::optional<MirrorRun> mirror;
  std::vector<std::string> first_lines;
  const auto stats_before = util::SharedCaches::stats();
  for (int p = 0; p < kTracedPairs; ++p) {
    double wall = 0.0;
    const auto results = campaign_pass(one, alone, wall, out);
    if (results) {
      const campaign::CellResult& cell = results->front();
      check_pass(one, *results, first_lines, out);
      ref_step.push_back(cell.wall_sec / total_steps(spec));
      cell_s.push_back(cell.wall_sec);
      store_s.push_back(
          time_s([&] { (void)campaign::store_lines(one.name, *results); }));
      if (!reference) reference = cell.report;
    }
    util::SharedCaches::clear_all();
    try {
      MirrorRun run = run_mirror(config, spec.steps, spec.warmup_steps);
      bool ok = true;
      if (reference) {
        for (const std::string& d : report_mismatches(*reference, run.report)) {
          out.fail("traced mirror differs from run_model: " + d);
          ok = false;
        }
      }
      out.attempt(ok);
      mirror_step.push_back(run.wall_s / total_steps(spec));
      dyn_s.push_back(run.dynamics_s);
      phys_s.push_back(run.physics_s);
      if (!mirror) mirror = std::move(run);
    } catch (const std::exception& e) {
      out.attempt(false);
      out.fail(std::string("traced mirror threw: ") + e.what());
    }
  }
  const auto stats_after = util::SharedCaches::stats();
  if (!reference || !mirror)
    throw std::runtime_error("no complete traced pair");

  const double ref = median(ref_step);
  const double traced_step = median(mirror_step);
  out.add("bench.traced_overhead", traced_step / ref - 1.0, "ratio");
  out.add("mirror.host_s_per_step", traced_step, "s");
  out.add("mirror.dynamics_s", median(dyn_s), "s");
  out.add("mirror.physics_s", median(phys_s), "s");

  const core::RunReport& r = *reference;
  out.add("core.virtual_s_per_day", r.total_per_day(), "virtual_sec");
  out.add("core.virtual.filter_s", r.per_step.filter, "virtual_sec");
  out.add("core.virtual.halo_s", r.per_step.halo, "virtual_sec");
  out.add("core.virtual.fd_s", r.per_step.fd, "virtual_sec");
  out.add("core.virtual.physics_compute_s", r.per_step.physics_compute,
          "virtual_sec");
  out.add("core.virtual.physics_balance_s", r.per_step.physics_balance,
          "virtual_sec");

  // Exact traffic of the step loop: the mirror's totals minus a run that
  // does everything except the steps.
  const SetupRun bookends = run_setup(config, true);
  const double steps = total_steps(spec);
  out.add("simnet.msgs_per_step",
          static_cast<double>(mirror->report.total_messages -
                              bookends.result.total_messages) / steps,
          "count");
  out.add("simnet.bytes_per_step",
          static_cast<double>(mirror->report.total_bytes -
                              bookends.result.total_bytes) / steps,
          "B");

  probe_layers(config, out);

  out.add("campaign.cell_s", median(cell_s), "s");
  out.add("campaign.store_s", median(store_s), "s");
  add_cache_ratios(stats_before, stats_after, out);
}

void print_host_facts(const Workload& w, const Args& args,
                      const HostPlan& plan) {
  trace::JsonValue host = trace::JsonValue::object();
  host.set("workload", w.name);
  host.set("trace", args.trace);
  host.set("seed", args.seed);
  host.set("seconds", args.seconds);
  host.set("nproc", plan.nproc);
  host.set("fiber_workers", plan.fiber_workers);
  host.set("simd_tier", simd::tier_name(simd::info().active));
  host.set("build_type", HOSTBENCH_BUILD_TYPE);
  trace::JsonValue line = trace::JsonValue::object();
  line.set("host", std::move(host));
  std::cout << line.dump() << std::endl;
}

int run(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "hostbench: " << e.what() << "\n" << kUsage;
    return 2;
  }
  const Workload& w = find_workload(args.workload);
  const HostPlan plan = host_plan(online_cpus());
  print_host_facts(w, args, plan);
  Result result;
  if (args.trace == 1) {
    traced(w, args, plan, result);
  } else {
    untraced(w, args, plan, result);
  }
  std::cout << result.json() << std::endl;
  return result.correct() ? 0 : 1;
}

}  // namespace
}  // namespace agcm::hostbench

int main(int argc, char** argv) {
  try {
    return agcm::hostbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "hostbench: " << e.what() << "\n";
    return 1;
  }
}
