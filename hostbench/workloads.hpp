// The benchmark's workloads and the host plan they run under.
//
// Each workload embeds its paper configuration as `key = value` text, so a
// later edit to configs/ cannot silently change what the benchmark
// measures. The seed and the host-execution knobs are appended to that text
// and the program receives only the generated config.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/config_load.hpp"

namespace agcm::hostbench {

/// Why each workload exists is recorded in BENCHMARK.json.
struct Workload {
  std::string name;
  /// Paper configuration text (io::Config dialect), without seed, worker
  /// counts or step counts.
  std::string config;
  /// Warm-up and timed steps of one run_model call.
  int warmup_steps = 1;
  int steps = 1;
};

const std::vector<Workload>& workloads();

/// Throws std::invalid_argument for an unknown name.
const Workload& find_workload(std::string_view name);

/// Host threads the benchmark uses: half the CPUs it may run on. The
/// simulator's ranks meet at barriers, so one preempted worker stalls them
/// all; leaving half the host to its neighbours keeps their bursts of load
/// from preempting the benchmark's workers.
struct HostPlan {
  int nproc = 1;
  int fiber_workers = 1;  ///< max(1, nproc / 2)
};

HostPlan host_plan(int nproc);

/// The workload's config text with the seed and host knobs appended.
std::string generated_config(const Workload& workload, std::uint64_t seed,
                             const HostPlan& plan);

/// The model run a workload measures, parsed from generated_config().
core::RunSpec model_spec(const Workload& workload, std::uint64_t seed,
                         const HostPlan& plan);

}  // namespace agcm::hostbench
