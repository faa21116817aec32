#include "workloads.hpp"

#include <algorithm>
#include <stdexcept>

#include "io/config.hpp"

namespace agcm::hostbench {

namespace {

// configs/t3d_240nodes.cfg: the paper's headline run.
constexpr const char* kT3d240 = R"(
nlon = 144
nlat = 90
nlev = 9
mesh_rows = 8
mesh_cols = 30
dt_sec = 450
machine = t3d
filter_algorithm = fft-load-balanced
physics = true
physics_load_balance = true
)";

// configs/paragon_original.cfg: the original code before optimisation.
constexpr const char* kParagon16 = R"(
nlon = 144
nlat = 90
nlev = 9
mesh_rows = 4
mesh_cols = 4
dt_sec = 450
machine = paragon
filter_algorithm = convolution-ring
physics = true
physics_load_balance = false
optimized_advection = false
)";

}  // namespace

const std::vector<Workload>& workloads() {
  // name, config, warm-up steps, timed steps: each repetition lasts about
  // one host second.
  static const std::vector<Workload> all = {
      {"flagship_t3d240", kT3d240, 1, 2},
      {"original_paragon16", kParagon16, 1, 8},
      {"dense_lb_t3d240", std::string(kT3d240) + "lb_scheme = cyclic\n", 1,
       1},
  };
  return all;
}

const Workload& find_workload(std::string_view name) {
  for (const Workload& w : workloads())
    if (w.name == name) return w;
  throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
}

HostPlan host_plan(int nproc) {
  HostPlan plan;
  plan.nproc = std::max(1, nproc);
  plan.fiber_workers = std::max(1, plan.nproc / 2);
  return plan;
}

std::string generated_config(const Workload& workload, std::uint64_t seed,
                             const HostPlan& plan) {
  // The config dialect reads `seed` as an int.
  const std::uint64_t model_seed = seed % 2147483648ULL;
  std::string text = workload.config;
  text += "seed = " + std::to_string(model_seed) + "\n";
  text += "simnet_backend = fibers\n";
  text += "simnet_workers = " + std::to_string(plan.fiber_workers) + "\n";
  text += "warmup_steps = " + std::to_string(workload.warmup_steps) + "\n";
  text += "steps = " + std::to_string(workload.steps) + "\n";
  return text;
}

core::RunSpec model_spec(const Workload& workload, std::uint64_t seed,
                         const HostPlan& plan) {
  return core::run_spec_from(
      io::Config::from_string(generated_config(workload, seed, plan)));
}

}  // namespace agcm::hostbench
