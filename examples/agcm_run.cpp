// Config-file-driven model driver: the closest thing to "running the AGCM"
// as a production tool. Reads a key = value config (see configs/*.cfg),
// integrates, prints the run report, and — when the config asks for it —
// records a virtual-time trace (docs/observability.md):
//
//   trace      = true          # per-phase table on stdout
//   trace_json = my_trace.json # Chrome trace (chrome://tracing, Perfetto)
//   trace_csv  = my_trace.csv  # one line per span, for pandas
//
//   $ ./agcm_run ../configs/t3d_240nodes.cfg
#include <cstdio>
#include <string>

#include "core/config_load.hpp"
#include "core/model.hpp"
#include "io/config.hpp"
#include "trace/export.hpp"
#include "trace/tracer.hpp"
#include "util/logging.hpp"

int main(int argc, char** argv) {
  using namespace agcm;
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <config-file>\n", argv[0]);
    return 2;
  }

  try {
    const io::Config config = io::Config::from_file(argv[1]);
    const core::RunSpec spec = core::run_spec_from(config);

    for (const std::string& key : config.unused_keys())
      log::warn("config key '{}' was not recognised", key);

    const core::ModelConfig& model = spec.model;
    std::printf("AGCM %dx%dx%d on %s, %dx%d nodes, filter=%s\n", model.nlon,
                model.nlat, model.nlev, model.machine.name.c_str(),
                model.mesh_rows, model.mesh_cols,
                std::string(filter::algorithm_name(model.filter_algorithm))
                    .c_str());

    if (spec.trace) trace::set_enabled(true);
    const core::RunReport report =
        core::run_model(model, spec.steps, spec.warmup_steps);

    std::printf("\nseconds per simulated day (virtual):\n");
    std::printf("  filtering  %10.1f\n", report.filter_per_day());
    std::printf("  dynamics   %10.1f\n", report.dynamics_per_day());
    std::printf("  physics    %10.1f\n", report.physics_per_day());
    std::printf("  total      %10.1f\n", report.total_per_day());
    std::printf("diagnostics: mass drift %.2e, zonal Courant %.3f, ",
                report.mass_drift_rel, report.max_zonal_courant);
    // With LB off the imbalance is never computed: say so, not 0%.
    if (model.physics_load_balance) {
      std::printf("physics imbalance %.1f%% -> %.1f%%\n",
                  100.0 * report.physics_imbalance_before,
                  100.0 * report.physics_imbalance_after);
    } else {
      std::printf("physics imbalance n/a (load balancing off)\n");
    }

    if (spec.trace) {
      const auto& tracer = trace::Tracer::instance();
      print_table(trace::phase_table(trace::aggregate_phases(tracer)));
      if (!spec.trace_json_path.empty()) {
        trace::write_chrome_trace(tracer, spec.trace_json_path);
        std::printf("wrote %s (chrome://tracing)\n",
                    spec.trace_json_path.c_str());
      }
      if (!spec.trace_csv_path.empty()) {
        trace::write_trace_csv(tracer, spec.trace_csv_path);
        std::printf("wrote %s\n", spec.trace_csv_path.c_str());
      }
    }
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
