// Compositional prediction harness: trains the whole-application
// performance model (perfmodel/predict.hpp) on a designed simnet sweep and
// gates it on held-out configurations it never saw.
//
//  Training: {Paragon, T3D} x three resolutions x four node meshes x four
//    filter backends with physics on (load balancing off), plus
//    load-balanced fft-load-balanced cells on the multi-rank meshes so the
//    lb-on physics trees have signal. Every run is 2 timed steps after one
//    warmup on the deterministic multicomputer, served through the
//    campaign runner (concurrency does not affect virtual times).
//
//  Holdout: configurations off the training grid along every axis the
//    model claims to generalise over — an untrained resolution (144x90),
//    untrained mesh shapes (1x8, 4x1, 4x2, 2x4), an untrained machine
//    (IBM SP-2, exercising the machine-aware drivers), and lb-on cells.
//
//  Gates (the ISSUE's acceptance bars): >= 8 holdout runs, median
//    whole-step relative error < 10%, max < 25%. Any failure exits
//    non-zero after writing the artefacts.
//
// Artefacts: PREDICT_MODEL.json (schema agcm-predict-v1; the fitted
// per-phase composition trees, the holdout table with both predicted and
// actual component times, and the gate verdicts) plus the usual
// BENCH_predict_model.json mirror. Both are insertion-ordered with
// shortest-exact numbers, so byte-identical across runs — CI diffs them
// against committed baselines via tools/perf_diff.py and re-runs the bench
// to prove byte-identity. tests/test_perfmodel.cpp re-evaluates the
// committed baseline's holdout block through perfmodel::predict.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "campaign/matrix.hpp"
#include "campaign/runner.hpp"
#include "core/whatif.hpp"
#include "filter/variants.hpp"
#include "perfmodel/predict.hpp"

namespace agcm {
namespace {

using bench::print_header;
using bench::print_note;

constexpr int kSteps = 2;
constexpr int kWarmup = 1;

struct Resolution {
  int nlon, nlat, nlev;
};

struct Mesh {
  int rows, cols;
};

core::ModelConfig make_config(const simnet::MachineProfile& machine,
                              Resolution res, Mesh mesh,
                              filter::FilterAlgorithm algo, bool lb) {
  core::ModelConfig config;
  config.nlon = res.nlon;
  config.nlat = res.nlat;
  config.nlev = res.nlev;
  config.mesh_rows = mesh.rows;
  config.mesh_cols = mesh.cols;
  config.filter_algorithm = algo;
  config.physics_load_balance = lb;
  config.lb_options.max_iterations = 2;
  config.machine = machine;
  return config;
}

std::string cell_name(const core::ModelConfig& config) {
  std::string name = config.machine.name;
  name += "/" + std::to_string(config.nlon) + "x" +
          std::to_string(config.nlat) + "x" + std::to_string(config.nlev);
  name += "/" + std::to_string(config.mesh_rows) + "x" +
          std::to_string(config.mesh_cols);
  name += "/" + std::string(filter::algorithm_name(config.filter_algorithm));
  name += config.physics_load_balance ? "/lb" : "/nolb";
  return name;
}

/// Runs every config through the campaign runner (4 in flight) and returns
/// the reports in input order.
std::vector<core::RunReport> run_all(
    const std::vector<core::ModelConfig>& configs) {
  campaign::Campaign batch;
  batch.name = "predict_model";
  batch.cells.reserve(configs.size());
  for (const core::ModelConfig& config : configs) {
    core::RunSpec spec;
    spec.model = config;
    spec.steps = kSteps;
    spec.warmup_steps = kWarmup;
    batch.cells.push_back(campaign::make_cell(cell_name(config), spec));
  }
  campaign::RunnerOptions options;
  options.concurrency = 4;
  const std::vector<campaign::CellResult> results =
      campaign::run_campaign(batch, options);
  std::vector<core::RunReport> reports;
  reports.reserve(results.size());
  for (const campaign::CellResult& result : results)
    reports.push_back(result.report);
  return reports;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace
}  // namespace agcm

int main(int argc, char** argv) {
  using namespace agcm;
  auto opts = bench::BenchOptions::parse(argc, argv, "predict_model");
  bench::JsonReport report(opts);
  bench::g_report = &report;

  std::string model_path = "PREDICT_MODEL.json";
  if (const char* env = std::getenv("AGCM_PREDICT_MODEL")) model_path = env;

  print_header(
      "Compositional prediction: train per-phase trees, validate on "
      "held-out configurations");
  print_note(
      "Trains one composition tree per (phase, selector) on a simnet sweep\n"
      "and gates whole-step prediction on holdout runs off the training\n"
      "grid (untested resolution, mesh shapes, machine, and lb setting):\n"
      "median relative error < 10%, max < 25%, >= 8 holdouts.\n");

  // --- Training matrix -------------------------------------------------------
  const std::vector<simnet::MachineProfile> train_machines = {
      simnet::MachineProfile::intel_paragon(),
      simnet::MachineProfile::cray_t3d()};
  const std::vector<Resolution> train_resolutions = {
      {48, 30, 4}, {72, 46, 5}, {96, 64, 5}};
  const std::vector<Mesh> train_meshes = {{1, 1}, {1, 2}, {2, 2}, {2, 4}};
  const std::vector<filter::FilterAlgorithm> train_backends = {
      filter::FilterAlgorithm::kFftTranspose,
      filter::FilterAlgorithm::kFftBalanced,
      filter::FilterAlgorithm::kConvolutionRing,
      filter::FilterAlgorithm::kConvolutionPartitioned};

  std::vector<core::ModelConfig> train_configs;
  for (const auto& machine : train_machines)
    for (const Resolution res : train_resolutions)
      for (const Mesh mesh : train_meshes)
        for (const filter::FilterAlgorithm algo : train_backends)
          train_configs.push_back(make_config(machine, res, mesh, algo, false));
  // lb-on cells (multi-rank only: one rank has no exchange partner).
  for (const auto& machine : train_machines)
    for (const Resolution res : train_resolutions)
      for (const Mesh mesh : train_meshes)
        if (mesh.rows * mesh.cols > 1)
          train_configs.push_back(make_config(
              machine, res, mesh, filter::FilterAlgorithm::kFftBalanced, true));

  std::printf("  training: %zu runs (%d timed steps each)\n",
              train_configs.size(), kSteps);
  const std::vector<core::RunReport> train_reports = run_all(train_configs);

  std::vector<perfmodel::Observation> observations;
  observations.reserve(train_configs.size());
  for (std::size_t i = 0; i < train_configs.size(); ++i)
    observations.push_back(
        core::observation_from(train_configs[i], train_reports[i]));

  const perfmodel::PredictModel model = perfmodel::train_model(observations);

  print_note("\nFitted phase predictors:");
  for (const perfmodel::PhasePredictor& p : model.phases)
    std::printf("  %-16s %-26s r2 %.4f  rmse %.3e  (%d obs, %d terms)\n",
                p.phase.c_str(),
                p.selector.empty() ? "-" : p.selector.c_str(), p.r2, p.rmse,
                p.n_train, p.terms_used);
  std::printf("\n");

  // --- Holdout ---------------------------------------------------------------
  const auto paragon = simnet::MachineProfile::intel_paragon();
  const auto t3d = simnet::MachineProfile::cray_t3d();
  const auto sp2 = simnet::MachineProfile::ibm_sp2();
  const Resolution r144{144, 90, 5};
  const Resolution r96{96, 64, 5};
  const Resolution r72{72, 46, 5};

  const std::vector<core::ModelConfig> holdout_configs = {
      // Untrained resolution (144x90), trained machines.
      make_config(paragon, r144, {1, 4}, filter::FilterAlgorithm::kFftBalanced,
                  false),
      make_config(t3d, r144, {2, 2}, filter::FilterAlgorithm::kFftTranspose,
                  false),
      make_config(t3d, r144, {1, 2},
                  filter::FilterAlgorithm::kConvolutionPartitioned, false),
      // Untrained mesh shapes at trained resolutions.
      make_config(paragon, r72, {1, 8},
                  filter::FilterAlgorithm::kConvolutionRing, false),
      make_config(t3d, r96, {1, 8}, filter::FilterAlgorithm::kFftBalanced,
                  false),
      make_config(paragon, r96, {4, 1}, filter::FilterAlgorithm::kFftTranspose,
                  false),
      // Untrained machine: the drivers carry the machine scalars, so the
      // fitted weights must transfer to the SP-2 unseen.
      make_config(sp2, r72, {2, 2}, filter::FilterAlgorithm::kFftTranspose,
                  false),
      make_config(sp2, r96, {1, 4},
                  filter::FilterAlgorithm::kConvolutionPartitioned, false),
      // Load balancing on, untrained meshes / resolution.
      make_config(paragon, r144, {2, 4}, filter::FilterAlgorithm::kFftBalanced,
                  true),
      make_config(t3d, r72, {4, 2}, filter::FilterAlgorithm::kFftBalanced,
                  true),
  };

  std::printf("  holdout: %zu runs\n\n", holdout_configs.size());
  const std::vector<core::RunReport> holdout_reports =
      run_all(holdout_configs);

  Table table("Holdout validation: predicted vs actual per-step total",
              {"configuration", "actual_sec", "predicted_sec", "rel_err"});
  trace::JsonValue holdout_json = trace::JsonValue::array();
  std::vector<double> errors;
  for (std::size_t i = 0; i < holdout_configs.size(); ++i) {
    const core::ModelConfig& config = holdout_configs[i];
    const core::RunReport& run = holdout_reports[i];
    const perfmodel::Observation obs = core::observation_from(config, run);
    const perfmodel::Prediction predicted =
        core::predict_config(model, config);
    const double actual = obs.actual.total();
    const double rel =
        actual > 0.0 ? std::abs(predicted.total() - actual) / actual : 0.0;
    errors.push_back(rel);

    table.add_row({cell_name(config), Table::num(actual, 6),
                   Table::num(predicted.total(), 6), Table::num(rel, 4)});

    trace::JsonValue entry = trace::JsonValue::object();
    entry.set("name", cell_name(config));
    entry.set("point", perfmodel::point_json(obs.point));
    entry.set("filter_enabled", obs.filter_enabled);
    entry.set("physics_enabled", obs.physics_enabled);
    entry.set("actual", perfmodel::prediction_json(obs.actual));
    entry.set("predicted", perfmodel::prediction_json(predicted));
    entry.set("rel_error", rel);
    holdout_json.push_back(std::move(entry));
  }
  bench::emit_table(table);

  const double median_err = median(errors);
  const double max_err =
      errors.empty() ? 0.0 : *std::max_element(errors.begin(), errors.end());
  std::printf("\n  holdout error: median %.2f%%, max %.2f%% over %zu runs\n\n",
              100.0 * median_err, 100.0 * max_err, errors.size());

  // --- Gates -----------------------------------------------------------------
  struct Gate {
    std::string name;
    bool pass;
    std::string detail;
  };
  const std::vector<Gate> gates = {
      {"holdout_count", errors.size() >= 8,
       "at least 8 held-out configurations (" + std::to_string(errors.size()) +
           " run)"},
      {"median_rel_error", median_err < 0.10,
       "median whole-step relative error < 10%"},
      {"max_rel_error", max_err < 0.25,
       "max whole-step relative error < 25%"},
  };
  bool all_pass = true;
  for (const Gate& gate : gates) {
    all_pass = all_pass && gate.pass;
    std::printf("  gate %-18s [%s] %s\n", gate.name.c_str(),
                gate.pass ? "PASS" : "FAIL", gate.detail.c_str());
  }
  std::printf("\n");

  // --- PREDICT_MODEL.json ----------------------------------------------------
  trace::JsonValue doc = perfmodel::model_to_json(model);
  trace::JsonValue training = trace::JsonValue::object();
  training.set("runs", static_cast<std::int64_t>(train_configs.size()));
  training.set("steps", kSteps);
  training.set("warmup_steps", kWarmup);
  doc.set("training", training);
  doc.set("holdout", holdout_json);
  trace::JsonValue gates_json = trace::JsonValue::array();
  for (const Gate& gate : gates) {
    trace::JsonValue g = trace::JsonValue::object();
    g.set("name", gate.name);
    g.set("pass", gate.pass);
    g.set("detail", gate.detail);
    gates_json.push_back(std::move(g));
  }
  doc.set("gates", gates_json);
  doc.set("median_rel_error", median_err);
  doc.set("max_rel_error", max_err);
  doc.set("all_pass", all_pass);
  trace::write_text_file(model_path, doc.dump_pretty() + "\n");
  std::printf("wrote %s\n", model_path.c_str());

  // Structured mirror (the fields tools/check_bench_json.py and
  // tools/perf_diff.py key on).
  report.set("predict_model_path", model_path);
  report.set("n_train", static_cast<std::int64_t>(train_configs.size()));
  report.set("n_holdout", static_cast<std::int64_t>(errors.size()));
  report.set("median_rel_error", median_err);
  report.set("max_rel_error", max_err);
  report.set("all_pass", all_pass);
  report.set("predict_model", doc);
  report.finish();

  if (!all_pass) {
    std::fprintf(stderr,
                 "predict-model gate FAILED: see gate verdicts above\n");
    return 1;
  }
  print_note("predict-model gate PASSED: all verdicts and gates hold.");
  return 0;
}
