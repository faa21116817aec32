// Scaling-model sweep: fits Extra-P-style performance models to the
// paper's three headline scaling claims and gates on the result.
//
//  Sweep A (resolution): on a fixed 1x4 T3D mesh, sweep the zonal
//    resolution nlon in {48..288} with nlat/nlev fixed, so the filtered
//    line count is constant and the per-phase virtual cost isolates the
//    per-line complexity. The convolution filter must fit ~x^2 and the
//    FFT spectral stage ("filter.fft-lines") must fit ~x*log2(x) — and
//    the convolution exponent must asymptotically dominate the FFT one,
//    which is the paper's entire argument for the filter rewrite
//    (Section 3.2, Tables 8-11). The partitioned overlap-save backend
//    ("filter.partition-lines", docs/filter.md) rides the same sweep and
//    must land in a quasi-linear class that convolution also dominates.
//
//  Sweep B (ranks): with nlon fixed at 144, sweep the mesh width P in
//    {2..16} and fit the per-rank *message count* of the FFT filter
//    against P: the line transpose exchanges with (P-1) partners in each
//    direction, so messages per rank must grow ~linearly in P. (The
//    transpose's per-rank *time* is not monotone in P at this size —
//    per-rank bytes shrink like 1/P while the message count grows — so
//    the message count is the clean observable for the latency-side
//    claim the paper makes about transpose scaling.)
//
//  Sweep C (imbalance): re-runs the Tables 1-3 physics load-balance
//    pipeline on the 8x8 T3D mesh and gates the paper's conclusion:
//    imbalance starts around 35-48% and two Scheme-3 pairwise iterations
//    push it to ~5-6% (we gate before >= 25%, after <= 8%).
//
// All inputs to the fits are virtual seconds from the deterministic
// multicomputer, the fits themselves are pure arithmetic, and both
// artefacts (BENCH_scaling_model.json, PERF_MODEL.json) are
// insertion-ordered with shortest-exact numbers — so byte-identical
// across runs, and diffed against committed baselines by
// tools/perf_diff.py in CI.
//
// The bench is self-gating: any failed verdict or gate exits non-zero
// after writing the artefacts, so CI catches a complexity-class
// regression (say, the FFT filter silently degrading to quadratic) as a
// red build, not as a number nobody reads.
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "comm/mesh2d.hpp"
#include "dynamics/dynamics.hpp"
#include "filter/variants.hpp"
#include "loadbalance/schemes.hpp"
#include "perfmodel/report.hpp"
#include "physics/physics.hpp"
#include "simnet/machine.hpp"
#include "trace/stream_sink.hpp"
#include "util/stats.hpp"

namespace agcm {
namespace {

using bench::print_header;
using bench::print_note;

constexpr int kSweepNlev = 4;   ///< filter sweeps (thin: isolates per-line cost)
constexpr int kSweepNlat = 90;  ///< fixed so the filtered line count is fixed
constexpr int kTimedApplies = 2;

/// Per-phase max-over-ranks virtual seconds for one sweep cell.
using PhaseSeconds = std::map<std::string, double>;

struct FilterCell {
  PhaseSeconds phases;       ///< per-apply max-rank virtual seconds
  double max_rank_msgs = 0;  ///< max-over-ranks comm.messages_sent, per apply
};

/// Runs one filter sweep cell on a 1 x `cols` T3D mesh and returns the
/// per-phase max-rank times (per timed apply) for the requested
/// algorithms, plus the per-rank message count from the comm counters.
/// The tracer and metrics registry are cycled per cell and the trace is
/// drained into `sink`, so memory stays bounded no matter how long the
/// sweep is.
FilterCell run_filter_cell(int nlon, int cols,
                           const std::vector<filter::FilterAlgorithm>& algos,
                           trace::StreamingTraceSink& sink) {
  const auto profile = simnet::MachineProfile::cray_t3d();
  simnet::Machine machine(profile);
  trace::Tracer::instance().begin_run(cols);
  trace::MetricsRegistry::instance().reset();

  machine.run(cols, [&](simnet::RankContext& ctx) {
    comm::Communicator world(ctx);
    comm::Mesh2D mesh(world, 1, cols);
    const grid::LatLonGrid grid(nlon, kSweepNlat, kSweepNlev);
    const grid::Decomp2D decomp(nlon, kSweepNlat, 1, cols);
    const auto box = decomp.box(mesh.coord());

    const filter::FilterBank bank(grid,
                                  dynamics::Dynamics::filtered_variables());
    dynamics::State state(box, kSweepNlev);
    dynamics::initialize_state(state, grid, box, 1996);
    grid::Array3D<double>* fields[] = {&state.u, &state.v, &state.h,
                                       &state.theta, &state.q};

    for (const filter::FilterAlgorithm algo : algos) {
      auto filter = filter::make_filter(algo, mesh, decomp, bank);
      // Warm apply outside tracing? No: tracing is on for the whole cell,
      // and every rank does the same number of applies, so the per-apply
      // division below stays exact. Warm-up only matters for host timing.
      filter->apply(fields);
      world.barrier();
      for (int s = 0; s < kTimedApplies; ++s) {
        filter->apply(fields);
        world.barrier();
      }
    }
  });

  FilterCell out;
  const auto phases = trace::aggregate_phases(trace::Tracer::instance());
  for (const auto& phase : phases) {
    // 1 warm + kTimedApplies applies were traced; report per-apply cost.
    out.phases[phase.name] = phase.max_rank_sec / (1.0 + kTimedApplies);
  }
  for (const auto& [rank, count] :
       trace::MetricsRegistry::instance().per_rank("comm.messages_sent")) {
    (void)rank;
    out.max_rank_msgs =
        std::max(out.max_rank_msgs, count / (1.0 + kTimedApplies));
  }
  sink.drain(trace::Tracer::instance());
  return out;
}

/// Tables 1-3 methodology on the 8x8 T3D mesh: measured physics column
/// costs, Scheme-3 pairwise exchange, imbalance before / after two
/// iterations.
struct ImbalanceResult {
  double before = 0.0;
  double after = 0.0;
  int iterations = 0;
};

ImbalanceResult run_imbalance_cell() {
  const auto profile = simnet::MachineProfile::cray_t3d();
  simnet::Machine machine(profile);
  const int rows = 8, cols = 8;
  lb::ItemLists lists(static_cast<std::size_t>(rows * cols));

  machine.run(rows * cols, [&](simnet::RankContext& ctx) {
    comm::Communicator world(ctx);
    comm::Mesh2D mesh(world, rows, cols);
    const grid::LatLonGrid grid(144, 90, 9);
    const grid::Decomp2D decomp(144, 90, rows, cols);
    const auto box = decomp.box(mesh.coord());

    physics::PhysicsConfig cfg;
    cfg.column.nlev = 9;
    cfg.column.seed = 1996;
    physics::Physics phys(mesh, decomp, grid, cfg);
    dynamics::State state(box, 9);
    dynamics::initialize_state(state, grid, box, 1996);
    for (int s = 0; s < 2; ++s) {
      phys.step(state);
      state.time_sec += 450.0;
      ++state.step;
    }

    auto& mine = lists[static_cast<std::size_t>(world.rank())];
    const auto costs = phys.column_cost_estimates();
    for (std::size_t c = 0; c < costs.size(); ++c) {
      const auto id = static_cast<std::uint64_t>(world.rank()) * 100000 + c;
      mine.push_back({id, costs[c] / profile.flops_per_sec});
    }
  });

  lb::PairwiseOptions options;
  options.max_iterations = 2;
  options.tolerance = 0.02;
  const lb::PairwiseResult plan = lb::plan_pairwise(lists, options);

  ImbalanceResult result;
  result.before = load_imbalance(lb::loads_of(lists));
  result.after = load_imbalance(lb::loads_after(lists, plan.dest));
  result.iterations = plan.iterations;
  return result;
}

Table series_table(const perfmodel::PhaseModel& model) {
  Table table("Scaling series: " + model.series.phase + " vs " +
                  model.series.parameter,
              {model.series.parameter, model.series.metric, "model(x)"});
  for (std::size_t i = 0; i < model.series.x.size(); ++i) {
    table.add_row({Table::num(model.series.x[i], 0),
                   Table::num(model.series.y[i], 9),
                   Table::num(model.fit.evaluate(model.series.x[i]), 9)});
  }
  return table;
}

void print_fit(const perfmodel::PhaseModel& model) {
  std::printf("  %-28s -> %-18s (r2 %.4f, cv_rmse %.3e) [%s] %s\n",
              model.series.phase.c_str(), model.fit.label().c_str(),
              model.fit.r2, model.fit.cv_rmse,
              model.verdict.pass ? "PASS" : "FAIL",
              model.verdict.reason.c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace agcm

int main(int argc, char** argv) {
  using namespace agcm;
  auto opts = bench::BenchOptions::parse(argc, argv, "scaling_model");
  // This bench IS the tracing consumer: phase aggregates feed the fits, so
  // tracing is always on and the trace streams to disk through the
  // bounded-memory sink instead of JsonReport's end-of-run exporter.
  trace::set_enabled(true);
  const std::string trace_path = opts.trace_path;
  opts.trace = false;
  bench::JsonReport report(opts);
  bench::g_report = &report;
  trace::MetricsRegistry::instance().reset();

  std::string perf_model_path = "PERF_MODEL.json";
  if (const char* env = std::getenv("AGCM_PERF_MODEL")) perf_model_path = env;

  print_header(
      "Scaling-model sweep: Extra-P-style per-phase performance models");
  print_note(
      "Fits y = c0 + c1 * x^a * log2(x)^b over a PMNF hypothesis grid to\n"
      "per-phase virtual times from (resolution, ranks) sweeps, then gates\n"
      "the paper's complexity claims: conv filter ~x^2, FFT stage\n"
      "~x*log2(x) (and asymptotically dominated by conv), transpose ~x in\n"
      "ranks, physics imbalance <= 8% after two pairwise iterations.\n");

  trace::StreamingTraceSink sink(trace_path);
  sink.begin(256);  // thread metadata up to the largest cell (P=256 sweep B)

  perfmodel::ModelReport model_report("scaling_model");
  {
    trace::JsonValue cfg = trace::JsonValue::object();
    cfg.set("machine", "cray_t3d");
    cfg.set("sweep_nlon", trace::JsonValue::array());
    model_report.set_config("machine", "cray_t3d");
    model_report.set_config("nlat", kSweepNlat);
    model_report.set_config("nlev", kSweepNlev);
    model_report.set_config("timed_applies", kTimedApplies);
  }

  // --- Sweep A: resolution ---------------------------------------------------
  const std::vector<int> nlons = {48, 72, 96, 144, 216, 288};
  perfmodel::Series conv_series{"filter.convolution-ring", "nlon",
                                "max_rank_sec", {}, {}};
  perfmodel::Series fft_series{"filter.fft-lines", "nlon", "max_rank_sec",
                               {}, {}};
  perfmodel::Series partition_series{"filter.partition-lines", "nlon",
                                     "max_rank_sec", {}, {}};
  for (const int nlon : nlons) {
    const FilterCell cell = run_filter_cell(
        nlon, 4,
        {filter::FilterAlgorithm::kConvolutionRing,
         filter::FilterAlgorithm::kFftTranspose,
         filter::FilterAlgorithm::kConvolutionPartitioned},
        sink);
    conv_series.add(nlon, cell.phases.at("filter.convolution-ring"));
    fft_series.add(nlon, cell.phases.at("filter.fft-lines"));
    partition_series.add(nlon, cell.phases.at("filter.partition-lines"));
    std::printf(
        "  nlon %3d: conv %.6f s  fft-lines %.6f s  partition-lines %.6f s  "
        "(per apply)\n",
        nlon, conv_series.y.back(), fft_series.y.back(),
        partition_series.y.back());
  }
  std::printf("\n");

  // Note the window admits b = 1 at the low end of the exponent range:
  // over a 6x sweep the grid neighbours x^2 and x^1.75 * log2(x) are
  // numerically aliased (both fit with r2 ~ 1), and leave-one-out CV may
  // legitimately pick either. The domination gate below still requires
  // the convolution class to beat the FFT class by >= 0.5 in the power
  // exponent, so the claim being enforced is unchanged.
  perfmodel::Expectation conv_expect;
  conv_expect.expected = "~ x^2 (per-line convolution, Section 3.2)";
  conv_expect.min_a = 1.75;
  conv_expect.max_a = 2.25;
  conv_expect.min_b = 0;
  conv_expect.max_b = 1;
  conv_expect.min_r2 = 0.97;

  perfmodel::Expectation fft_expect;
  fft_expect.expected = "~ x log2(x) (spectral filtering, Section 3.2)";
  fft_expect.min_a = 0.75;
  fft_expect.max_a = 1.25;
  fft_expect.min_b = 0;
  fft_expect.max_b = 2;
  fft_expect.min_r2 = 0.97;

  // The partitioned backend at L = nlon: the auto-selected block grows
  // roughly with nlon, so the optimum cost stays in the quasi-linear
  // x*log class — the window admits the same grid neighbourhood as the
  // whole-line FFT, just shifted by the block-selection staircase.
  perfmodel::Expectation partition_expect;
  partition_expect.expected =
      "~ x log2(x) (partitioned overlap-save, docs/filter.md)";
  partition_expect.min_a = 0.5;
  partition_expect.max_a = 1.5;
  partition_expect.min_b = 0;
  partition_expect.max_b = 2;
  partition_expect.min_r2 = 0.97;

  perfmodel::PhaseModel conv_model =
      perfmodel::analyze(std::move(conv_series), conv_expect);
  perfmodel::PhaseModel fft_model =
      perfmodel::analyze(std::move(fft_series), fft_expect);
  perfmodel::PhaseModel partition_model =
      perfmodel::analyze(std::move(partition_series), partition_expect);

  // --- Sweep B: ranks --------------------------------------------------------
  // Two decades of P (2 -> 256), feasible only because the fiber-scheduled
  // machine (docs/simnet.md) runs hundreds of virtual ranks without
  // hundreds of OS threads. nlon = 288 keeps >= 1 zonal column per rank at
  // the widest cell (uneven 2/1-column boxes at P = 256 are exercised
  // deliberately).
  const std::vector<int> widths = {2, 4, 8, 16, 32, 64, 128, 256};
  perfmodel::Series transpose_series{"filter.fft-transpose", "ranks",
                                     "max_rank_messages", {}, {}};
  for (const int cols : widths) {
    const FilterCell cell = run_filter_cell(
        288, cols, {filter::FilterAlgorithm::kFftTranspose}, sink);
    transpose_series.add(cols, cell.max_rank_msgs);
    std::printf(
        "  ranks %2d: transpose %.6f s, %.1f messages/rank (per apply)\n",
        cols, cell.phases.at("filter.transpose"), cell.max_rank_msgs);
  }
  std::printf("\n");

  perfmodel::Expectation transpose_expect;
  transpose_expect.expected =
      "~ x messages per rank ((P-1) transpose partners, Section 3.2)";
  transpose_expect.min_a = 0.75;
  transpose_expect.max_a = 1.25;
  transpose_expect.min_b = 0;
  transpose_expect.max_b = 1;
  transpose_expect.min_r2 = 0.97;

  perfmodel::PhaseModel transpose_model =
      perfmodel::analyze(std::move(transpose_series), transpose_expect);

  print_note("Fitted models:");
  print_fit(conv_model);
  print_fit(fft_model);
  print_fit(partition_model);
  print_fit(transpose_model);
  std::printf("\n");

  // --- Sweep C: physics load imbalance --------------------------------------
  const ImbalanceResult imbalance = run_imbalance_cell();
  std::printf(
      "  physics imbalance (8x8 T3D): before %.1f%%, after two pairwise "
      "iterations %.1f%% (%d iterations run)\n\n",
      100.0 * imbalance.before, 100.0 * imbalance.after,
      imbalance.iterations);

  // --- Gates -----------------------------------------------------------------
  const bool conv_dominates =
      perfmodel::dominates(conv_model.fit.hyp, fft_model.fit.hyp) &&
      conv_model.fit.hyp.a >= fft_model.fit.hyp.a + 0.5;
  const bool conv_dominates_partition =
      perfmodel::dominates(conv_model.fit.hyp, partition_model.fit.hyp) &&
      conv_model.fit.hyp.a >= partition_model.fit.hyp.a + 0.5;
  const bool imbalance_before_ok = imbalance.before >= 0.25;
  const bool imbalance_after_ok = imbalance.after <= 0.08;

  model_report.add_phase(conv_model);
  model_report.add_phase(fft_model);
  model_report.add_phase(partition_model);
  model_report.add_phase(transpose_model);
  model_report.add_gate(
      "conv_dominates_fft", conv_dominates,
      "convolution class " + conv_model.fit.label() +
          " must asymptotically dominate FFT class " + fft_model.fit.label() +
          " by >= 0.5 in the power exponent");
  model_report.add_gate(
      "conv_dominates_partition", conv_dominates_partition,
      "convolution class " + conv_model.fit.label() +
          " must asymptotically dominate the partitioned overlap-save class " +
          partition_model.fit.label() + " by >= 0.5 in the power exponent");
  model_report.add_gate(
      "imbalance_before", imbalance_before_ok,
      "pre-LB physics imbalance must be >= 25% (paper: 35-48%)");
  model_report.add_gate(
      "imbalance_after", imbalance_after_ok,
      "post-LB physics imbalance must be <= 8% (paper: 5-6%)");
  model_report.write(perf_model_path);
  std::printf("wrote %s\n", perf_model_path.c_str());

  // Close the streamed trace before the report (so both artefacts exist
  // even if the gate below fails the process).
  sink.close();
  std::printf("wrote %s (chrome://tracing, %zu spans streamed)\n",
              trace_path.c_str(), sink.spans_written());

  // Structured mirror in BENCH_scaling_model.json (the fields
  // tools/check_bench_json.py and tools/perf_diff.py key on).
  report.set("perf_model_path", perf_model_path);
  report.set("fit_conv_exponent_a", conv_model.fit.hyp.a);
  report.set("fit_conv_log_power_b", conv_model.fit.hyp.b);
  report.set("fit_fft_exponent_a", fft_model.fit.hyp.a);
  report.set("fit_fft_log_power_b", fft_model.fit.hyp.b);
  report.set("fit_partition_exponent_a", partition_model.fit.hyp.a);
  report.set("fit_partition_log_power_b", partition_model.fit.hyp.b);
  report.set("fit_transpose_exponent_a", transpose_model.fit.hyp.a);
  report.set("fit_transpose_log_power_b", transpose_model.fit.hyp.b);
  report.set("conv_dominates_fft", conv_dominates);
  report.set("conv_dominates_partition", conv_dominates_partition);
  report.set("imbalance_before", imbalance.before);
  report.set("imbalance_after", imbalance.after);
  report.set("all_pass", model_report.all_pass());
  report.set("perf_model", model_report.to_json());

  // Rebuild the metrics snapshot from the sweep series (the registry was
  // cycled per cell above): the distributions exercise the log-binned
  // histogram percentiles (p50/p95/p99) in a deterministic artefact.
  trace::MetricsRegistry::instance().reset();
  for (const double v : conv_model.series.y)
    trace::MetricsRegistry::instance().observe("scaling.conv_cell_sec", v);
  for (const double v : fft_model.series.y)
    trace::MetricsRegistry::instance().observe("scaling.fft_cell_sec", v);
  for (const double v : partition_model.series.y)
    trace::MetricsRegistry::instance().observe("scaling.partition_cell_sec",
                                               v);
  for (const double v : transpose_model.series.y)
    trace::MetricsRegistry::instance().observe("scaling.transpose_cell_msgs",
                                               v);
  report.add_metrics();

  bench::emit_table(series_table(conv_model));
  bench::emit_table(series_table(fft_model));
  bench::emit_table(series_table(partition_model));
  bench::emit_table(series_table(transpose_model));
  report.finish();

  if (!model_report.all_pass()) {
    std::fprintf(stderr,
                 "scaling-model gate FAILED: see PERF_MODEL verdicts above\n");
    return 1;
  }
  print_note("scaling-model gate PASSED: all verdicts and gates hold.");
  return 0;
}
