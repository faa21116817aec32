// Reproduces Tables 8-11: total filtering times (seconds/simulated day) for
// the three filter module generations — convolution (the original code),
// FFT without load balance (Section 3.2), FFT with load balance
// (Section 3.3) — on the Paragon and T3D virtual machines for the 9- and
// 15-layer models.
//
// Also prints the derived metrics the paper quotes in Section 4: the
// 240-vs-16-node scaling of the load-balanced FFT filter (4.74 for 9
// layers / 32% parallel efficiency; 5.87 / 39% for 15 layers) and the
// ~5x speedup of the new module over convolution on 240 nodes.
#include <array>
#include <vector>

#include "bench_common.hpp"
#include "comm/mesh2d.hpp"
#include "dynamics/dynamics.hpp"
#include "filter/bank_cache.hpp"
#include "filter/variants.hpp"
#include "simnet/machine.hpp"

namespace agcm {
namespace {

using bench::NodeMesh;
using bench::print_header;
using bench::print_note;

constexpr double kStepsPerDay = 192.0;

/// Measures one filter variant: max-over-ranks virtual seconds per apply,
/// scaled to seconds/simulated day.
double measure_filter(const simnet::MachineProfile& machine_profile,
                      int nlev, filter::FilterAlgorithm algorithm,
                      NodeMesh mesh_spec) {
  simnet::Machine machine(machine_profile);
  machine.set_recv_timeout_ms(600'000);
  std::vector<double> per_rank(static_cast<std::size_t>(mesh_spec.nodes()));

  machine.run(mesh_spec.nodes(), [&](simnet::RankContext& ctx) {
    comm::Communicator world(ctx);
    comm::Mesh2D mesh(world, mesh_spec.rows, mesh_spec.cols);
    const grid::LatLonGrid grid(144, 90, nlev);
    const grid::Decomp2D decomp(144, 90, mesh_spec.rows, mesh_spec.cols);
    const auto box = decomp.box(mesh.coord());

    const auto bank =
        filter::shared_bank(grid, dynamics::Dynamics::filtered_variables());
    auto filter = filter::make_filter(algorithm, mesh, decomp, *bank);

    dynamics::State state(box, nlev);
    dynamics::initialize_state(state, grid, box, 1996);
    grid::Array3D<double>* fields[] = {&state.u, &state.v, &state.h,
                                       &state.theta, &state.q};

    // One warmup apply, then two timed applies bounded by barriers so the
    // row-level load imbalance lands in the filter account — the paper's
    // component timings work the same way.
    filter->apply(fields);
    world.barrier();
    const double t0 = world.now();
    const int timed = 2;
    for (int s = 0; s < timed; ++s) {
      filter->apply(fields);
      world.barrier();
    }
    per_rank[static_cast<std::size_t>(world.rank())] =
        (world.now() - t0) / timed;
  });

  double worst = 0.0;
  for (double t : per_rank) worst = std::max(worst, t);
  return worst * kStepsPerDay;
}

struct PaperRow {
  NodeMesh mesh;
  double conv, fft, fft_lb;
};

struct Measured {
  double conv = 0.0, fft = 0.0, fft_lb = 0.0;
};

std::vector<Measured> run_table(const std::string& title,
                                const simnet::MachineProfile& machine,
                                int nlev,
                                const std::vector<PaperRow>& rows) {
  Table table(title, {"Node mesh", "Convolution (paper/meas)",
                      "FFT no LB (paper/meas)", "FFT + LB (paper/meas)"});
  std::vector<Measured> measured;
  for (const PaperRow& row : rows) {
    Measured m;
    m.conv = measure_filter(machine, nlev,
                            filter::FilterAlgorithm::kConvolutionRing,
                            row.mesh);
    m.fft = measure_filter(machine, nlev,
                           filter::FilterAlgorithm::kFftTranspose, row.mesh);
    m.fft_lb = measure_filter(machine, nlev,
                              filter::FilterAlgorithm::kFftBalanced, row.mesh);
    table.add_row({row.mesh.label(), Table::paper_vs(row.conv, m.conv, 1),
                   Table::paper_vs(row.fft, m.fft, 1),
                   Table::paper_vs(row.fft_lb, m.fft_lb, 1)});
    measured.push_back(m);
  }
  bench::emit_table(table);
  return measured;
}

void derived_metrics(const std::string& label,
                     const std::vector<Measured>& m, double paper_scaling,
                     double paper_efficiency, double paper_conv_ratio) {
  // Row order: 4x4(16), 4x8(32), 8x8(64), 4x30(120), 8x30(240).
  const Measured& n16 = m.front();
  const Measured& n240 = m.back();
  const double scaling = n16.fft_lb / n240.fft_lb;
  const double efficiency = scaling / 15.0;  // 240/16 node ratio
  const double conv_ratio = n240.conv / n240.fft_lb;
  std::printf(
      "%s derived metrics (paper / measured):\n"
      "  LB-FFT scaling 240 vs 16 nodes : %.2f / %.2f\n"
      "  LB-FFT parallel efficiency      : %.0f%% / %.0f%%\n"
      "  convolution vs LB-FFT at 8x30  : %.1fx / %.1fx\n\n",
      label.c_str(), paper_scaling, scaling, 100.0 * paper_efficiency,
      100.0 * efficiency, paper_conv_ratio, conv_ratio);
  std::fflush(stdout);
}

}  // namespace
}  // namespace agcm

int main(int argc, char** argv) {
  using namespace agcm;
  auto opts = bench::BenchOptions::parse(argc, argv, "tables8_11_filtering");
  bench::JsonReport report(opts);
  bench::g_report = &report;

  print_header("Tables 8-11: total filtering times (seconds/simulated day)");
  print_note(
      "Columns: convolution (old module), FFT after row transpose (no load\n"
      "balance), and the load-balanced FFT module. Paper / measured.\n");

  const std::vector<PaperRow> t8 = {{{4, 4}, 309.5, 111.4, 87.7},
                                    {{4, 8}, 240.0, 88.0, 53.7},
                                    {{8, 8}, 189.5, 66.4, 38.2},
                                    {{4, 30}, 99.6, 43.7, 22.2},
                                    {{8, 30}, 90.0, 37.5, 18.5}};
  const std::vector<PaperRow> t9 = {{{4, 4}, 123.5, 44.6, 35.1},
                                    {{4, 8}, 96.0, 35.2, 21.5},
                                    {{8, 8}, 75.8, 26.4, 15.3},
                                    {{4, 30}, 39.6, 17.5, 8.9},
                                    {{8, 30}, 36.0, 15.0, 7.4}};
  const std::vector<PaperRow> t10 = {{{4, 4}, 802.0, 304.0, 221.0},
                                     {{4, 8}, 566.0, 205.0, 118.0},
                                     {{8, 8}, 422.0, 150.0, 85.0},
                                     {{4, 30}, 217.0, 96.0, 49.0},
                                     {{8, 30}, 188.0, 81.0, 37.0}};
  const std::vector<PaperRow> t11 = {{{4, 4}, 320.0, 121.0, 88.0},
                                     {{4, 8}, 226.0, 82.0, 47.0},
                                     {{8, 8}, 168.0, 60.0, 34.0},
                                     {{4, 30}, 86.0, 38.0, 19.0},
                                     {{8, 30}, 75.0, 32.0, 15.0}};

  const auto m8 = run_table(
      "Table 8: Intel Paragon, 2x2.5x9 grid",
      simnet::MachineProfile::intel_paragon(), 9, t8);
  const auto m9 = run_table("Table 9: Cray T3D, 2x2.5x9 grid",
                            simnet::MachineProfile::cray_t3d(), 9, t9);
  const auto m10 = run_table(
      "Table 10: Intel Paragon, 2x2.5x15 grid",
      simnet::MachineProfile::intel_paragon(), 15, t10);
  const auto m11 = run_table("Table 11: Cray T3D, 2x2.5x15 grid",
                             simnet::MachineProfile::cray_t3d(), 15, t11);

  derived_metrics("9-layer (Paragon)", m8, 4.74, 0.32, 90.0 / 18.5);
  derived_metrics("9-layer (T3D)", m9, 4.74, 0.32, 36.0 / 7.4);
  derived_metrics("15-layer (Paragon)", m10, 5.87, 0.39, 188.0 / 37.0);
  derived_metrics("15-layer (T3D)", m11, 5.87, 0.39, 75.0 / 15.0);
  report.finish();
  return 0;
}
