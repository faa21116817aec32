// Reproduces Tables 1-3: load-balancing simulation for the Physics
// component with the 2 x 2.5 x 9 grid on Cray T3D node arrays of
// 8x8 (64), 9x14 (126) and 14x18 (252) nodes.
//
// Exactly like the paper's experiment, the loads are *measured* (virtual)
// physics times from a real pass of the physics component — "a timing on
// the previous pass of physics ... was used as an estimate for the current
// physics computing load" — and Scheme 3 (sorted pairwise exchange) is then
// applied twice, evaluating the resulting distribution "without actually
// moving the data arrays around".
#include <vector>

#include "bench_common.hpp"
#include "comm/mesh2d.hpp"
#include "loadbalance/schemes.hpp"
#include "physics/physics.hpp"
#include "simnet/machine.hpp"
#include "util/stats.hpp"

namespace agcm {
namespace {

using bench::NodeMesh;
using bench::print_header;
using bench::print_note;

struct PaperTable {
  std::string title;
  NodeMesh mesh;
  // {max load, min load, imbalance} before, after 1st, after 2nd.
  double rows[3][3];
};

/// Runs the physics component for a few steps on the T3D virtual machine
/// and returns every rank's measured per-column costs (virtual seconds).
lb::ItemLists measure_physics_loads(NodeMesh mesh_spec) {
  const auto profile = simnet::MachineProfile::cray_t3d();
  simnet::Machine machine(profile);
  lb::ItemLists lists(static_cast<std::size_t>(mesh_spec.nodes()));

  machine.run(mesh_spec.nodes(), [&](simnet::RankContext& ctx) {
    comm::Communicator world(ctx);
    comm::Mesh2D mesh(world, mesh_spec.rows, mesh_spec.cols);
    const grid::LatLonGrid grid(144, 90, 9);
    const grid::Decomp2D decomp(144, 90, mesh_spec.rows, mesh_spec.cols);
    const auto box = decomp.box(mesh.coord());

    physics::PhysicsConfig cfg;
    cfg.column.nlev = 9;
    cfg.column.seed = 1996;
    physics::Physics phys(mesh, decomp, grid, cfg);
    dynamics::State state(box, 9);
    dynamics::initialize_state(state, grid, box, 1996);

    // Two passes: the second one's measured costs become the load estimate
    // (mid-morning over the Pacific, i.e. a generic instant).
    for (int s = 0; s < 2; ++s) {
      phys.step(state);
      state.time_sec += 450.0;
      ++state.step;
    }

    auto& mine = lists[static_cast<std::size_t>(world.rank())];
    const auto costs = phys.column_cost_estimates();
    for (std::size_t c = 0; c < costs.size(); ++c) {
      const auto id =
          static_cast<std::uint64_t>(world.rank()) * 100000 + c;
      mine.push_back({id, costs[c] / profile.flops_per_sec});
    }
  });
  return lists;
}

void run_table(const PaperTable& spec) {
  const lb::ItemLists items = measure_physics_loads(spec.mesh);

  lb::PairwiseOptions options;
  options.max_iterations = 2;
  options.tolerance = 0.02;
  const lb::PairwiseResult result = lb::plan_pairwise(items, options);

  // Reconstruct per-stage distributions to report max/min like the paper.
  // Stage 0 = original; stages 1..2 come from replaying the planner with
  // fewer iterations.
  Table table(spec.title,
              {"Code status", "Max load s (paper/meas)",
               "Min load s (paper/meas)", "% imbalance (paper/meas)"});
  const char* labels[3] = {"Before load-balancing", "After first iteration",
                           "After second iteration"};
  for (int stage = 0; stage < 3; ++stage) {
    std::vector<double> loads;
    if (stage == 0) {
      loads = lb::loads_of(items);
    } else {
      lb::PairwiseOptions staged = options;
      staged.max_iterations = stage;
      loads = lb::loads_after(items, lb::plan_pairwise(items, staged).dest);
    }
    table.add_row(
        {labels[stage],
         Table::paper_vs(spec.rows[stage][0], max_value(loads), 2),
         Table::paper_vs(spec.rows[stage][1], min_value(loads), 2),
         Table::pct(spec.rows[stage][2]) + " / " +
             Table::pct(load_imbalance(loads), 1)});
  }
  bench::emit_table(table);
  (void)result;
}

}  // namespace
}  // namespace agcm

int main(int argc, char** argv) {
  using namespace agcm;
  auto opts = bench::BenchOptions::parse(argc, argv, "tables1_3_physics_lb");
  bench::JsonReport report(opts);
  bench::g_report = &report;

  print_header(
      "Tables 1-3: Scheme-3 load-balancing simulation for AGCM/Physics "
      "(Cray T3D, 2x2.5x9 grid)");
  print_note(
      "Loads are measured virtual physics times per node; Scheme 3 (sorted\n"
      "pairwise exchange) is applied twice, without moving the field data —\n"
      "the paper's own evaluation methodology. Absolute seconds depend on\n"
      "how much physics one pass contains; the imbalance percentages are\n"
      "the comparable shape.\n");

  const PaperTable tables[] = {
      {"Table 1: 8x8 node array (64 nodes)",
       {8, 8},
       {{11.00, 4.90, 0.37}, {7.70, 6.20, 0.09}, {7.10, 6.30, 0.06}}},
      {"Table 2: 9x14 node array (126 nodes)",
       {9, 14},
       {{5.20, 2.50, 0.35}, {4.00, 3.14, 0.12}, {3.52, 3.22, 0.05}}},
      {"Table 3: 14x18 node array (252 nodes)",
       {14, 18},
       {{3.34, 1.12, 0.48}, {2.20, 1.70, 0.125}, {1.92, 1.80, 0.06}}},
  };
  for (const PaperTable& t : tables) run_table(t);

  print_note(
      "Paper conclusion to check: two pairwise iterations reduce the\n"
      "percentage of load imbalance from 35-48% to 5-6%.");
  report.finish();
  return 0;
}
