// Compares the four parallel polar-filter implementations on one mesh:
// correctness (all four must produce the same fields) and cost (virtual
// time, messages, data volume) — a compact tour of the paper's Section 3.
//
//   $ ./filter_comparison [rows cols]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "comm/mesh2d.hpp"
#include "dynamics/dynamics.hpp"
#include "filter/variants.hpp"
#include "simnet/machine.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace agcm;
  const int rows = argc > 2 ? std::atoi(argv[1]) : 4;
  const int cols = argc > 2 ? std::atoi(argv[2]) : 8;
  const int nlon = 144, nlat = 90, nlev = 9;

  std::printf("Polar filter comparison: 144x90x9 grid, %dx%d nodes of a "
              "virtual Intel Paragon\n\n", rows, cols);

  const filter::FilterAlgorithm algorithms[] = {
      filter::FilterAlgorithm::kConvolutionRing,
      filter::FilterAlgorithm::kConvolutionTree,
      filter::FilterAlgorithm::kFftTranspose,
      filter::FilterAlgorithm::kFftBalanced,
  };

  Table table("Cost of one filtering pass (all five model variables)",
              {"Algorithm", "virtual ms", "messages", "KB moved",
               "max |diff| vs FFT+LB"});

  // Reference result from the load-balanced FFT variant.
  std::vector<double> reference;
  for (const auto algorithm : algorithms) {
    simnet::Machine machine(simnet::MachineProfile::intel_paragon());
    std::vector<double> u_global(static_cast<std::size_t>(nlon) * nlat * nlev);
    double virtual_sec = 0.0;

    const auto run = machine.run(rows * cols, [&](simnet::RankContext& ctx) {
      comm::Communicator world(ctx);
      comm::Mesh2D mesh(world, rows, cols);
      const grid::LatLonGrid grid(nlon, nlat, nlev);
      const grid::Decomp2D decomp(nlon, nlat, rows, cols);
      const auto box = decomp.box(mesh.coord());
      const filter::FilterBank bank(grid,
                                    dynamics::Dynamics::filtered_variables());
      auto filt = filter::make_filter(algorithm, mesh, decomp, bank);

      dynamics::State state(box, nlev);
      dynamics::initialize_state(state, grid, box, 7);
      grid::Array3D<double>* fields[] = {&state.u, &state.v, &state.h,
                                         &state.theta, &state.q};
      world.barrier();
      if (world.rank() == 0) ctx.network().reset_counters();
      world.barrier();
      const double t0 = world.now();
      filt->apply(fields);
      world.barrier();
      if (world.rank() == 0) virtual_sec = world.now() - t0;

      for (int k = 0; k < nlev; ++k)
        for (int j = 0; j < box.nj; ++j)
          for (int i = 0; i < box.ni; ++i)
            u_global[static_cast<std::size_t>(box.i0 + i) +
                     static_cast<std::size_t>(nlon) *
                         (static_cast<std::size_t>(box.j0 + j) +
                          static_cast<std::size_t>(nlat) * k)] =
                state.u(i, j, k);
    });

    double diff = 0.0;
    if (reference.empty()) reference = u_global;  // first algorithm
    else diff = max_abs_diff(u_global, reference);
    table.add_row({std::string(filter::algorithm_name(algorithm)),
                   Table::num(virtual_sec * 1000.0, 2),
                   std::to_string(run.total_messages),
                   Table::num(static_cast<double>(run.total_bytes) / 1024.0, 0),
                   Table::num(diff, 12)});
  }
  print_table(table);
  std::printf(
      "\nAll four algorithms implement the same mathematical operator\n"
      "(equations (1) == (2)); the differences are pure floating-point\n"
      "rounding. The cost column is the paper's Section 3 story: FFT beats\n"
      "convolution, and the Figure-2 row redistribution beats both.\n");
  return 0;
}
