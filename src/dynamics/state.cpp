#include "dynamics/state.hpp"

#include <cmath>
#include <numbers>
#include <vector>

#include "util/rng.hpp"

namespace agcm::dynamics {

State::State(const grid::LocalBox& box, int nlev)
    : h(box.ni, box.nj, nlev, /*ghost=*/1),
      u(box.ni, box.nj, nlev, /*ghost=*/1),
      v(box.ni, box.nj, nlev, /*ghost=*/1),
      theta(box.ni, box.nj, nlev, /*ghost=*/1),
      q(box.ni, box.nj, nlev, /*ghost=*/1) {}

void initialize_state(State& state, const grid::LatLonGrid& grid,
                      const grid::LocalBox& box, std::uint64_t seed) {
  const double h0 = 8000.0;       // mean equivalent depth (m)
  const double jet_speed = 25.0;  // m/s
  const double g = grid.planet().gravity;
  const double omega = grid.planet().omega;
  const double a = grid.planet().radius_m;

  // Latitude-only terms, once per local row, and the longitude-only
  // perturbation shape, once per local column. Each keeps the operand order
  // of the per-point formula it came from, so every field is bit-identical
  // to evaluating the whole formula at every point.
  struct RowTerms {
    double sin2lat;      // sin(2 lat): the jet profile
    double f;            // Coriolis parameter
    double polar_boost;  // perturbation amplification toward the poles
    double u_face;       // east-face factor of u
    double theta;        // 300 - 40 sin^2(lat)
    double q;            // 0.018 exp(-(lat / 0.45)^2)
  };
  std::vector<RowTerms> rows(static_cast<std::size_t>(box.nj));
  for (int j = 0; j < box.nj; ++j) {
    const int gj = box.j0 + j;
    const double lat = grid.lat_center(gj);
    const double lat_face = grid.lat_vface(gj + 1);
    rows[static_cast<std::size_t>(j)] = {
        std::sin(2.0 * lat),
        2.0 * omega * std::sin(lat),
        1.0 + 3.0 * std::pow(std::sin(lat), 8.0),
        std::cos(lat_face * 0.0),
        300.0 - 40.0 * std::sin(lat) * std::sin(lat),
        0.018 * std::exp(-std::pow(lat / 0.45, 2.0))};
  }
  // Small deterministic wavenumber-4 perturbation.
  std::vector<double> wave4(static_cast<std::size_t>(box.ni));
  for (int i = 0; i < box.ni; ++i)
    wave4[static_cast<std::size_t>(i)] =
        8.0 * std::cos(4.0 * grid.lon_center(box.i0 + i));

  for (int k = 0; k < grid.nlev(); ++k) {
    const double layer_scale = 1.0 + 0.15 * k;  // faster aloft
    const double q_layer = std::exp(-0.35 * k);
    for (int j = 0; j < box.nj; ++j) {
      const int gj = box.j0 + j;
      const RowTerms& row = rows[static_cast<std::size_t>(j)];
      // Zonal jet peaking at +-45 degrees.
      const double jet = jet_speed * layer_scale * row.sin2lat * row.sin2lat;
      // Geostrophically consistent height depression under the jet:
      // dh/dphi = -(a f u)/g with f = 2 Omega sin(phi); we use the
      // closed-form integral of the jet profile above.
      const double hbal =
          h0 - (a / g) * row.f * jet * 0.35;  // approximate balance
      const double u = jet * row.u_face;      // u on east face
      // Warm equator, cold poles; stable-ish stratification with layer.
      const double theta = row.theta + 3.0 * k;
      // Moist tropics.
      const double q = row.q * q_layer;
      for (int i = 0; i < box.ni; ++i) {
        const int gi = box.i0 + i;
        Rng rng = Rng::for_stream(seed, (static_cast<std::uint64_t>(k) << 32) ^
                                            (static_cast<std::uint64_t>(gj) << 16) ^
                                            static_cast<std::uint64_t>(gi));
        // The perturbation is amplified toward the poles so the polar
        // filter has real work to do.
        const double bump =
            (wave4[static_cast<std::size_t>(i)] + 2.0 * (rng.uniform() - 0.5)) *
            row.polar_boost;
        state.h(i, j, k) = hbal + bump;
        state.u(i, j, k) = u;
        state.v(i, j, k) = 0.0;
        state.theta(i, j, k) = theta + 0.5 * (rng.uniform() - 0.5);
        state.q(i, j, k) = q * (1.0 + 0.1 * (rng.uniform() - 0.5));
      }
    }
  }
  state.time_sec = 0.0;
  state.step = 0;
}

}  // namespace agcm::dynamics
