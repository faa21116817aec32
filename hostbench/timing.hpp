// Host-clock helpers: a steady_clock stopwatch, order statistics, and the
// between-barrier phase reduction the traced runs use.
//
// Ranks run as M:N fibers, so a span timed on one rank includes time the
// rank spent parked while others ran. Phases are therefore timed machine
// wide: every rank passes a barrier that closes the phase, and rank 0 stamps
// the host clock right after it. A phase's duration is the gap between the
// stamp that closes it and the stamp before.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace agcm::hostbench {

/// Host seconds since an arbitrary fixed origin (steady_clock).
double now_s();

/// Host wall time of one call of `fn`, in seconds.
template <typename Fn>
double time_s(Fn&& fn) {
  const double t0 = now_s();
  fn();
  return now_s() - t0;
}

/// Median of `values` (mean of the middle two for even sizes). Throws
/// std::invalid_argument on an empty input.
double median(std::vector<double> values);

/// One stamp of rank 0's timeline: `phase` is the phase the stamp closes.
struct Stamp {
  std::string phase;
  double t = 0.0;
};

/// Splits a timeline into per-phase samples. The first stamp is the origin
/// (its phase name is ignored); every later stamp adds t[i] - t[i-1] to its
/// own phase, in timeline order. Throws std::invalid_argument if the
/// timeline goes backwards.
std::map<std::string, std::vector<double>> phase_samples(
    const std::vector<Stamp>& stamps);

/// Sum of `values` (0 for none).
double sum(const std::vector<double>& values);

}  // namespace agcm::hostbench
