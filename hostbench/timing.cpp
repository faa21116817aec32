#include "timing.hpp"

#include <algorithm>
#include <stdexcept>

namespace agcm::hostbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no values");
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(
      values.begin(), values.begin() + static_cast<long>(mid));
  return 0.5 * (lower + upper);
}

std::map<std::string, std::vector<double>> phase_samples(
    const std::vector<Stamp>& stamps) {
  std::map<std::string, std::vector<double>> samples;
  for (std::size_t i = 1; i < stamps.size(); ++i) {
    const double d = stamps[i].t - stamps[i - 1].t;
    if (d < 0.0) throw std::invalid_argument("timeline goes backwards");
    samples[stamps[i].phase].push_back(d);
  }
  return samples;
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

}  // namespace agcm::hostbench
