#include "report.hpp"

#include <sys/resource.h>

#include <cmath>
#include <iostream>
#include <stdexcept>

namespace agcm::hostbench {

namespace {

bool alnum(char c) {
  return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
         (c >= '0' && c <= '9');
}

}  // namespace

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64 || !alnum(name.front())) return false;
  for (char c : name)
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  return true;
}

bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  for (char c : unit)
    if (!alnum(c) && c != '_' && c != '/' && c != '%' && c != '.' && c != '-')
      return false;
  return true;
}

void Result::add(std::string_view name, double value, std::string_view unit) {
  if (!valid_metric_name(name))
    throw std::invalid_argument("invalid metric name '" + std::string(name) +
                                "'");
  if (!valid_unit(unit))
    throw std::invalid_argument("invalid unit '" + std::string(unit) + "'");
  if (!std::isfinite(value))
    throw std::invalid_argument("metric '" + std::string(name) +
                                "' is not finite");
  if (metrics_.find(name))
    throw std::invalid_argument("metric '" + std::string(name) +
                                "' reported twice");
  trace::JsonValue metric = trace::JsonValue::object();
  metric.set("value", value);
  metric.set("unit", unit);
  metrics_.set(name, std::move(metric));
}

void Result::fail(const std::string& why) {
  std::cerr << "hostbench: CHECK FAILED: " << why << '\n';
  check_failed_ = true;
}

std::string Result::json() const {
  trace::JsonValue line = trace::JsonValue::object();
  line.set("correct", correct());
  line.set("attempted", attempted_);
  line.set("failed", failed_);
  line.set("metrics", metrics_);
  return line.dump();
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace agcm::hostbench
