// The benchmark's result line and its correctness bookkeeping.
//
// The last line of standard output is one JSON object with exactly the keys
// `correct`, `attempted`, `failed` and `metrics`; each metric is
// {"value": number, "unit": string}. `failed / attempted` is the error
// rate: runs or cells that threw or failed a correctness check, over those
// attempted.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "trace/json.hpp"

namespace agcm::hostbench {

/// Metric names: 1-64 of [A-Za-z0-9_.-], starting with a letter or digit.
bool valid_metric_name(std::string_view name);

/// Units: 1-16 of [A-Za-z0-9_/%.-].
bool valid_unit(std::string_view unit);

class Result {
 public:
  /// Adds a metric. Throws std::invalid_argument on an invalid or repeated
  /// name, an invalid unit or a non-finite value.
  void add(std::string_view name, double value, std::string_view unit);

  /// Counts one run or cell attempted, and whether it passed its checks.
  void attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }

  /// Records a failed check. The message goes to standard error and the
  /// result becomes incorrect.
  void fail(const std::string& why);

  bool correct() const { return !check_failed_ && failed_ == 0; }
  std::int64_t failed() const { return failed_; }

  /// The result line (compact JSON, no newline).
  std::string json() const;

 private:
  trace::JsonValue metrics_ = trace::JsonValue::object();
  bool check_failed_ = false;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

/// Peak resident memory of this process so far, in MiB.
double peak_rss_mib();

}  // namespace agcm::hostbench
