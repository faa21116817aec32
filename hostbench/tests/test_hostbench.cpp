// Self-tests of the benchmark's own helpers: the between-barrier phase
// reduction, metric-name rules, the result-line schema, the host plan, the
// generated workload configs, and the mirror-equality guard.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/model.hpp"
#include "probes.hpp"
#include "report.hpp"
#include "timing.hpp"
#include "trace/json.hpp"
#include "workloads.hpp"

namespace agcm::hostbench {
namespace {

TEST(PhaseSamples, SplitsASyntheticTimelineByClosingPhase) {
  // origin at 10; dynamics closes at 11.5 and 14.25, physics at 14 and 17.
  const std::vector<Stamp> timeline = {{"origin", 10.0},
                                       {"dynamics", 11.5},
                                       {"physics", 14.0},
                                       {"dynamics", 14.25},
                                       {"physics", 17.0}};
  const auto samples = phase_samples(timeline);
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples.at("dynamics"), (std::vector<double>{1.5, 0.25}));
  EXPECT_EQ(samples.at("physics"), (std::vector<double>{2.5, 2.75}));
  EXPECT_DOUBLE_EQ(sum(samples.at("dynamics")) + sum(samples.at("physics")),
                   17.0 - 10.0);
  EXPECT_EQ(samples.count("origin"), 0u);
}

TEST(PhaseSamples, EmptyAndSingleStampTimelinesHaveNoPhases) {
  EXPECT_TRUE(phase_samples({}).empty());
  EXPECT_TRUE(phase_samples({{"origin", 3.0}}).empty());
}

TEST(PhaseSamples, RejectsATimelineThatGoesBackwards) {
  EXPECT_THROW(phase_samples({{"origin", 2.0}, {"a", 1.0}}),
               std::invalid_argument);
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(MetricNames, AcceptOnlyTheResultAlphabet) {
  for (const char* ok : {"setup_s", "simnet.ring_us_per_msg",
                         "campaign.cache_hit_ratio.fft.plans", "9lives",
                         "a-b_c.d"}) {
    EXPECT_TRUE(valid_metric_name(ok)) << ok;
  }
  for (const char* bad : {"", "_lead", ".lead", "-lead", "has space",
                          "slash/no", "colon:no", "uni\xc3\xa9"}) {
    EXPECT_FALSE(valid_metric_name(bad)) << bad;
  }
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_unit("cells/s"));
  EXPECT_TRUE(valid_unit("%"));
  EXPECT_FALSE(valid_unit(""));
  EXPECT_FALSE(valid_unit("per second"));
}

TEST(ResultLine, HasExactlyTheFourKeysAndTypedMetrics) {
  Result result;
  result.add("latency_s", 0.125, "s");
  result.add("peak_rss_mib", 42.5, "MiB");
  result.attempt(true);
  result.attempt(true);
  const auto parsed = trace::JsonValue::parse(result.json());
  ASSERT_TRUE(parsed);
  ASSERT_TRUE(parsed->is_object());
  std::vector<std::string> keys;
  for (const auto& [key, value] : parsed->members()) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{"correct", "attempted", "failed",
                                            "metrics"}));
  EXPECT_TRUE(parsed->find("correct")->as_bool());
  EXPECT_EQ(parsed->find("attempted")->as_number(), 2.0);
  EXPECT_EQ(parsed->find("failed")->as_number(), 0.0);
  const trace::JsonValue* metrics = parsed->find("metrics");
  ASSERT_EQ(metrics->members().size(), 2u);
  const trace::JsonValue* latency = metrics->find("latency_s");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->find("value")->as_number(), 0.125);
  EXPECT_EQ(latency->find("unit")->as_string(), "s");
  EXPECT_EQ(latency->members().size(), 2u);
  EXPECT_EQ(result.json().find('\n'), std::string::npos);
}

TEST(ResultLine, RejectsBadMetricsAndTurnsIncorrectOnFailure) {
  Result result;
  result.add("x", 1.0, "s");
  EXPECT_THROW(result.add("x", 2.0, "s"), std::invalid_argument);
  EXPECT_THROW(result.add("bad name", 1.0, "s"), std::invalid_argument);
  EXPECT_THROW(result.add("y", 1.0, "no units"), std::invalid_argument);
  EXPECT_THROW(result.add("z", std::nan(""), "s"), std::invalid_argument);
  EXPECT_TRUE(result.correct());
  result.attempt(false);
  EXPECT_FALSE(result.correct());
  EXPECT_EQ(result.failed(), 1);

  Result checked;
  checked.fail("a check failed");
  EXPECT_FALSE(checked.correct());
  const auto parsed = trace::JsonValue::parse(checked.json());
  ASSERT_TRUE(parsed);
  EXPECT_FALSE(parsed->find("correct")->as_bool());
}

TEST(HostPlan, UsesHalfTheCpusAndAtLeastOneWorker) {
  for (int nproc = 1; nproc <= 64; ++nproc) {
    const HostPlan plan = host_plan(nproc);
    EXPECT_EQ(plan.nproc, nproc);
    EXPECT_EQ(plan.fiber_workers, std::max(1, nproc / 2));
  }
}

TEST(Workloads, GenerateTheirConfigsFromTheSeed) {
  const HostPlan plan = host_plan(4);
  ASSERT_EQ(workloads().size(), 3u);
  for (const Workload& w : workloads()) {
    EXPECT_TRUE(valid_metric_name(w.name)) << w.name;
    const core::RunSpec a = model_spec(w, 7, plan);
    const core::RunSpec b = model_spec(w, 8 + (1ULL << 31), plan);
    EXPECT_EQ(a.model.seed, 7u);
    EXPECT_EQ(b.model.seed, 8u);
    EXPECT_EQ(a.model.simnet_workers, plan.fiber_workers);
    EXPECT_EQ(a.steps, w.steps);
    EXPECT_EQ(a.warmup_steps, w.warmup_steps);
  }
  const auto scheme = [&](const char* name) {
    return model_spec(find_workload(name), 1, plan).model.lb_scheme;
  };
  EXPECT_EQ(scheme("dense_lb_t3d240"), lb::Scheme::kCyclic);
  EXPECT_EQ(scheme("flagship_t3d240"), lb::Scheme::kPairwise);
  EXPECT_EQ(scheme("original_paragon16"), lb::Scheme::kNone);
  EXPECT_THROW(find_workload("nope"), std::invalid_argument);
}

core::ModelConfig small_config(std::uint64_t seed) {
  core::ModelConfig config;
  config.nlon = 72;
  config.nlat = 46;
  config.nlev = 5;
  config.mesh_rows = 2;
  config.mesh_cols = 2;
  config.machine = simnet::MachineProfile::cray_t3d();
  config.physics_load_balance = true;
  config.seed = seed;
  config.simnet_workers = 2;
  return config;
}

TEST(Mirror, ReproducesRunModelBitForBit) {
  const core::ModelConfig config = small_config(11);
  const core::RunReport report = core::run_model(config, 2, 1);
  const MirrorRun mirror = run_mirror(config, 2, 1);
  EXPECT_TRUE(report_mismatches(report, mirror.report).empty());
  for (const std::string& v : report_violations(config, mirror.report))
    ADD_FAILURE() << v;
  EXPECT_GT(mirror.dynamics_s, 0.0);
  EXPECT_GT(mirror.physics_s, 0.0);
}

TEST(Mirror, EqualityCheckFailsOnAPerturbedConfig) {
  const core::RunReport report = core::run_model(small_config(11), 2, 1);
  const MirrorRun other_seed = run_mirror(small_config(12), 2, 1);
  EXPECT_FALSE(report_mismatches(report, other_seed.report).empty());
  const MirrorRun other_steps = run_mirror(small_config(11), 3, 1);
  EXPECT_FALSE(report_mismatches(report, other_steps.report).empty());
}

TEST(Setup, BookendsCarryAllOfTheRunsTrafficExceptTheSteps) {
  const core::ModelConfig config = small_config(3);
  const SetupRun plain = run_setup(config, false);
  const SetupRun bookends = run_setup(config, true);
  EXPECT_GT(bookends.result.total_messages, plain.result.total_messages);
  const MirrorRun one = run_mirror(config, 1, 1);
  const MirrorRun two = run_mirror(config, 2, 1);
  // With the bookends removed, traffic grows by whole steps.
  const auto loop1 = one.report.total_messages - bookends.result.total_messages;
  const auto loop2 = two.report.total_messages - bookends.result.total_messages;
  EXPECT_GT(loop1, 0u);
  EXPECT_GT(loop2, loop1);
}

}  // namespace
}  // namespace agcm::hostbench
