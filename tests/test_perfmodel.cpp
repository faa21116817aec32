// Tests for the Extra-P-style performance-model engine (src/perfmodel/).
//
// The fitter is pure arithmetic, so every test here builds a synthetic
// series with a known generating law and checks that model selection
// recovers the *discrete* complexity class exactly (grid exponents are
// artefacts, coefficients are not). Verdict strings and report JSON are
// also deterministic, so they are string-compared directly. The committed
// PREDICT_MODEL.json baseline is re-evaluated here too: its stored holdout
// predictions must come back from load_model + predict.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "perfmodel/compose.hpp"
#include "perfmodel/model.hpp"
#include "perfmodel/predict.hpp"
#include "perfmodel/report.hpp"
#include "util/error.hpp"

namespace agcm::perfmodel {
namespace {

std::vector<double> powers_of_two(int count, double first = 2.0) {
  std::vector<double> x;
  double v = first;
  for (int i = 0; i < count; ++i, v *= 2.0) x.push_back(v);
  return x;
}

std::vector<double> apply(const std::vector<double>& x, double c0, double c1,
                          Hypothesis hyp) {
  std::vector<double> y;
  for (double xi : x) y.push_back(c0 + c1 * basis(hyp, xi));
  return y;
}

// --- basis / dominates / labels -------------------------------------------

TEST(PerfModelBasis, MatchesClosedFormAndClampsLogAtOne) {
  EXPECT_DOUBLE_EQ(basis({2.0, 0}, 3.0), 9.0);
  EXPECT_DOUBLE_EQ(basis({1.0, 1}, 8.0), 8.0 * 3.0);
  EXPECT_DOUBLE_EQ(basis({0.5, 2}, 4.0), 2.0 * 4.0);
  // log2 clamped at zero for x <= 1, so phi(1) = 0 whenever b > 0.
  EXPECT_DOUBLE_EQ(basis({1.0, 1}, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(basis({0.0, 0}, 1.0), 1.0);
}

TEST(PerfModelBasis, DominatesOrdersByPowerThenLogPower) {
  EXPECT_TRUE(dominates({2.0, 0}, {1.0, 2}));   // power beats any log
  EXPECT_TRUE(dominates({1.0, 1}, {1.0, 0}));   // equal power: log decides
  EXPECT_FALSE(dominates({1.0, 0}, {1.0, 0}));  // strict: not reflexive
  EXPECT_FALSE(dominates({1.0, 0}, {2.0, 0}));
}

TEST(PerfModelBasis, ComplexityLabelsAreCanonical) {
  EXPECT_EQ(complexity_label({0.0, 0}), "1");
  EXPECT_EQ(complexity_label({1.0, 0}), "x");
  EXPECT_EQ(complexity_label({2.0, 0}), "x^2");
  EXPECT_EQ(complexity_label({1.0, 1}), "x * log2(x)");
  EXPECT_EQ(complexity_label({0.0, 2}), "log2(x)^2");
}

TEST(PerfModelBasis, DefaultGridIsComplexityAscending) {
  const auto grid = default_grid();
  ASSERT_EQ(grid.size(), 13u * 3u);  // a in 0..3 step .25, b in 0..2
  EXPECT_EQ(grid.front(), (Hypothesis{0.0, 0}));
  EXPECT_EQ(grid.back(), (Hypothesis{3.0, 2}));
  for (std::size_t i = 1; i < grid.size(); ++i)
    EXPECT_TRUE(dominates(grid[i], grid[i - 1]))
        << "grid not ascending at index " << i;
}

// --- model selection on synthetic series ----------------------------------

TEST(PerfModelFit, RecoversPureQuadratic) {
  const auto x = powers_of_two(6);
  const FitResult fit = fit_model(x, apply(x, 0.0, 3.0, {2.0, 0}));
  EXPECT_EQ(fit.hyp, (Hypothesis{2.0, 0}));
  EXPECT_NEAR(fit.c1, 3.0, 1e-9);
  EXPECT_NEAR(fit.c0, 0.0, 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
  EXPECT_EQ(fit.label(), "x^2");
}

TEST(PerfModelFit, RecoversNLogNWithOffset) {
  const auto x = powers_of_two(6);  // exact log2 values at powers of two
  const FitResult fit = fit_model(x, apply(x, 7.0, 5.0, {1.0, 1}));
  EXPECT_EQ(fit.hyp, (Hypothesis{1.0, 1}));
  EXPECT_NEAR(fit.c0, 7.0, 1e-8);
  EXPECT_NEAR(fit.c1, 5.0, 1e-9);
  EXPECT_EQ(fit.label(), "x * log2(x)");
}

TEST(PerfModelFit, ConstantSeriesSelectsConstantNotHighOrderTie) {
  // Every hypothesis threads a flat line with c1 = 0; the strict-<
  // complexity-ascending scan must keep (0,0), not any later tie.
  const std::vector<double> x = {2, 4, 8, 16, 32};
  const std::vector<double> y = {4.5, 4.5, 4.5, 4.5, 4.5};
  const FitResult fit = fit_model(x, y);
  EXPECT_EQ(fit.hyp, (Hypothesis{0.0, 0}));
  EXPECT_DOUBLE_EQ(fit.c0, 4.5);
  EXPECT_DOUBLE_EQ(fit.evaluate(64.0), 4.5);
}

TEST(PerfModelFit, DecreasingSeriesFallsBackToConstant) {
  // Costs are modelled as non-decreasing: every growing hypothesis would
  // need c1 < 0 and is rejected, leaving the constant fit.
  const std::vector<double> x = {2, 4, 8, 16, 32};
  const std::vector<double> y = {10.0, 5.0, 2.5, 1.25, 0.625};
  const FitResult fit = fit_model(x, y);
  EXPECT_EQ(fit.hyp, (Hypothesis{0.0, 0}));
}

TEST(PerfModelFit, EvaluateReproducesInputsOnExactFit) {
  const auto x = powers_of_two(5);
  const auto y = apply(x, 2.0, 0.5, {1.5, 0});
  const FitResult fit = fit_model(x, y);
  EXPECT_EQ(fit.hyp, (Hypothesis{1.5, 0}));
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(fit.evaluate(x[i]), y[i], 1e-7 * y[i]);
}

TEST(PerfModelFit, RejectsDegenerateInputs) {
  EXPECT_THROW(fit_model({1, 2}, {1, 2}), std::invalid_argument);
  EXPECT_THROW(fit_model({0, 1, 2}, {1, 2, 3}), std::invalid_argument);
  EXPECT_THROW(fit_model({-1, 1, 2}, {1, 2, 3}), std::invalid_argument);
  EXPECT_THROW(fit_model({2, 4, 8}, {1, 2}), std::invalid_argument);
}

TEST(PerfModelFit, FitHypothesisRejectsNegativeSlopeAndTinySamples) {
  const std::vector<double> x = {2, 4, 8, 16};
  const std::vector<double> y = {8, 4, 2, 1};
  EXPECT_FALSE(fit_hypothesis(x, y, {1.0, 0}).has_value());  // c1 < 0
  EXPECT_FALSE(fit_hypothesis({2.0}, {1.0}, {1.0, 0}).has_value());
  const auto ok = fit_hypothesis(x, y, {0.0, 0});  // constant always fits
  ASSERT_TRUE(ok.has_value());
  EXPECT_DOUBLE_EQ(ok->c0, 3.75);
}

// --- verdicts -------------------------------------------------------------

Expectation quadratic_window() {
  Expectation e;
  e.expected = "~ x^2";
  e.min_a = 1.75;
  e.max_a = 2.25;
  e.min_b = 0;
  e.max_b = 1;
  e.min_r2 = 0.97;
  return e;
}

TEST(PerfModelVerdict, PassesInsideWindowWithDeterministicReason) {
  const auto x = powers_of_two(6);
  const FitResult fit = fit_model(x, apply(x, 0.0, 2.0, {2.0, 0}));
  const Verdict v = check_fit(fit, quadratic_window());
  EXPECT_TRUE(v.pass);
  // The reason is built from grid exponents and pre-rounded thresholds
  // only, so it is byte-stable.
  EXPECT_NE(v.reason.find("x^2"), std::string::npos) << v.reason;
}

TEST(PerfModelVerdict, FailsOutsideExponentWindow) {
  const auto x = powers_of_two(6);
  const FitResult fit = fit_model(x, apply(x, 0.0, 2.0, {1.0, 0}));
  const Verdict v = check_fit(fit, quadratic_window());
  EXPECT_FALSE(v.pass);
  EXPECT_NE(v.reason.find("exponent"), std::string::npos) << v.reason;
}

TEST(PerfModelVerdict, FailsOnLowR2EvenWithRightExponent) {
  // Quadratic trend plus violent noise: the class may still be x^2-ish,
  // so force the failure through the R^2 floor.
  const std::vector<double> x = {2, 4, 8, 16, 32, 64};
  std::vector<double> y;
  for (std::size_t i = 0; i < x.size(); ++i)
    y.push_back(x[i] * x[i] * (i % 2 == 0 ? 3.0 : 0.2));
  Expectation e = quadratic_window();
  e.min_a = 0.0;
  e.max_a = 3.0;
  e.max_b = 2;
  e.min_r2 = 0.999;
  const FitResult fit = fit_model(x, y);
  ASSERT_LT(fit.r2, 0.999);
  EXPECT_FALSE(check_fit(fit, e).pass);
}

// --- report assembly ------------------------------------------------------

TEST(PerfModelReport, AnalyzePipelineAndAllPassLogic) {
  const auto x = powers_of_two(6);
  Series s;
  s.phase = "filter.convolution-ring";
  s.parameter = "nlon";
  s.metric = "max_rank_sec";
  s.x = x;
  s.y = apply(x, 0.0, 1.5, {2.0, 0});

  ModelReport report("unit");
  report.set_config("machine", trace::JsonValue("test"));
  report.add_phase(analyze(s, quadratic_window()));
  EXPECT_TRUE(report.all_pass());

  report.add_gate("imbalance_after_lb", false, "12% > 8%");
  EXPECT_FALSE(report.all_pass());  // one failing gate sinks the report
}

TEST(PerfModelReport, JsonIsSchemaTaggedInsertionOrderedAndDeterministic) {
  const auto x = powers_of_two(5);
  Series s;
  s.phase = "filter.fft-lines";
  s.parameter = "nlon";
  s.metric = "max_rank_sec";
  s.x = x;
  s.y = apply(x, 0.0, 2.0, {1.0, 1});
  Expectation e;
  e.expected = "~ x log x";
  e.min_a = 0.75;
  e.max_a = 1.25;
  e.min_b = 0;
  e.max_b = 2;

  auto build = [&] {
    ModelReport report("unit");
    report.set_config("mesh", trace::JsonValue("1x4"));
    report.add_phase(analyze(s, e));
    report.add_gate("g", true, "ok");
    return report.to_json().dump_pretty();
  };
  const std::string once = build();
  EXPECT_EQ(once, build());  // byte-identical across rebuilds

  std::string error;
  const auto parsed = trace::JsonValue::parse(once, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const trace::JsonValue& doc = *parsed;
  EXPECT_EQ(doc.find("schema")->as_string(), "agcm-perfmodel-v1");
  EXPECT_EQ(doc.find("report")->as_string(), "unit");
  EXPECT_TRUE(doc.find("all_pass")->as_bool());
  ASSERT_EQ(doc.find("phases")->items().size(), 1u);
  const trace::JsonValue& phase = doc.find("phases")->items().front();
  EXPECT_EQ(phase.find("phase")->as_string(), "filter.fft-lines");
  const trace::JsonValue& model = *phase.find("model");
  EXPECT_EQ(model.find("complexity")->as_string(), "x * log2(x)");
  EXPECT_DOUBLE_EQ(model.find("exponent_a")->as_number(), 1.0);
  EXPECT_DOUBLE_EQ(model.find("log_power_b")->as_number(), 1.0);
  EXPECT_TRUE(phase.find("verdict")->find("pass")->as_bool());
  EXPECT_EQ(phase.find("series")->find("x")->items().size(), x.size());
  EXPECT_EQ(doc.find("gates")->items().size(), 1u);
}

TEST(PerfModelReport, FitJsonCarriesAllSentinelComparedFields) {
  const auto x = powers_of_two(5);
  const FitResult fit = fit_model(x, apply(x, 1.0, 2.0, {1.0, 0}));
  const trace::JsonValue j = fit_json(fit);
  for (const char* key : {"complexity", "exponent_a", "log_power_b", "c0",
                          "c1", "r2", "rmse", "cv_rmse"})
    EXPECT_NE(j.find(key), nullptr) << "missing " << key;
  EXPECT_EQ(j.find("complexity")->as_string(), "x");
}

// --- composition operators (compose.hpp) ----------------------------------

/// A mid-size T3D-flavoured point so every driver is non-trivial.
Point compose_point(int nlon = 96, int nlat = 64, int nlev = 5, int rows = 2,
                    int cols = 4) {
  Point p;
  p.nlon = nlon;
  p.nlat = nlat;
  p.nlev = nlev;
  p.mesh_rows = rows;
  p.mesh_cols = cols;
  p.machine = "Cray T3D";
  p.filter_backend = "fft-load-balanced";
  p.flops_per_sec = 9.4e6;
  p.mem_bytes_per_sec = 3.0e8;
  p.msg_latency_sec = 1.2e-4;
  p.link_bytes_per_sec = 2.7e7;
  p.send_overhead_sec = 4.0e-5;
  p.recv_overhead_sec = 4.0e-5;
  p.loop_startup_elems = 8.0;
  return p;
}

TEST(PerfCompose, SequenceIsAssociative) {
  const Point p = compose_point();
  const Node a = leaf("points_sec", 2.0);
  const Node b = ring("ranks", {leaf("msg_overhead_sec", 3.0)});
  const Node c = leaf("plane_sec", 0.5);
  const double left = evaluate(sequence({a, sequence({b, c})}), p);
  const double right = evaluate(sequence({sequence({a, b}), c}), p);
  const double flat = evaluate(sequence({a, b, c}), p);
  EXPECT_DOUBLE_EQ(left, right);
  EXPECT_DOUBLE_EQ(left, flat);
  EXPECT_GT(flat, 0.0);
}

TEST(PerfCompose, ConcurrentIsMaxAndMonotoneInWeights) {
  const Point p = compose_point();
  const Node a = leaf("points_sec", 1.0);
  const Node b = leaf("msg_overhead_sec", 1.0);
  const double va = evaluate(a, p);
  const double vb = evaluate(b, p);
  EXPECT_DOUBLE_EQ(evaluate(concurrent({a, b}), p), std::max(va, vb));
  // Scaling any branch's weight up can only raise (or keep) the max.
  double prev = evaluate(concurrent({a, b}), p);
  for (double w = 1.0; w <= 1024.0; w *= 4.0) {
    const double now = evaluate(concurrent({a, leaf("msg_overhead_sec", w)}), p);
    EXPECT_GE(now, prev);
    EXPECT_GE(now, va);
    prev = now;
  }
}

TEST(PerfCompose, HopCountsMatchClosedForms) {
  for (const double e : {1.0, 2.0, 3.0, 4.0, 5.0, 8.0, 16.0, 17.0}) {
    EXPECT_DOUBLE_EQ(ring_hops(e), e - 1.0) << "e=" << e;
    EXPECT_DOUBLE_EQ(tree_hops(e), e <= 1.0 ? 0.0 : std::ceil(std::log2(e)))
        << "e=" << e;
    EXPECT_DOUBLE_EQ(pairwise_rounds(e), e) << "e=" << e;
  }
  EXPECT_DOUBLE_EQ(ring_hops(1.0), 0.0);
  EXPECT_DOUBLE_EQ(ring_hops(0.0), 0.0);
  EXPECT_DOUBLE_EQ(tree_hops(16.0), 4.0);
  EXPECT_DOUBLE_EQ(tree_hops(17.0), 5.0);

  // The operators apply exactly these multipliers to the unit driver.
  for (int rows : {1, 2, 4}) {
    for (int cols : {1, 2, 3, 4}) {
      const Point p = compose_point(96, 64, 5, rows, cols);
      const double e = p.ranks();
      EXPECT_DOUBLE_EQ(evaluate(ring("ranks", {leaf("unit")}), p),
                       ring_hops(e));
      EXPECT_DOUBLE_EQ(evaluate(tree("ranks", {leaf("unit")}), p),
                       tree_hops(e));
      // Transpose: (e-1) messages plus (e-1)/e of the volume; zero on one
      // rank (nothing crosses the wire).
      const double want =
          e <= 1.0 ? 0.0 : (e - 1.0) * 1.0 + (e - 1.0) / e * 1.0;
      EXPECT_DOUBLE_EQ(
          evaluate(transpose("ranks", {leaf("unit"), leaf("unit")}), p),
          want);
    }
  }
  Point p = compose_point();
  p.lb_rounds = 3;
  EXPECT_DOUBLE_EQ(evaluate(pairwise("lb_rounds", {leaf("unit")}), p), 3.0);
  p.lb_rounds = 0;
  EXPECT_DOUBLE_EQ(evaluate(pairwise("lb_rounds", {leaf("unit")}), p), 0.0);
}

TEST(PerfCompose, UnknownDriverAndExtentThrow) {
  const Point p = compose_point();
  EXPECT_THROW(driver_value("no_such_driver", p), std::invalid_argument);
  EXPECT_THROW(extent_value("no_such_extent", p), std::invalid_argument);
  EXPECT_THROW(evaluate(leaf("no_such_driver"), p), std::invalid_argument);
  // Every documented driver evaluates finite and non-negative.
  for (const std::string& name : driver_names()) {
    const double v = driver_value(name, p);
    EXPECT_TRUE(std::isfinite(v)) << name;
    EXPECT_GE(v, 0.0) << name;
  }
}

TEST(PerfCompose, NodeJsonRoundTripsByteStable) {
  const Node tree_node = sequence(
      {leaf("points_sec", 2.5, {1.0, 1}),
       ring("ranks", {leaf("msg_overhead_sec", 0.75)}),
       tree("mesh_cols", {leaf("unit", 1.0)}),
       transpose("mesh_rows", {leaf("msg_overhead_sec"), leaf("plane_sec")}),
       pairwise("lb_rounds", {leaf("pair_bytes_sec", 3.0)}),
       concurrent({leaf("physics_mean_sec"), leaf("physics_sunlit_max_sec")})});
  const trace::JsonValue j = node_json(tree_node);
  const Node back = node_from_json(j);
  EXPECT_EQ(j.dump(), node_json(back).dump());
  const Point p = compose_point();
  EXPECT_DOUBLE_EQ(evaluate(tree_node, p), evaluate(back, p));

  trace::JsonValue bad = trace::JsonValue::object();
  bad.set("op", trace::JsonValue("no-such-op"));
  EXPECT_THROW(node_from_json(bad), std::invalid_argument);
}

TEST(PerfCompose, LinearTermsRejectConcurrentAndMatchEvaluate) {
  const Point p = compose_point();
  Node comp = sequence({leaf("points_sec"),
                        ring("ranks", {leaf("msg_overhead_sec")})});
  const std::vector<double> terms = linear_terms(comp, p);
  ASSERT_EQ(terms.size(), 2u);
  EXPECT_DOUBLE_EQ(terms[0] + terms[1], evaluate(comp, p));

  Node with_max = sequence({concurrent({leaf("unit")})});
  EXPECT_THROW(linear_terms(with_max, p), std::invalid_argument);
}

TEST(PerfCompose, FitCompositeRecoversSyntheticLawExactly) {
  // y = c0 + w0 * points_sec + w1 * ring_hops(ranks) * msg_overhead_sec,
  // sampled over a geometry/mesh grid: the joint NNLS must give the exact
  // generating coefficients back (the design is well-conditioned).
  const double kC0 = 2.0e-3, kW0 = 1.5, kW1 = 4.0;
  Node model = sequence(
      {leaf("points_sec"), ring("ranks", {leaf("msg_overhead_sec")})});
  std::vector<Point> points;
  std::vector<double> y;
  for (int nlon : {48, 72, 96, 144}) {
    for (int rows : {1, 2}) {
      for (int cols : {1, 2, 4}) {
        Point p = compose_point(nlon, 2 * nlon / 3, 5, rows, cols);
        const double pts = driver_value("points_sec", p);
        const double msg = driver_value("msg_overhead_sec", p);
        points.push_back(p);
        y.push_back(kC0 + kW0 * pts + kW1 * ring_hops(p.ranks()) * msg);
      }
    }
  }
  const CompositeFit fit = fit_composite(model, points, y);
  EXPECT_NEAR(fit.c0, kC0, 1e-9);
  EXPECT_NEAR(model.children[0].weight, kW0, 1e-6);
  EXPECT_NEAR(model.children[1].children[0].weight, kW1, 1e-6);
  EXPECT_GT(fit.r2, 1.0 - 1e-9);
  EXPECT_EQ(fit.terms_used, 2);
  // The refitted tree reproduces every training sample.
  for (std::size_t i = 0; i < points.size(); ++i)
    EXPECT_NEAR(evaluate(model, points[i]) + fit.c0, y[i],
                1e-9 * std::max(1.0, std::abs(y[i])));

  Node degenerate = leaf("unit");
  EXPECT_THROW(fit_composite(degenerate, {compose_point()}, {1.0}),
               std::invalid_argument);
}

// --- whole-app predictor (predict.hpp) ------------------------------------

/// Synthetic observations whose fd and halo components follow exact
/// composite laws over the phase skeletons' own drivers. Filter and
/// physics are disabled so only the unconditional phases train.
std::vector<Observation> synthetic_observations() {
  std::vector<Observation> obs;
  for (int nlon : {48, 72, 96, 144}) {
    for (int rows : {1, 2}) {
      for (int cols : {1, 2, 4}) {
        Point p = compose_point(nlon, 2 * nlon / 3, 5, rows, cols);
        Observation o;
        o.point = p;
        o.filter_enabled = false;
        o.physics_enabled = false;
        o.actual.fd = 1.0e-3 + 2.0 * driver_value("points_sec", p) +
                      0.5 * driver_value("plane_sec", p);
        o.actual.halo = p.ranks() > 1
                            ? 3.0 * driver_value("halo_msgs_sec", p) +
                                  1.0 * driver_value("halo_bytes_sec", p)
                            : 0.0;
        obs.push_back(o);
      }
    }
  }
  return obs;
}

TEST(PerfPredict, RecoversSyntheticCompositeLawsThroughTraining) {
  const std::vector<Observation> obs = synthetic_observations();
  const PredictModel model = train_model(obs);
  ASSERT_NE(model.find("fd", ""), nullptr);
  ASSERT_NE(model.find("halo", ""), nullptr);
  EXPECT_GT(model.find("fd", "")->r2, 1.0 - 1e-9);

  // Exact in-sample recovery, including the structural halo zero on one
  // rank, and recovery at a held-out geometry never trained on.
  Point held_out = compose_point(120, 80, 5, 2, 2);
  const double want_fd = 1.0e-3 +
                         2.0 * driver_value("points_sec", held_out) +
                         0.5 * driver_value("plane_sec", held_out);
  const Prediction at = predict(model, held_out, /*filter_enabled=*/false,
                                /*physics_enabled=*/false);
  EXPECT_NEAR(at.fd, want_fd, 1e-6 * want_fd);
  EXPECT_DOUBLE_EQ(at.filter, 0.0);
  EXPECT_DOUBLE_EQ(at.physics_compute, 0.0);
  EXPECT_DOUBLE_EQ(at.physics_balance, 0.0);

  Point one_rank = compose_point(96, 64, 5, 1, 1);
  EXPECT_DOUBLE_EQ(
      predict(model, one_rank, false, false).halo, 0.0);

  // An untrained filter backend is an error, not a silent zero.
  Point p = compose_point();
  EXPECT_THROW(predict(model, p, /*filter_enabled=*/true, false),
               std::invalid_argument);
}

TEST(PerfPredict, ModelJsonRoundTripPreservesPredictions) {
  const PredictModel model = train_model(synthetic_observations());
  const trace::JsonValue j = model_to_json(model);
  const PredictModel back = model_from_json(j);
  EXPECT_EQ(j.dump(), model_to_json(back).dump());
  for (int nlon : {48, 120, 144}) {
    const Point p = compose_point(nlon, 2 * nlon / 3, 5, 2, 4);
    const Prediction a = predict(model, p, false, false);
    const Prediction b = predict(back, p, false, false);
    EXPECT_DOUBLE_EQ(a.fd, b.fd);
    EXPECT_DOUBLE_EQ(a.halo, b.halo);
    EXPECT_DOUBLE_EQ(a.total(), b.total());
  }
}

TEST(PerfPredict, PhaseSkeletonsExistForEveryBackendAndRejectUnknown) {
  for (const char* backend :
       {"fft-transpose", "fft-load-balanced", "convolution-tree",
        "implicit-zonal", "convolution-ring", "convolution-partitioned"}) {
    const Node skel = phase_skeleton("filter", backend);
    EXPECT_FALSE(collect_leaves(skel).empty()) << backend;
  }
  EXPECT_THROW(phase_skeleton("filter", "no-such-backend"),
               std::invalid_argument);
}

TEST(PerfPredict, LoadModelReportsMalformedFilesAsDataError) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "agcm_bad_predict_model.json")
          .string();
  for (const char* text :
       {"{\"schema\":\"nope\"}",    // wrong schema
        "{\"schema\":",               // truncated document
        R"({"schema":"agcm-predict-v1","phases":[{"phase":"fd"}]})"}) {
    trace::write_text_file(path, text);
    EXPECT_THROW(load_model(path), DataError) << text;
  }
  std::filesystem::remove(path);
  EXPECT_THROW(load_model(path), DataError);  // missing file
}

TEST(PerfPredict, CommittedModelReproducesItsStoredHoldoutPredictions) {
  const std::string path =
      std::string(AGCM_SOURCE_DIR) + "/bench/baselines/PREDICT_MODEL.json";
  const PredictModel model = load_model(path);
  std::string error;
  const std::optional<trace::JsonValue> doc =
      trace::JsonValue::parse(trace::read_text_file(path), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const trace::JsonValue* holdout = doc->find("holdout");
  ASSERT_NE(holdout, nullptr);
  ASSERT_GE(holdout->items().size(), 8u);

  // 1e-9 relative: the cross-compiler FMA allowance perf_diff.py applies
  // to the same numbers.
  constexpr double kRtol = 1e-9;
  for (const trace::JsonValue& entry : holdout->items()) {
    const std::string name = entry.find("name")->as_string();
    const Prediction mine =
        predict(model, point_from_json(*entry.find("point")),
                entry.find("filter_enabled")->as_bool(),
                entry.find("physics_enabled")->as_bool());
    const trace::JsonValue mine_json = prediction_json(mine);
    const trace::JsonValue* stored = entry.find("predicted");
    ASSERT_NE(stored, nullptr) << name;
    for (const char* key :
         {"filter_per_step_sec", "halo_per_step_sec", "fd_per_step_sec",
          "physics_compute_per_step_sec", "physics_balance_per_step_sec",
          "total_per_step_sec"}) {
      ASSERT_NE(stored->find(key), nullptr) << name << " " << key;
      const double want = stored->find(key)->as_number();
      const double got = mine_json.find(key)->as_number();
      const double scale = std::max({std::abs(want), std::abs(got), 1e-300});
      EXPECT_LE(std::abs(got - want) / scale, kRtol)
          << name << " " << key << ": stored " << want << ", got " << got;
    }
  }
}

}  // namespace
}  // namespace agcm::perfmodel
