// Campaign engine tests: matrix expansion from the campaign config
// dialect, config hashing, the JSON-lines store, and — the load-bearing
// property — cross-experiment isolation: a cell served concurrently next
// to other experiments, with the shared immutable caches on or off, at any
// fiber worker count, produces byte-for-byte the results of the same cell
// run standalone. Also the lb_scheme / physics_regime config knobs
// the campaign axes sweep (ISSUE 9 satellites).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "campaign/matrix.hpp"
#include "campaign/planner.hpp"
#include "campaign/runner.hpp"
#include "campaign/store.hpp"
#include "core/config_load.hpp"
#include "core/model.hpp"
#include "core/whatif.hpp"
#include "io/config.hpp"
#include "perfmodel/predict.hpp"
#include "util/error.hpp"
#include "util/shared_cache.hpp"

namespace agcm {
namespace {

using campaign::Campaign;
using campaign::Cell;
using campaign::CellResult;
using campaign::RunnerOptions;

/// A fast 4-cell matrix (2 machines x 2 LB schemes on a tiny grid) used by
/// the isolation fences below.
const char* kSmallMatrix = R"(campaign = unit
nlon = 48
nlat = 30
nlev = 3
mesh_rows = 1
mesh_cols = 1
steps = 1
warmup_steps = 1
sweep_machines = paragon, t3d
sweep_lb_schemes = none, pairwise
)";

Campaign small_matrix() {
  return campaign::campaign_from(io::Config::from_string(kSmallMatrix));
}

std::string run_store(const Campaign& matrix, int concurrency) {
  RunnerOptions options;
  options.concurrency = concurrency;
  const std::vector<CellResult> results =
      campaign::run_campaign(matrix, options);
  return campaign::store_lines(matrix.name, results,
                               /*include_wall=*/false);
}

TEST(CampaignMatrix, ExpandsAllAxesInOrder) {
  const Campaign matrix = campaign::campaign_from(io::Config::from_string(
      R"(campaign = grid
nlon = 48
nlat = 30
nlev = 3
mesh_rows = 1
mesh_cols = 1
sweep_machines = paragon, t3d
sweep_resolutions = 48x30x3, 64x46x3
sweep_filter_algorithms = convolution-ring, fft-transpose
sweep_lb_schemes = none, cyclic, sorted-greedy, pairwise
sweep_physics_regimes = equinox, june-solstice, december-solstice
)"));
  EXPECT_EQ(matrix.name, "grid");
  ASSERT_EQ(matrix.cells.size(), 2u * 2u * 2u * 4u * 3u);
  // Machines vary slowest, regimes fastest; names carry all five tokens.
  EXPECT_EQ(matrix.cells.front().name,
            "paragon/48x30x3/convolution-ring/none/equinox");
  EXPECT_EQ(matrix.cells[1].name,
            "paragon/48x30x3/convolution-ring/none/june-solstice");
  EXPECT_EQ(matrix.cells.back().name,
            "t3d/64x46x3/fft-transpose/pairwise/december-solstice");

  // Every cell hashes to a distinct 16-hex-digit id.
  std::set<std::string> hashes;
  for (const Cell& cell : matrix.cells) {
    ASSERT_EQ(cell.config_hash.size(), 16u);
    EXPECT_EQ(cell.config_hash.find_first_not_of("0123456789abcdef"),
              std::string::npos);
    hashes.insert(cell.config_hash);
  }
  EXPECT_EQ(hashes.size(), matrix.cells.size());

  // Scheme axis: "none" cells disable balancing, the rest enable it.
  EXPECT_FALSE(matrix.cells[0].spec.model.physics_load_balance);
  EXPECT_TRUE(matrix.cells[3].spec.model.physics_load_balance);
  EXPECT_EQ(matrix.cells[3].spec.model.lb_scheme, lb::Scheme::kCyclic);
}

TEST(CampaignMatrix, UnsweptAxesCollapseToBaseValue) {
  const Campaign matrix = campaign::campaign_from(io::Config::from_string(
      "campaign = single\nnlon = 48\nnlat = 30\nnlev = 3\n"
      "mesh_rows = 1\nmesh_cols = 1\n"
      "machine = t3d\nlb_scheme = sorted-greedy\n"));
  ASSERT_EQ(matrix.cells.size(), 1u);
  EXPECT_EQ(matrix.cells[0].name,
            "t3d/48x30x3/fft-load-balanced/sorted-greedy/equinox");
  EXPECT_EQ(matrix.cells[0].spec.model.lb_scheme, lb::Scheme::kSortedGreedy);
}

TEST(CampaignMatrix, RejectsMalformedAxes) {
  EXPECT_THROW(campaign::campaign_from(io::Config::from_string(
                   "sweep_resolutions = 48x30\n")),
               ConfigError);
  EXPECT_THROW(campaign::campaign_from(io::Config::from_string(
                   "sweep_machines = paragon,, t3d\n")),
               ConfigError);
  EXPECT_THROW(campaign::campaign_from(io::Config::from_string(
                   "sweep_lb_schemes = scheme4\n")),
               ConfigError);
}

TEST(CampaignMatrix, HashIgnoresHostExecutionKnobs) {
  core::RunSpec spec =
      core::run_spec_from(io::Config::from_string(
          "nlon = 48\nnlat = 30\nmesh_rows = 1\nmesh_cols = 1\n"));
  const std::string base = campaign::canonical_config(spec);

  core::RunSpec host = spec;
  host.model.simnet_workers = 7;
  host.model.recv_timeout_ms = 1;
  EXPECT_EQ(campaign::canonical_config(host), base);

  core::RunSpec physics = spec;
  physics.model.physics_regime = physics::PhysicsRegime::kJuneSolstice;
  EXPECT_NE(campaign::canonical_config(physics), base);
  core::RunSpec res = spec;
  res.model.nlev += 1;
  EXPECT_NE(campaign::canonical_config(res), base);
}

TEST(RunSpec, RetiredThreadsBackendIsAConfigError) {
  const std::string base = "mesh_rows = 1\nmesh_cols = 1\n";
  EXPECT_NO_THROW(core::run_spec_from(
      io::Config::from_string(base + "simnet_backend = fibers\n")));
  try {
    core::run_spec_from(
        io::Config::from_string(base + "simnet_backend = threads\n"));
    FAIL() << "simnet_backend = threads should be rejected";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("retired"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(core::run_spec_from(io::Config::from_string(
                   base + "simnet_backend = bogus\n")),
               ConfigError);
}

TEST(CampaignStore, RecordsCarrySchemaAndBreakdown) {
  Campaign matrix = small_matrix();
  matrix.cells.resize(1);
  RunnerOptions options;
  const std::vector<CellResult> results =
      campaign::run_campaign(matrix, options);
  ASSERT_EQ(results.size(), 1u);
  const trace::JsonValue record =
      campaign::store_record(matrix.name, results[0], /*include_wall=*/true);
  const std::string text = record.dump();
  EXPECT_NE(text.find("\"schema\":\"agcm-campaign-v1\""), std::string::npos);
  EXPECT_NE(text.find("\"config_hash\":\"" + matrix.cells[0].config_hash),
            std::string::npos);
  EXPECT_NE(text.find("\"total_per_day_sec\""), std::string::npos);
  EXPECT_NE(text.find("\"wall_sec\""), std::string::npos);
  // --no-wall mode: the only host-dependent field is gone.
  const std::string no_wall =
      campaign::store_record(matrix.name, results[0], /*include_wall=*/false)
          .dump();
  EXPECT_EQ(no_wall.find("\"wall_sec\""), std::string::npos);
}

// The central isolation fence: every cell of a concurrently-served
// campaign is byte-identical to the same cell run standalone (fresh
// process state, one Machine at a time).
TEST(CampaignIsolation, ConcurrentMatchesStandalone) {
  const Campaign matrix = small_matrix();
  const std::string concurrent = run_store(matrix, 4);

  std::string standalone;
  for (const Cell& cell : matrix.cells) {
    CellResult result;
    result.cell = cell;
    result.report = core::run_model(cell.spec.model, cell.spec.steps,
                                    cell.spec.warmup_steps);
    standalone += campaign::store_record(matrix.name, result,
                                         /*include_wall=*/false)
                      .dump();
    standalone += '\n';
  }
  EXPECT_EQ(concurrent, standalone);
}

TEST(CampaignIsolation, SharedCachesAreResultNeutral) {
  const Campaign matrix = small_matrix();
  std::string with_caches;
  {
    util::SharedCaches::ScopedEnable on(true);
    util::SharedCaches::clear_all();
    with_caches = run_store(matrix, 4);
  }
  std::string without_caches;
  {
    util::SharedCaches::ScopedEnable off(false);
    util::SharedCaches::clear_all();
    without_caches = run_store(matrix, 4);
  }
  EXPECT_EQ(with_caches, without_caches);
}

TEST(CampaignIsolation, WorkerCountIsResultNeutral) {
  // The small matrix on a 2x2 mesh, so the fiber workers really share ranks.
  const Campaign matrix = campaign::campaign_from(io::Config::from_string(
      R"(campaign = unit
nlon = 48
nlat = 30
nlev = 3
mesh_rows = 2
mesh_cols = 2
steps = 1
warmup_steps = 1
sweep_machines = paragon, t3d
sweep_lb_schemes = none, pairwise
)"));
  RunnerOptions options;
  options.concurrency = 2;
  options.workers_per_machine = 1;
  const std::string one_worker = campaign::store_lines(
      matrix.name, campaign::run_campaign(matrix, options),
      /*include_wall=*/false);
  options.workers_per_machine = 0;  // each machine's default pool
  const std::string default_workers = campaign::store_lines(
      matrix.name, campaign::run_campaign(matrix, options),
      /*include_wall=*/false);
  // The worker count is a host-execution knob: same canonical configs,
  // same hashes, same bytes.
  EXPECT_EQ(one_worker, default_workers);
}

TEST(CampaignRunner, ResultsKeepMatrixOrderAtAnyConcurrency) {
  const Campaign matrix = small_matrix();
  for (int concurrency : {1, 2, 8}) {
    RunnerOptions options;
    options.concurrency = concurrency;
    const std::vector<CellResult> results =
        campaign::run_campaign(matrix, options);
    ASSERT_EQ(results.size(), matrix.cells.size());
    for (std::size_t i = 0; i < results.size(); ++i)
      EXPECT_EQ(results[i].cell.name, matrix.cells[i].name);
  }
}

// ISSUE 9 satellite: Scheme 1 (cyclic) and Scheme 2 (sorted greedy) as
// first-class lb_scheme choices, ordered by residual imbalance the way the
// paper ranks them: Scheme 3 <= Scheme 2 <= Scheme 1 <= none.
TEST(LbSchemeKnob, ResidualImbalanceOrdering) {
  // Residual imbalance as the planner sees it (estimated column loads):
  // imbalance_after for the balanced schemes, imbalance_before for "none"
  // (no balance pass runs, so "after" is what it started with). Measured
  // on a june-solstice load field so day/night + season give the planners
  // genuinely uneven work. Tolerance 0 lets pairwise iterate to
  // convergence instead of stopping at the paper's 2% early-out.
  const auto residual_imbalance = [](const char* scheme) {
    const core::RunSpec spec = core::run_spec_from(io::Config::from_string(
        std::string("nlon = 48\nnlat = 30\nnlev = 3\n"
                    "mesh_rows = 4\nmesh_cols = 1\nsteps = 1\n"
                    "physics_regime = june-solstice\n"
                    "warmup_steps = 1\nlb_tolerance = 0\n"
                    "lb_max_iterations = 32\nlb_scheme = ") +
        scheme + "\n"));
    const core::RunReport report =
        core::run_model(spec.model, spec.steps, spec.warmup_steps);
    if (std::string(scheme) != "none") return report.physics_imbalance_after;
    // No balance pass runs, so no planner stats exist: take the structural
    // imbalance from the flops each rank actually executed (max/mean - 1).
    double sum = 0.0;
    double max = 0.0;
    for (const double flops : report.rank_physics_flops) {
      sum += flops;
      max = std::max(max, flops);
    }
    return max * static_cast<double>(report.rank_physics_flops.size()) / sum -
           1.0;
  };
  const double none = residual_imbalance("none");
  const double cyclic = residual_imbalance("cyclic");
  const double sorted_greedy = residual_imbalance("sorted-greedy");
  const double pairwise = residual_imbalance("pairwise");
  SCOPED_TRACE("none=" + std::to_string(none) +
               " cyclic=" + std::to_string(cyclic) +
               " sorted-greedy=" + std::to_string(sorted_greedy) +
               " pairwise=" + std::to_string(pairwise));

  // A 4x1 latitude mesh is genuinely imbalanced (polar vs tropical
  // columns), so there is something to win.
  EXPECT_GT(none, 0.05);
  const double eps = 1e-9;
  EXPECT_LE(pairwise, sorted_greedy + eps);
  EXPECT_LE(sorted_greedy, cyclic + eps);
  EXPECT_LE(cyclic, none + eps);
}

TEST(LbSchemeKnob, SchemeAliasesAndNames) {
  EXPECT_EQ(core::parse_lb_scheme("scheme1"), lb::Scheme::kCyclic);
  EXPECT_EQ(core::parse_lb_scheme("scheme2"), lb::Scheme::kSortedGreedy);
  EXPECT_EQ(core::parse_lb_scheme("scheme3"), lb::Scheme::kPairwise);
  EXPECT_STREQ(lb::scheme_name(lb::Scheme::kNone), "none");
  EXPECT_STREQ(lb::scheme_name(lb::Scheme::kCyclic), "cyclic");
  EXPECT_STREQ(lb::scheme_name(lb::Scheme::kSortedGreedy), "sorted-greedy");
  EXPECT_STREQ(lb::scheme_name(lb::Scheme::kPairwise), "pairwise");
}

// ISSUE 9 satellite: day/night + seasonal physics_regime knob. Equinox is
// the frozen historical default; the solstices tilt the subsolar point and
// must change the physics load field.
TEST(PhysicsRegimeKnob, EquinoxIsTheFrozenDefault) {
  const core::RunSpec plain = core::run_spec_from(io::Config::from_string(
      "nlon = 48\nnlat = 30\nnlev = 3\nmesh_rows = 1\nmesh_cols = 1\n"));
  const core::RunSpec equinox = core::run_spec_from(io::Config::from_string(
      "nlon = 48\nnlat = 30\nnlev = 3\nmesh_rows = 1\nmesh_cols = 1\n"
      "physics_regime = equinox\n"));
  EXPECT_EQ(plain.model.physics_regime, physics::PhysicsRegime::kEquinox);
  EXPECT_EQ(campaign::canonical_config(plain),
            campaign::canonical_config(equinox));
  EXPECT_EQ(physics::regime_declination_rad(physics::PhysicsRegime::kEquinox),
            0.0);
  EXPECT_GT(physics::regime_declination_rad(
                physics::PhysicsRegime::kJuneSolstice),
            0.0);
  EXPECT_LT(physics::regime_declination_rad(
                physics::PhysicsRegime::kDecemberSolstice),
            0.0);
}

TEST(PhysicsRegimeKnob, SolsticeChangesResults) {
  const auto total = [](const char* regime) {
    const core::RunSpec spec = core::run_spec_from(io::Config::from_string(
        std::string("nlon = 48\nnlat = 30\nnlev = 3\nmesh_rows = 1\n"
                    "mesh_cols = 1\nsteps = 1\n"
                    "warmup_steps = 1\nphysics_regime = ") +
        regime + "\n"));
    return core::run_model(spec.model, spec.steps, spec.warmup_steps)
        .per_step.physics_compute;
  };
  const double equinox = total("equinox");
  const double june = total("june-solstice");
  const double december = total("december-solstice");
  EXPECT_NE(equinox, june);
  EXPECT_NE(equinox, december);
  EXPECT_NE(june, december);
}

// --- admission planner (ISSUE 10) -----------------------------------------

/// A 6-cell training matrix (3 resolutions x lb on/off) rich enough to fit
/// the filter, fd and both physics predictors the small matrix needs.
const char* kTrainMatrix = R"(campaign = train
nlon = 48
nlat = 30
nlev = 3
mesh_rows = 1
mesh_cols = 1
steps = 1
warmup_steps = 1
sweep_resolutions = 48x30x3, 64x42x3, 96x64x4
sweep_lb_schemes = none, pairwise
)";

perfmodel::PredictModel trained_model() {
  const Campaign train =
      campaign::campaign_from(io::Config::from_string(kTrainMatrix));
  RunnerOptions options;
  options.concurrency = 2;
  const std::vector<CellResult> results =
      campaign::run_campaign(train, options);
  std::vector<perfmodel::Observation> observations;
  for (std::size_t i = 0; i < results.size(); ++i)
    observations.push_back(
        core::observation_from(train.cells[i].spec.model, results[i].report));
  return perfmodel::train_model(observations);
}

TEST(CampaignPlanner, OrdersCheapestFirstAndBudgetAdmitsPrefix) {
  const perfmodel::PredictModel model = trained_model();
  const Campaign matrix = small_matrix();

  const campaign::AdmissionPlan unlimited =
      campaign::plan_admission(matrix, model);
  ASSERT_EQ(unlimited.admitted.size(), matrix.cells.size());
  EXPECT_TRUE(unlimited.skipped.empty());
  double sum = 0.0;
  for (std::size_t i = 0; i < unlimited.admitted.size(); ++i) {
    const campaign::PlannedCell& cell = unlimited.admitted[i];
    EXPECT_GT(cell.predicted_per_day_sec, 0.0);
    if (i > 0) {
      EXPECT_GE(cell.predicted_per_day_sec,
                unlimited.admitted[i - 1].predicted_per_day_sec);
    }
    // The planner's forecast is exactly the what-if adapter's.
    const perfmodel::Prediction direct = core::predict_config(
        model, matrix.cells[cell.index].spec.model);
    EXPECT_DOUBLE_EQ(cell.prediction.total(), direct.total());
    sum += cell.predicted_per_day_sec;
  }
  EXPECT_DOUBLE_EQ(unlimited.admitted_predicted_per_day_sec, sum);

  // A budget covering exactly the two cheapest cells admits exactly them.
  const double budget = unlimited.admitted[0].predicted_per_day_sec +
                        unlimited.admitted[1].predicted_per_day_sec;
  const campaign::AdmissionPlan capped =
      campaign::plan_admission(matrix, model, budget);
  ASSERT_EQ(capped.admitted.size(), 2u);
  EXPECT_EQ(capped.skipped.size(), matrix.cells.size() - 2);
  EXPECT_EQ(capped.admitted[0].index, unlimited.admitted[0].index);
  EXPECT_EQ(capped.admitted[1].index, unlimited.admitted[1].index);
  EXPECT_DOUBLE_EQ(capped.admitted_predicted_per_day_sec, budget);

  // A zero budget admits nothing (every cell costs > 0).
  const campaign::AdmissionPlan zero =
      campaign::plan_admission(matrix, model, 0.0);
  EXPECT_TRUE(zero.admitted.empty());
  EXPECT_EQ(zero.skipped.size(), matrix.cells.size());
}

TEST(CampaignPlanner, UntrainedBackendIsAConfigErrorNamingTheCell) {
  const perfmodel::PredictModel model = trained_model();
  const Campaign matrix = campaign::campaign_from(io::Config::from_string(
      R"(campaign = untrained
nlon = 48
nlat = 30
nlev = 3
mesh_rows = 1
mesh_cols = 1
filter_algorithm = implicit-zonal
)"));
  ASSERT_EQ(matrix.cells.size(), 1u);
  EXPECT_THROW(campaign::plan_admission(matrix, model), ConfigError);
  try {
    campaign::plan_admission(matrix, model);
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(matrix.cells[0].name),
              std::string::npos)
        << e.what();
  }
}

TEST(CampaignPlanner, RunPlannedAttachesPredictionsDeterministically) {
  const perfmodel::PredictModel model = trained_model();
  const Campaign matrix = small_matrix();
  const campaign::AdmissionPlan plan = campaign::plan_admission(matrix, model);

  const auto run_planned_store = [&](int concurrency) {
    RunnerOptions options;
    options.concurrency = concurrency;
    const std::vector<CellResult> results =
        campaign::run_planned(matrix, plan, options);
    return campaign::store_lines(matrix.name, results,
                                 /*include_wall=*/false);
  };
  const std::string serial = run_planned_store(1);
  EXPECT_EQ(serial, run_planned_store(4));

  RunnerOptions options;
  const std::vector<CellResult> results =
      campaign::run_planned(matrix, plan, options);
  ASSERT_EQ(results.size(), plan.admitted.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].has_prediction);
    EXPECT_DOUBLE_EQ(results[i].prediction.total(),
                     plan.admitted[i].prediction.total());
    // Results come back in plan (cheapest-first) order.
    EXPECT_EQ(results[i].cell.name,
              matrix.cells[plan.admitted[i].index].name);
    const std::string record =
        campaign::store_record(matrix.name, results[i],
                               /*include_wall=*/false)
            .dump();
    EXPECT_NE(record.find("\"predicted\":{"), std::string::npos);
    EXPECT_NE(record.find("\"total_per_day_sec\""), std::string::npos);
  }
}

TEST(CampaignStore, RecordsCarryPhasePercentiles) {
  Campaign matrix = small_matrix();
  matrix.cells.resize(1);
  RunnerOptions options;
  const std::vector<CellResult> results =
      campaign::run_campaign(matrix, options);
  ASSERT_EQ(results.size(), 1u);
  const std::string record =
      campaign::store_record(matrix.name, results[0], /*include_wall=*/false)
          .dump();
  EXPECT_NE(record.find("\"phase_percentiles\":{"), std::string::npos);
  for (const char* phase : {"\"filter\":{", "\"halo\":{", "\"fd\":{",
                            "\"physics_compute\":{", "\"physics_balance\":{"}) {
    EXPECT_NE(record.find(phase), std::string::npos) << phase;
  }
  for (const char* q : {"\"p50\":", "\"p95\":", "\"p99\":"}) {
    EXPECT_NE(record.find(q), std::string::npos) << q;
  }
  // Without a plan there is no forecast to store.
  EXPECT_EQ(record.find("\"predicted\""), std::string::npos);
}

}  // namespace
}  // namespace agcm
