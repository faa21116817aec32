// Campaign admission planner: consult the performance model before paying
// for an experiment.
//
// With a trained PredictModel (PREDICT_MODEL.json, docs/perfmodel.md) the
// campaign driver can answer "which cells fit the budget, and in what
// order?" without running anything: every cell gets a predicted per-day
// virtual cost, cells are ordered cheapest-first (ties break toward matrix
// order, so the plan is deterministic), and a budget cap admits the prefix
// whose cumulative predicted cost fits. Admitted cells then run through
// the ordinary runner, and each store record carries the prediction it was
// admitted under — campaign_query.py --drift compares it against the
// actual to keep model rot observable (docs/campaign.md).
#pragma once

#include <cstddef>
#include <vector>

#include "campaign/runner.hpp"
#include "campaign/store.hpp"
#include "perfmodel/predict.hpp"

namespace agcm::campaign {

/// One planned cell: its index in the campaign matrix and the model's
/// per-step component forecast.
struct PlannedCell {
  std::size_t index = 0;
  perfmodel::Prediction prediction;
  /// Predicted virtual seconds per simulated day (what the budget caps).
  double predicted_per_day_sec = 0.0;
};

struct AdmissionPlan {
  /// Cheapest-first; the order admitted cells run and are stored in.
  std::vector<PlannedCell> admitted;
  /// Cells whose cumulative predicted cost exceeded the budget.
  std::vector<PlannedCell> skipped;
  /// The cap applied (negative = unlimited).
  double budget_per_day_sec = -1.0;
  /// Sum of predicted per-day cost over the admitted cells.
  double admitted_predicted_per_day_sec = 0.0;
};

/// Plans the campaign under `budget_per_day_sec` (negative = admit all).
/// Throws agcm::ConfigError naming the cell when the model cannot predict
/// it (e.g. an untrained filter backend in the matrix).
AdmissionPlan plan_admission(const Campaign& campaign,
                             const perfmodel::PredictModel& model,
                             double budget_per_day_sec = -1.0);

/// Runs the admitted cells in plan order (concurrently per `options`) and
/// returns their results — with predictions attached — in plan order, the
/// order write_store persists them.
std::vector<CellResult> run_planned(const Campaign& campaign,
                                    const AdmissionPlan& plan,
                                    const RunnerOptions& options = {});

}  // namespace agcm::campaign
