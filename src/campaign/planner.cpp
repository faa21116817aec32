#include "campaign/planner.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/whatif.hpp"
#include "util/error.hpp"

namespace agcm::campaign {

AdmissionPlan plan_admission(const Campaign& campaign,
                             const perfmodel::PredictModel& model,
                             double budget_per_day_sec) {
  AdmissionPlan plan;
  plan.budget_per_day_sec = budget_per_day_sec;

  std::vector<PlannedCell> cells;
  cells.reserve(campaign.cells.size());
  for (std::size_t i = 0; i < campaign.cells.size(); ++i) {
    const core::RunSpec& spec = campaign.cells[i].spec;
    PlannedCell cell;
    cell.index = i;
    try {
      cell.prediction = core::predict_config(model, spec.model);
    } catch (const std::invalid_argument& e) {
      throw ConfigError("cell '" + campaign.cells[i].name +
                        "' cannot be planned: " + e.what());
    }
    cell.predicted_per_day_sec =
        cell.prediction.total() * spec.model.steps_per_day();
    cells.push_back(cell);
  }

  // Cheapest-first, ties toward matrix order: the plan — and therefore the
  // store — is deterministic for a given campaign file and model.
  std::stable_sort(cells.begin(), cells.end(),
                   [](const PlannedCell& a, const PlannedCell& b) {
                     return a.predicted_per_day_sec < b.predicted_per_day_sec;
                   });

  double spent = 0.0;
  for (const PlannedCell& cell : cells) {
    if (budget_per_day_sec >= 0.0 &&
        spent + cell.predicted_per_day_sec > budget_per_day_sec) {
      plan.skipped.push_back(cell);
      continue;
    }
    spent += cell.predicted_per_day_sec;
    plan.admitted.push_back(cell);
  }
  plan.admitted_predicted_per_day_sec = spent;
  return plan;
}

std::vector<CellResult> run_planned(const Campaign& campaign,
                                    const AdmissionPlan& plan,
                                    const RunnerOptions& options) {
  // Reuse the ordinary runner on a sub-matrix in plan order: results land
  // at their plan index regardless of scheduling, so the store stays
  // byte-identical across concurrency levels.
  Campaign admitted;
  admitted.name = campaign.name;
  admitted.cells.reserve(plan.admitted.size());
  for (const PlannedCell& cell : plan.admitted)
    admitted.cells.push_back(campaign.cells[cell.index]);

  std::vector<CellResult> results = run_campaign(admitted, options);
  for (std::size_t i = 0; i < results.size(); ++i) {
    results[i].has_prediction = true;
    results[i].prediction = plan.admitted[i].prediction;
  }
  return results;
}

}  // namespace agcm::campaign
