// Whole-application performance prediction: per-phase composition trees
// (compose.hpp) trained on simnet observations and evaluated at untested
// configurations.
//
// A PredictModel holds one fitted composition tree per (phase, selector)
// pair — filter trees are keyed by the backend token, the physics trees by
// whether load balancing is on. The fitted weights are machine-free: every
// Point carries its own machine scalars. predict() assembles the paper's
// five component times at any Point and the whole-step total is their sum
// (the component boundaries are barriers, so phases compose by
// `sequence`).
//
// The serialised form is PREDICT_MODEL.json, schema `agcm-predict-v1`
// (docs/perfmodel.md): deterministic insertion-ordered JSON, written by
// bench_predict_model, consumed by the campaign admission planner
// (campaign/planner.hpp), which also answers what-if questions through
// `campaign_run --predict MODEL.json --list`.
#pragma once

#include <string>
#include <vector>

#include "perfmodel/compose.hpp"

namespace agcm::perfmodel {

inline constexpr const char* kPredictSchema = "agcm-predict-v1";

/// One fitted phase model: a composition tree with fitted leaf weights,
/// an intercept, and the fit statistics. `selector` scopes it: the filter
/// backend token for "filter", "lb-on"/"lb-off" for the physics phases,
/// empty for the unconditional phases (halo, fd).
struct PhasePredictor {
  std::string phase;
  std::string selector;
  Node tree;
  double c0 = 0.0;
  double r2 = 0.0;
  double rmse = 0.0;
  int n_train = 0;
  int terms_used = 0;

  double evaluate_at(const Point& point) const;
};

struct PredictModel {
  std::vector<PhasePredictor> phases;

  /// The predictor for (phase, selector), or nullptr.
  const PhasePredictor* find(const std::string& phase,
                             const std::string& selector) const;
};

/// Per-step component prediction (virtual seconds), mirroring
/// core::ComponentTimes without the core dependency.
struct Prediction {
  double filter = 0.0;
  double halo = 0.0;
  double fd = 0.0;
  double physics_compute = 0.0;
  double physics_balance = 0.0;

  double total() const {
    return filter + halo + fd + physics_compute + physics_balance;
  }
};

/// One training/validation observation: a point and the five measured
/// per-step component times (max over ranks, as run_model reports them).
struct Observation {
  Point point;
  Prediction actual;
  bool filter_enabled = true;
  bool physics_enabled = true;
};

/// The untrained skeleton tree for a phase (exposed for tests): filter
/// skeletons mirror each backend's communication structure, fd/halo are
/// flat driver sums, physics_balance is the Scheme-3 pairwise exchange.
/// Throws std::invalid_argument for an unknown filter backend.
Node phase_skeleton(const std::string& phase, const std::string& selector);

/// Fits one predictor per (phase, selector) group present in the
/// observations (>= 3 samples per group required; smaller groups are
/// skipped). Throws std::invalid_argument when nothing is trainable.
PredictModel train_model(const std::vector<Observation>& observations);

/// Predicts the five per-step component times at `point`. `filter_enabled`
/// / `physics_enabled` zero the corresponding phases; otherwise a missing
/// (phase, selector) predictor throws std::invalid_argument (e.g. a filter
/// backend the model was never trained on).
Prediction predict(const PredictModel& model, const Point& point,
                   bool filter_enabled = true, bool physics_enabled = true);

/// Serialisation. model_from_json accepts a full PREDICT_MODEL.json
/// document (extra blocks — training, holdout, gates — are ignored) and
/// throws std::invalid_argument on malformed input.
trace::JsonValue model_to_json(const PredictModel& model);
PredictModel model_from_json(const trace::JsonValue& value);

/// Reads and parses a PREDICT_MODEL.json file. I/O, parse and shape
/// failures throw agcm::DataError naming the file.
PredictModel load_model(const std::string& path);

/// {"filter_per_step_sec": ..., ..., "total_per_step_sec": ...} — the
/// block both the campaign store and the bench holdout entries embed.
trace::JsonValue prediction_json(const Prediction& prediction);

}  // namespace agcm::perfmodel
