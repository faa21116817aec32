#include "perfmodel/predict.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "util/error.hpp"

namespace agcm::perfmodel {

double PhasePredictor::evaluate_at(const Point& point) const {
  return c0 + evaluate(tree, point);
}

const PhasePredictor* PredictModel::find(const std::string& phase,
                                         const std::string& selector) const {
  for (const PhasePredictor& p : phases)
    if (p.phase == phase && p.selector == selector) return &p;
  return nullptr;
}

Node phase_skeleton(const std::string& phase, const std::string& selector) {
  if (phase == "fd") {
    // Finite-difference dynamics: pure local compute. The startup-aware
    // term carries the short-loop penalty that made narrow blocks slow on
    // the i860/21064 (Section 3.1); the plain and 2-D terms let the fit
    // split per-point from per-column work.
    return sequence({leaf("points_startup_sec"), leaf("points_sec"),
                     leaf("plane_sec"), leaf("mem_points_sec")});
  }
  if (phase == "halo") {
    // Boundary exchange: per-message overheads, wire bytes, pack compute.
    return sequence({leaf("halo_msgs_sec"), leaf("halo_bytes_sec"),
                     leaf("halo_pack_sec")});
  }
  if (phase == "physics_compute") {
    // Max-rank column physics. The sunlit-fraction term models the
    // day/night radiation imbalance the barriers realise (Tables 1-3);
    // after balancing the mean term dominates. Both selectors share the
    // regressor set and the fit picks the mixture.
    return sequence({leaf("physics_mean_sec"), leaf("physics_sunlit_max_sec"),
                     leaf("points_sec")});
  }
  if (phase == "physics_balance") {
    // LB Scheme 3: lb_rounds pairwise exchange rounds of messages and
    // migrated column state.
    return pairwise("lb_rounds",
                    {leaf("msg_overhead_sec"), leaf("pair_bytes_sec")});
  }
  if (phase != "filter")
    throw std::invalid_argument("unknown phase '" + phase + "'");

  // Filter skeletons mirror each backend's parallel structure
  // (docs/filter.md). Leaves the backend lacks fit to weight 0.
  if (selector == "fft-transpose") {
    return sequence({transpose("mesh_cols", {leaf("msg_overhead_sec"),
                                             leaf("seg_bytes_row_sec")}),
                     leaf("fft_lines_row_sec"), leaf("lin_lines_row_sec")});
  }
  if (selector == "fft-load-balanced") {
    // Figure 2 redistribution along the mesh rows, then the within-row
    // line transpose and balanced whole-line FFTs.
    return sequence({ring("mesh_rows", {leaf("msg_overhead_sec"),
                                        leaf("line_bytes_bal_sec")}),
                     transpose("mesh_cols", {leaf("msg_overhead_sec"),
                                             leaf("seg_bytes_row_sec")}),
                     leaf("fft_lines_bal_sec"), leaf("lin_lines_bal_sec")});
  }
  if (selector == "convolution-ring") {
    // (P-1) ring hops, each moving a segment and convolving it locally.
    return sequence({ring("mesh_cols", {leaf("msg_overhead_sec"),
                                        leaf("seg_bytes_row_sec"),
                                        leaf("conv_seg_row_sec")}),
                     leaf("conv_seg_row_sec"), leaf("lin_lines_row_sec")});
  }
  if (selector == "convolution-tree") {
    return sequence({tree("mesh_cols", {leaf("msg_overhead_sec"),
                                        leaf("seg_bytes_row_sec")}),
                     leaf("conv_seg_row_sec"), leaf("conv_row_sec"),
                     leaf("lin_lines_row_sec")});
  }
  if (selector == "convolution-partitioned") {
    // Overlap-save block convolution: quasi-linear spectral work plus the
    // same within-row exchange pattern as the ring.
    return sequence({ring("mesh_cols", {leaf("msg_overhead_sec"),
                                        leaf("seg_bytes_row_sec")}),
                     leaf("fft_lines_row_sec"), leaf("lin_lines_row_sec"),
                     leaf("conv_seg_row_sec")});
  }
  if (selector == "implicit-zonal") {
    return sequence({ring("mesh_cols", {leaf("msg_overhead_sec"),
                                        leaf("seg_bytes_row_sec")}),
                     leaf("lin_lines_row_sec"), leaf("fft_lines_row_sec")});
  }
  throw std::invalid_argument("no filter skeleton for backend '" + selector +
                              "'");
}

namespace {

double component_of(const Observation& obs, const std::string& phase) {
  if (phase == "filter") return obs.actual.filter;
  if (phase == "halo") return obs.actual.halo;
  if (phase == "fd") return obs.actual.fd;
  if (phase == "physics_compute") return obs.actual.physics_compute;
  return obs.actual.physics_balance;
}

std::string lb_selector(bool lb_enabled) {
  return lb_enabled ? "lb-on" : "lb-off";
}

}  // namespace

PredictModel train_model(const std::vector<Observation>& observations) {
  PredictModel model;

  // Group observations per (phase, selector). std::map keeps group order
  // deterministic (sorted keys), independent of observation order.
  std::map<std::pair<std::string, std::string>, std::vector<std::size_t>>
      groups;
  for (std::size_t i = 0; i < observations.size(); ++i) {
    const Observation& obs = observations[i];
    groups[{"fd", ""}].push_back(i);
    if (obs.point.ranks() > 1) groups[{"halo", ""}].push_back(i);
    if (obs.filter_enabled)
      groups[{"filter", obs.point.filter_backend}].push_back(i);
    if (obs.physics_enabled) {
      groups[{"physics_compute", lb_selector(obs.point.lb_enabled)}].push_back(
          i);
      // One rank has no exchange partner: balance is structurally zero
      // there (mirrored in predict()), so those points carry no signal.
      if (obs.point.lb_enabled && obs.point.ranks() > 1)
        groups[{"physics_balance", "lb-on"}].push_back(i);
    }
  }

  for (const auto& [key, indices] : groups) {
    if (indices.size() < 3) continue;  // underdetermined; skip the group
    PhasePredictor predictor;
    predictor.phase = key.first;
    predictor.selector = key.second;
    predictor.tree = phase_skeleton(key.first, key.second);
    std::vector<Point> points;
    std::vector<double> y;
    points.reserve(indices.size());
    y.reserve(indices.size());
    for (const std::size_t i : indices) {
      points.push_back(observations[i].point);
      y.push_back(component_of(observations[i], key.first));
    }
    const CompositeFit fit = fit_composite(predictor.tree, points, y);
    predictor.c0 = fit.c0;
    predictor.r2 = fit.r2;
    predictor.rmse = fit.rmse;
    predictor.n_train = static_cast<int>(indices.size());
    predictor.terms_used = fit.terms_used;
    model.phases.push_back(std::move(predictor));
  }

  if (model.phases.empty())
    throw std::invalid_argument(
        "train_model: no (phase, selector) group has >= 3 observations");
  return model;
}

namespace {

double require_phase(const PredictModel& model, const std::string& phase,
                     const std::string& selector, const Point& point) {
  const PhasePredictor* predictor = model.find(phase, selector);
  if (!predictor)
    throw std::invalid_argument("model has no predictor for phase '" + phase +
                                "' selector '" + selector + "'");
  // Predictions are times: clamp the intercept-dominated corner at zero.
  return std::max(predictor->evaluate_at(point), 0.0);
}

}  // namespace

Prediction predict(const PredictModel& model, const Point& point,
                   bool filter_enabled, bool physics_enabled) {
  Prediction out;
  out.fd = require_phase(model, "fd", "", point);
  out.halo =
      point.ranks() > 1 ? require_phase(model, "halo", "", point) : 0.0;
  if (filter_enabled)
    out.filter = require_phase(model, "filter", point.filter_backend, point);
  if (physics_enabled) {
    out.physics_compute = require_phase(model, "physics_compute",
                                        lb_selector(point.lb_enabled), point);
    if (point.lb_enabled && point.ranks() > 1)
      out.physics_balance =
          require_phase(model, "physics_balance", "lb-on", point);
  }
  return out;
}

trace::JsonValue model_to_json(const PredictModel& model) {
  trace::JsonValue doc = trace::JsonValue::object();
  doc.set("schema", kPredictSchema);

  trace::JsonValue phases = trace::JsonValue::array();
  for (const PhasePredictor& p : model.phases) {
    trace::JsonValue entry = trace::JsonValue::object();
    entry.set("phase", p.phase);
    entry.set("selector", p.selector);
    entry.set("c0", p.c0);
    entry.set("r2", p.r2);
    entry.set("rmse", p.rmse);
    entry.set("n_train", p.n_train);
    entry.set("terms_used", p.terms_used);
    entry.set("tree", node_json(p.tree));
    phases.push_back(entry);
  }
  doc.set("phases", phases);
  return doc;
}

PredictModel model_from_json(const trace::JsonValue& doc) {
  const trace::JsonValue* schema = doc.find("schema");
  if (!schema || !schema->is_string() ||
      schema->as_string() != kPredictSchema)
    throw std::invalid_argument("predict model JSON: schema is not '" +
                                std::string(kPredictSchema) + "'");

  PredictModel model;
  const trace::JsonValue* phases = doc.find("phases");
  if (!phases || !phases->is_array())
    throw std::invalid_argument("predict model JSON: missing phases array");
  for (const trace::JsonValue& entry : phases->items()) {
    PhasePredictor p;
    const auto str = [&](const char* key) {
      const trace::JsonValue* v = entry.find(key);
      if (!v || !v->is_string())
        throw std::invalid_argument(
            std::string("predict model JSON: phase entry missing '") + key +
            "'");
      return v->as_string();
    };
    const auto num = [&](const char* key) {
      const trace::JsonValue* v = entry.find(key);
      if (!v || !v->is_number())
        throw std::invalid_argument(
            std::string("predict model JSON: phase entry missing '") + key +
            "'");
      return v->as_number();
    };
    p.phase = str("phase");
    p.selector = str("selector");
    p.c0 = num("c0");
    p.r2 = num("r2");
    p.rmse = num("rmse");
    p.n_train = static_cast<int>(num("n_train"));
    p.terms_used = static_cast<int>(num("terms_used"));
    const trace::JsonValue* tree = entry.find("tree");
    if (!tree)
      throw std::invalid_argument(
          "predict model JSON: phase entry missing 'tree'");
    p.tree = node_from_json(*tree);
    model.phases.push_back(std::move(p));
  }
  return model;
}

PredictModel load_model(const std::string& path) {
  std::string error;
  const std::optional<trace::JsonValue> doc =
      trace::JsonValue::parse(trace::read_text_file(path), &error);
  if (!doc)
    throw DataError("cannot parse predict model '" + path + "': " + error);
  try {
    return model_from_json(*doc);
  } catch (const std::invalid_argument& e) {
    throw DataError("cannot load predict model '" + path + "': " + e.what());
  }
}

trace::JsonValue prediction_json(const Prediction& p) {
  trace::JsonValue v = trace::JsonValue::object();
  v.set("filter_per_step_sec", p.filter);
  v.set("halo_per_step_sec", p.halo);
  v.set("fd_per_step_sec", p.fd);
  v.set("physics_compute_per_step_sec", p.physics_compute);
  v.set("physics_balance_per_step_sec", p.physics_balance);
  v.set("total_per_step_sec", p.total());
  return v;
}

}  // namespace agcm::perfmodel
