// Compositional performance models: structure operators over per-phase
// cost terms.
//
// PR 5's PMNF fits (model.hpp) answer "how does ONE phase scale along ONE
// parameter axis?". The paper's actual deliverable is bigger: a model of
// the whole code, assembled from per-phase formulas along the program's
// parallel skeleton, that predicts total step time at configurations never
// run (Tables 1-11 are exactly such compositions). This header provides
// the algebra for that assembly:
//
//   * A `Point` — the full prediction coordinate: mesh shape, resolution,
//     machine scalars, filter backend, load-balance setting. Machine
//     dependence lives INSIDE the cost drivers (each driver is a
//     seconds-scale closed form over the point's machine scalars), so one
//     fitted model predicts across machines.
//   * Named `drivers` — closed-form per-phase cost shapes (compute terms
//     with the profile's loop-startup model, per-message overheads,
//     per-byte wire terms, exact filtered-line counts mirroring
//     filter/response.cpp). A fit only chooses their weights.
//   * A `Node` tree of structure operators mirroring the skeleton:
//       sequence   — phases separated by barriers add;
//       concurrent — co-scheduled branches cost their max;
//       ring       — (e-1) neighbour hops (convolution-ring filter);
//       tree       — ceil(log2 e) hops (binomial broadcast/reduce);
//       transpose  — (e-1) messages + (e-1)/e of the volume per rank
//                    (the distributed-FFT line transpose, Section 3.2);
//       pairwise   — e exchange rounds (LB Scheme 3).
//     Leaves carry a driver, an optional PMNF hypothesis transform
//     phi(x) = x^a log2(x)^b (model.hpp), and a fitted weight.
//   * A joint non-negative least-squares fit: a tree without `concurrent`
//     is linear in its leaf weights, so one solve fits all leaves of a
//     phase simultaneously against training observations (drop-and-refit
//     keeps every weight >= 0, same admissibility rule as model.cpp).
//
// Everything is pure arithmetic over the inputs: deterministic, no global
// state, no host timing. JSON round-trips through trace::JsonValue so a
// fitted tree is a portable artefact (PREDICT_MODEL.json, schema
// agcm-predict-v1) that predict.hpp's load_model reads back.
#pragma once

#include <string>
#include <vector>

#include "perfmodel/model.hpp"
#include "trace/json.hpp"

namespace agcm::perfmodel {

/// One prediction coordinate: everything a driver may consult. The machine
/// scalars duplicate simnet::MachineProfile's message/compute parameters on
/// purpose — perfmodel sits below simnet in the layering, so a Point
/// carries the scalars itself (core::point_from copies them from the
/// config's profile).
struct Point {
  int nlon = 144;
  int nlat = 90;
  int nlev = 9;
  int mesh_rows = 1;
  int mesh_cols = 1;

  /// Pairwise-exchange rounds charged by the `pairwise` operator (the LB
  /// scheme's max_iterations; 0 when balancing is off).
  int lb_rounds = 0;
  bool lb_enabled = false;

  std::string machine;         ///< profile name (a label only)
  std::string filter_backend;  ///< filter::algorithm_name token

  // Machine scalars (simnet::MachineProfile subset the drivers use).
  double flops_per_sec = 1.0e9;
  double mem_bytes_per_sec = 1.0e9;
  double msg_latency_sec = 0.0;
  double link_bytes_per_sec = 1.0e9;
  double send_overhead_sec = 0.0;
  double recv_overhead_sec = 0.0;
  double loop_startup_elems = 0.0;

  int ranks() const { return mesh_rows * mesh_cols; }
};

/// Serialises / parses a Point (flat object, insertion-ordered keys).
trace::JsonValue point_json(const Point& point);
Point point_from_json(const trace::JsonValue& value);

/// Evaluates the named closed-form cost driver at `point`; throws
/// std::invalid_argument for an unknown name. All drivers return
/// non-negative values; time-like drivers are in virtual seconds.
double driver_value(const std::string& name, const Point& point);

/// All driver names, in a fixed documentation order.
std::vector<std::string> driver_names();

/// Evaluates a named extent (the e in the operator multiplicities):
/// "ranks", "mesh_rows", "mesh_cols", or "lb_rounds".
double extent_value(const std::string& name, const Point& point);

/// Hop-count closed forms the structured operators apply (exposed so tests
/// can pin them): ring = e-1, tree = ceil(log2 e) (0 for e <= 1),
/// pairwise = e (the extent is the round count).
double ring_hops(double extent);
double tree_hops(double extent);
double pairwise_rounds(double extent);

/// One node of a composition tree.
struct Node {
  enum class Op {
    kLeaf,
    kSequence,
    kConcurrent,
    kRing,
    kTree,
    kTranspose,
    kPairwise,
  };

  Op op = Op::kLeaf;

  // Leaf payload: weight * basis(hyp, driver(point)). The default
  // hypothesis (a=1, b=0) makes the leaf linear in its driver; other
  // hypotheses lift a PMNF-fitted single-parameter law into the tree.
  std::string driver;
  Hypothesis hyp{1.0, 0};
  double weight = 1.0;

  // Structured payload: extent name for ring/tree/transpose/pairwise.
  std::string extent;
  std::vector<Node> children;
};

/// Leaf and operator factories (values, so trees compose as expressions).
Node leaf(std::string driver, double weight = 1.0, Hypothesis hyp = {1.0, 0});
Node sequence(std::vector<Node> children);
Node concurrent(std::vector<Node> children);
Node ring(std::string extent, std::vector<Node> children);
Node tree(std::string extent, std::vector<Node> children);
/// Transpose: children[0] is the per-partner message cost, multiplied by
/// (e-1); children[1..] are per-rank volume costs, multiplied by (e-1)/e
/// (each of the e partners keeps 1/e of the data, the rest crosses the
/// wire — Section 3.2's transpose accounting).
Node transpose(std::string extent, std::vector<Node> children);
Node pairwise(std::string extent, std::vector<Node> children);

/// Evaluates the tree at `point` (virtual seconds).
double evaluate(const Node& node, const Point& point);

/// Serialises / parses a tree. Parsing throws std::invalid_argument on a
/// malformed document (unknown op, missing fields).
trace::JsonValue node_json(const Node& node);
Node node_from_json(const trace::JsonValue& value);

/// The leaves of `node` in depth-first order (the coefficient order used
/// by fit_composite).
std::vector<const Node*> collect_leaves(const Node& node);

/// Per-leaf linear weights at `point`: evaluate(node, point) equals
/// dot(terms, leaf_weights) when every leaf weight is 1. Throws
/// std::invalid_argument if the tree contains a `concurrent` node (max is
/// not linear in the leaf weights).
std::vector<double> linear_terms(const Node& node, const Point& point);

/// Joint non-negative least-squares over a tree's leaf weights.
struct CompositeFit {
  double c0 = 0.0;    ///< fitted intercept (>= 0; 0 when dropped)
  double r2 = 0.0;    ///< in-sample coefficient of determination
  double rmse = 0.0;  ///< in-sample root-mean-square residual
  int terms_used = 0; ///< leaves with non-zero fitted weight
};

/// Fits y ~ c0 + sum_j w_j * term_j(point) with w_j >= 0, c0 >= 0 (terms
/// from linear_terms), writing the fitted weights into the tree's leaves.
/// Dropped regressors (negative in the unconstrained solve, or collinear)
/// refit with weight 0. Requires points.size() == y.size() >= 2; throws
/// std::invalid_argument otherwise.
CompositeFit fit_composite(Node& node, const std::vector<Point>& points,
                           const std::vector<double>& y);

}  // namespace agcm::perfmodel
