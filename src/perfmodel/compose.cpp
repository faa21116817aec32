#include "perfmodel/compose.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace agcm::perfmodel {

namespace {

// The polar-filter structure constants the line-count drivers mirror
// (filter/response.cpp cutoffs; dynamics::Dynamics::filtered_variables
// filters u, v, h strongly and theta, q weakly). They are fixed properties
// of the modelled code, restated here because perfmodel sits below the
// filter layer.
constexpr double kStrongCutoffDeg = 45.0;
constexpr double kWeakCutoffDeg = 60.0;
constexpr int kStrongVars = 3;
constexpr int kWeakVars = 2;

int ceil_div(int a, int b) { return (a + b - 1) / b; }

/// Partition1D's block rule: the first n % p blocks get one extra point.
int block_start(int n, int p, int b) {
  const int base = n / p, rem = n % p;
  return b * base + std::min(b, rem);
}
int block_size(int n, int p, int b) {
  const int base = n / p, rem = n % p;
  return base + (b < rem ? 1 : 0);
}

/// grid::LatLonGrid::lat_center(j) in degrees, same operation order so the
/// poleward test below agrees bit-for-bit with grid/latlon.cpp.
double lat_center_deg(int j, int nlat) {
  const double dlat = std::numbers::pi / nlat;
  const double lat = -0.5 * std::numbers::pi + (j + 0.5) * dlat;
  return lat * 180.0 / std::numbers::pi;
}

bool poleward(int j, int nlat, double cutoff_deg) {
  return std::abs(lat_center_deg(j, nlat)) >= cutoff_deg;
}

/// Filtered latitude rows with centre poleward of `cutoff` inside global
/// row range [j0, j0+nj).
int filtered_rows_in(int j0, int nj, int nlat, double cutoff_deg) {
  int rows = 0;
  for (int j = j0; j < j0 + nj; ++j)
    if (poleward(j, nlat, cutoff_deg)) ++rows;
  return rows;
}

/// Filtered (variable, latitude, level) lines whose row lives in
/// [j0, j0+nj): strong variables above 45 deg, weak above 60 deg.
double filtered_lines_in(int j0, int nj, const Point& p) {
  return static_cast<double>(p.nlev) *
         (kStrongVars * filtered_rows_in(j0, nj, p.nlat, kStrongCutoffDeg) +
          kWeakVars * filtered_rows_in(j0, nj, p.nlat, kWeakCutoffDeg));
}

/// Max over mesh-row latitude bands of the filtered line count — the
/// busiest processor row before any load balancing.
double filtered_lines_row_max(const Point& p) {
  double best = 0.0;
  for (int r = 0; r < p.mesh_rows; ++r) {
    best = std::max(best, filtered_lines_in(block_start(p.nlat, p.mesh_rows, r),
                                            block_size(p.nlat, p.mesh_rows, r),
                                            p));
  }
  return best;
}

double filtered_lines_total(const Point& p) {
  return filtered_lines_in(0, p.nlat, p);
}

/// Machine-wide balanced share of the filtered lines (the fft-load-balanced
/// backend's Figure-2 redistribution target).
double filtered_lines_balanced(const Point& p) {
  const double total = filtered_lines_total(p);
  return std::ceil(total / p.ranks());
}

double loop_efficiency(double n, double startup) {
  if (startup <= 0.0) return 1.0;
  return n / (n + startup);
}

}  // namespace

trace::JsonValue point_json(const Point& p) {
  trace::JsonValue v = trace::JsonValue::object();
  v.set("nlon", p.nlon);
  v.set("nlat", p.nlat);
  v.set("nlev", p.nlev);
  v.set("mesh_rows", p.mesh_rows);
  v.set("mesh_cols", p.mesh_cols);
  v.set("lb_rounds", p.lb_rounds);
  v.set("lb_enabled", p.lb_enabled);
  v.set("machine", p.machine);
  v.set("filter_backend", p.filter_backend);
  v.set("flops_per_sec", p.flops_per_sec);
  v.set("mem_bytes_per_sec", p.mem_bytes_per_sec);
  v.set("msg_latency_sec", p.msg_latency_sec);
  v.set("link_bytes_per_sec", p.link_bytes_per_sec);
  v.set("send_overhead_sec", p.send_overhead_sec);
  v.set("recv_overhead_sec", p.recv_overhead_sec);
  v.set("loop_startup_elems", p.loop_startup_elems);
  return v;
}

namespace {

double need_number(const trace::JsonValue& v, const char* key) {
  const trace::JsonValue* m = v.find(key);
  if (!m || !m->is_number())
    throw std::invalid_argument(std::string("point/node JSON: missing number '") +
                                key + "'");
  return m->as_number();
}

std::string need_string(const trace::JsonValue& v, const char* key) {
  const trace::JsonValue* m = v.find(key);
  if (!m || !m->is_string())
    throw std::invalid_argument(std::string("point/node JSON: missing string '") +
                                key + "'");
  return m->as_string();
}

}  // namespace

Point point_from_json(const trace::JsonValue& v) {
  Point p;
  p.nlon = static_cast<int>(need_number(v, "nlon"));
  p.nlat = static_cast<int>(need_number(v, "nlat"));
  p.nlev = static_cast<int>(need_number(v, "nlev"));
  p.mesh_rows = static_cast<int>(need_number(v, "mesh_rows"));
  p.mesh_cols = static_cast<int>(need_number(v, "mesh_cols"));
  p.lb_rounds = static_cast<int>(need_number(v, "lb_rounds"));
  const trace::JsonValue* lb = v.find("lb_enabled");
  p.lb_enabled = lb && lb->is_bool() && lb->as_bool();
  p.machine = need_string(v, "machine");
  p.filter_backend = need_string(v, "filter_backend");
  p.flops_per_sec = need_number(v, "flops_per_sec");
  p.mem_bytes_per_sec = need_number(v, "mem_bytes_per_sec");
  p.msg_latency_sec = need_number(v, "msg_latency_sec");
  p.link_bytes_per_sec = need_number(v, "link_bytes_per_sec");
  p.send_overhead_sec = need_number(v, "send_overhead_sec");
  p.recv_overhead_sec = need_number(v, "recv_overhead_sec");
  p.loop_startup_elems = need_number(v, "loop_startup_elems");
  return p;
}

double driver_value(const std::string& name, const Point& p) {
  // Max local block extents (Partition1D gives the first blocks the extra
  // point, so block 0 is always maximal).
  const double ni = ceil_div(p.nlon, p.mesh_cols);
  const double nj = ceil_div(p.nlat, p.mesh_rows);
  const double flops = p.flops_per_sec;
  const double bw = p.link_bytes_per_sec;
  const double msg_ovh =
      p.msg_latency_sec + p.send_overhead_sec + p.recv_overhead_sec;
  const bool split_rows = p.mesh_rows > 1;
  const bool split_cols = p.mesh_cols > 1;
  // Halo boundary points per level: north+south edges of ni points each
  // when latitude is split, east+west edges of nj when longitude is.
  const double boundary =
      (split_rows ? 2.0 * ni : 0.0) + (split_cols ? 2.0 * nj : 0.0);

  if (name == "unit") return 1.0;
  if (name == "msg_overhead_sec") return msg_ovh;
  if (name == "points_sec") return ni * nj * p.nlev / flops;
  if (name == "points_startup_sec")
    return ni * nj * p.nlev / (flops * loop_efficiency(ni, p.loop_startup_elems));
  if (name == "plane_sec") return ni * nj / flops;
  if (name == "mem_points_sec")
    return 8.0 * ni * nj * p.nlev / p.mem_bytes_per_sec;
  if (name == "physics_mean_sec")
    return static_cast<double>(p.nlon) * p.nlat * p.nlev / (p.ranks() * flops);
  if (name == "physics_sunlit_max_sec") {
    // Worst-case sunlit fraction of a rank's ni contiguous longitudes: the
    // day side spans nlon/2 columns, so a narrow rank can be fully sunlit
    // while the single-rank case always averages one half.
    const double sunlit = std::min(ni, p.nlon / 2.0) / ni;
    return ni * nj * p.nlev * sunlit / flops;
  }
  if (name == "halo_msgs_sec")
    return ((split_rows ? 2.0 : 0.0) + (split_cols ? 2.0 : 0.0)) * msg_ovh;
  if (name == "halo_bytes_sec") return 8.0 * p.nlev * boundary / bw;
  if (name == "halo_pack_sec") return p.nlev * boundary / flops;
  if (name == "fft_lines_row_sec")
    return filtered_lines_row_max(p) * p.nlon * std::log2(double(p.nlon)) /
           flops;
  if (name == "lin_lines_row_sec")
    return filtered_lines_row_max(p) * p.nlon / flops;
  if (name == "conv_row_sec")
    return filtered_lines_row_max(p) * p.nlon * p.nlon / flops;
  if (name == "conv_seg_row_sec")
    return filtered_lines_row_max(p) * ni * ni / flops;
  if (name == "seg_bytes_row_sec")
    return 8.0 * filtered_lines_row_max(p) * ni / bw;
  if (name == "fft_lines_bal_sec")
    return filtered_lines_balanced(p) * p.nlon * std::log2(double(p.nlon)) /
           flops;
  if (name == "lin_lines_bal_sec")
    return filtered_lines_balanced(p) * p.nlon / flops;
  if (name == "line_bytes_bal_sec")
    return 8.0 * filtered_lines_balanced(p) * p.nlon / bw;
  if (name == "pair_bytes_sec") return 8.0 * ni * nj * p.nlev / bw;
  throw std::invalid_argument("unknown perfmodel driver '" + name + "'");
}

std::vector<std::string> driver_names() {
  return {"unit",
          "msg_overhead_sec",
          "points_sec",
          "points_startup_sec",
          "plane_sec",
          "mem_points_sec",
          "physics_mean_sec",
          "physics_sunlit_max_sec",
          "halo_msgs_sec",
          "halo_bytes_sec",
          "halo_pack_sec",
          "fft_lines_row_sec",
          "lin_lines_row_sec",
          "conv_row_sec",
          "conv_seg_row_sec",
          "seg_bytes_row_sec",
          "fft_lines_bal_sec",
          "lin_lines_bal_sec",
          "line_bytes_bal_sec",
          "pair_bytes_sec"};
}

double extent_value(const std::string& name, const Point& p) {
  if (name == "ranks") return p.ranks();
  if (name == "mesh_rows") return p.mesh_rows;
  if (name == "mesh_cols") return p.mesh_cols;
  if (name == "lb_rounds") return p.lb_rounds;
  throw std::invalid_argument("unknown perfmodel extent '" + name + "'");
}

double ring_hops(double extent) { return std::max(extent - 1.0, 0.0); }

double tree_hops(double extent) {
  if (extent <= 1.0) return 0.0;
  return std::ceil(std::log2(extent));
}

double pairwise_rounds(double extent) { return std::max(extent, 0.0); }

Node leaf(std::string driver, double weight, Hypothesis hyp) {
  Node n;
  n.op = Node::Op::kLeaf;
  n.driver = std::move(driver);
  n.weight = weight;
  n.hyp = hyp;
  return n;
}

namespace {

Node structured(Node::Op op, std::string extent, std::vector<Node> children) {
  Node n;
  n.op = op;
  n.extent = std::move(extent);
  n.children = std::move(children);
  return n;
}

}  // namespace

Node sequence(std::vector<Node> children) {
  return structured(Node::Op::kSequence, "", std::move(children));
}
Node concurrent(std::vector<Node> children) {
  return structured(Node::Op::kConcurrent, "", std::move(children));
}
Node ring(std::string extent, std::vector<Node> children) {
  return structured(Node::Op::kRing, std::move(extent), std::move(children));
}
Node tree(std::string extent, std::vector<Node> children) {
  return structured(Node::Op::kTree, std::move(extent), std::move(children));
}
Node transpose(std::string extent, std::vector<Node> children) {
  return structured(Node::Op::kTranspose, std::move(extent),
                    std::move(children));
}
Node pairwise(std::string extent, std::vector<Node> children) {
  return structured(Node::Op::kPairwise, std::move(extent),
                    std::move(children));
}

double evaluate(const Node& node, const Point& point) {
  switch (node.op) {
    case Node::Op::kLeaf:
      return node.weight * basis(node.hyp, driver_value(node.driver, point));
    case Node::Op::kSequence: {
      double sum = 0.0;
      for (const Node& child : node.children) sum += evaluate(child, point);
      return sum;
    }
    case Node::Op::kConcurrent: {
      double best = 0.0;
      for (const Node& child : node.children)
        best = std::max(best, evaluate(child, point));
      return best;
    }
    case Node::Op::kRing:
    case Node::Op::kTree:
    case Node::Op::kPairwise: {
      const double e = extent_value(node.extent, point);
      const double hops = node.op == Node::Op::kRing    ? ring_hops(e)
                          : node.op == Node::Op::kTree ? tree_hops(e)
                                                       : pairwise_rounds(e);
      double sum = 0.0;
      for (const Node& child : node.children) sum += evaluate(child, point);
      return hops * sum;
    }
    case Node::Op::kTranspose: {
      const double e = extent_value(node.extent, point);
      if (e <= 1.0) return 0.0;
      double total = 0.0;
      for (std::size_t i = 0; i < node.children.size(); ++i) {
        const double mult = i == 0 ? (e - 1.0) : (e - 1.0) / e;
        total += mult * evaluate(node.children[i], point);
      }
      return total;
    }
  }
  return 0.0;
}

namespace {

const char* op_name(Node::Op op) {
  switch (op) {
    case Node::Op::kLeaf: return "leaf";
    case Node::Op::kSequence: return "sequence";
    case Node::Op::kConcurrent: return "concurrent";
    case Node::Op::kRing: return "ring";
    case Node::Op::kTree: return "tree";
    case Node::Op::kTranspose: return "transpose";
    case Node::Op::kPairwise: return "pairwise";
  }
  return "leaf";
}

Node::Op op_from_name(const std::string& name) {
  if (name == "leaf") return Node::Op::kLeaf;
  if (name == "sequence") return Node::Op::kSequence;
  if (name == "concurrent") return Node::Op::kConcurrent;
  if (name == "ring") return Node::Op::kRing;
  if (name == "tree") return Node::Op::kTree;
  if (name == "transpose") return Node::Op::kTranspose;
  if (name == "pairwise") return Node::Op::kPairwise;
  throw std::invalid_argument("unknown composition op '" + name + "'");
}

bool has_extent(Node::Op op) {
  return op == Node::Op::kRing || op == Node::Op::kTree ||
         op == Node::Op::kTranspose || op == Node::Op::kPairwise;
}

}  // namespace

trace::JsonValue node_json(const Node& node) {
  trace::JsonValue v = trace::JsonValue::object();
  v.set("op", op_name(node.op));
  if (node.op == Node::Op::kLeaf) {
    v.set("driver", node.driver);
    v.set("exponent_a", node.hyp.a);
    v.set("log_power_b", node.hyp.b);
    v.set("weight", node.weight);
    return v;
  }
  if (has_extent(node.op)) v.set("extent", node.extent);
  trace::JsonValue children = trace::JsonValue::array();
  for (const Node& child : node.children) children.push_back(node_json(child));
  v.set("children", children);
  return v;
}

Node node_from_json(const trace::JsonValue& v) {
  Node node;
  node.op = op_from_name(need_string(v, "op"));
  if (node.op == Node::Op::kLeaf) {
    node.driver = need_string(v, "driver");
    node.hyp.a = need_number(v, "exponent_a");
    node.hyp.b = static_cast<int>(need_number(v, "log_power_b"));
    node.weight = need_number(v, "weight");
    return node;
  }
  if (has_extent(node.op)) node.extent = need_string(v, "extent");
  const trace::JsonValue* children = v.find("children");
  if (!children || !children->is_array())
    throw std::invalid_argument("composition node JSON: missing children");
  for (const trace::JsonValue& child : children->items())
    node.children.push_back(node_from_json(child));
  return node;
}

namespace {

void collect_leaves_impl(const Node& node, std::vector<const Node*>& out) {
  if (node.op == Node::Op::kLeaf) {
    out.push_back(&node);
    return;
  }
  for (const Node& child : node.children) collect_leaves_impl(child, out);
}

void collect_mutable_leaves(Node& node, std::vector<Node*>& out) {
  if (node.op == Node::Op::kLeaf) {
    out.push_back(&node);
    return;
  }
  for (Node& child : node.children) collect_mutable_leaves(child, out);
}

void linear_terms_impl(const Node& node, const Point& point, double mult,
                       std::vector<double>& out) {
  switch (node.op) {
    case Node::Op::kLeaf:
      out.push_back(mult * basis(node.hyp, driver_value(node.driver, point)));
      return;
    case Node::Op::kSequence:
      for (const Node& child : node.children)
        linear_terms_impl(child, point, mult, out);
      return;
    case Node::Op::kConcurrent:
      throw std::invalid_argument(
          "cannot fit through a concurrent (max) node: not linear in the "
          "leaf weights");
    case Node::Op::kRing:
    case Node::Op::kTree:
    case Node::Op::kPairwise: {
      const double e = extent_value(node.extent, point);
      const double hops = node.op == Node::Op::kRing    ? ring_hops(e)
                          : node.op == Node::Op::kTree ? tree_hops(e)
                                                       : pairwise_rounds(e);
      for (const Node& child : node.children)
        linear_terms_impl(child, point, mult * hops, out);
      return;
    }
    case Node::Op::kTranspose: {
      const double e = extent_value(node.extent, point);
      for (std::size_t i = 0; i < node.children.size(); ++i) {
        const double m =
            e <= 1.0 ? 0.0 : (i == 0 ? (e - 1.0) : (e - 1.0) / e);
        linear_terms_impl(node.children[i], point, mult * m, out);
      }
      return;
    }
  }
}

/// Solves the dense symmetric system A w = b by Gaussian elimination with
/// partial pivoting; returns false when singular (pivot below tol).
bool solve_dense(std::vector<std::vector<double>> a, std::vector<double> b,
                 std::vector<double>& w) {
  const std::size_t n = b.size();
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r)
      if (std::abs(a[r][col]) > std::abs(a[pivot][col])) pivot = r;
    if (std::abs(a[pivot][col]) < 1.0e-12) return false;
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double f = a[r][col] / a[col][col];
      for (std::size_t c = col; c < n; ++c) a[r][c] -= f * a[col][c];
      b[r] -= f * b[col];
    }
  }
  w.assign(n, 0.0);
  for (std::size_t col = n; col-- > 0;) {
    double sum = b[col];
    for (std::size_t c = col + 1; c < n; ++c) sum -= a[col][c] * w[c];
    w[col] = sum / a[col][col];
  }
  return true;
}

}  // namespace

std::vector<const Node*> collect_leaves(const Node& node) {
  std::vector<const Node*> out;
  collect_leaves_impl(node, out);
  return out;
}

std::vector<double> linear_terms(const Node& node, const Point& point) {
  std::vector<double> out;
  linear_terms_impl(node, point, 1.0, out);
  return out;
}

CompositeFit fit_composite(Node& node, const std::vector<Point>& points,
                           const std::vector<double>& y) {
  if (points.size() != y.size() || points.size() < 2)
    throw std::invalid_argument(
        "fit_composite needs >= 2 observations with matching x/y sizes");

  std::vector<Node*> leaves;
  collect_mutable_leaves(node, leaves);
  if (leaves.empty())
    throw std::invalid_argument("fit_composite: tree has no leaves");

  const std::size_t nobs = points.size();
  const std::size_t nterms = leaves.size() + 1;  // column 0 = intercept

  // Design matrix with per-column RMS normalisation: the raw terms span
  // many orders of magnitude (latency sums vs per-point compute), and the
  // normal equations square the condition number.
  std::vector<std::vector<double>> design(nobs,
                                          std::vector<double>(nterms, 0.0));
  for (std::size_t i = 0; i < nobs; ++i) {
    design[i][0] = 1.0;
    const std::vector<double> terms = linear_terms(node, points[i]);
    for (std::size_t j = 0; j < terms.size(); ++j) design[i][j + 1] = terms[j];
  }
  std::vector<double> scale(nterms, 1.0);
  std::vector<bool> active(nterms, true);
  for (std::size_t j = 0; j < nterms; ++j) {
    double ss = 0.0;
    for (std::size_t i = 0; i < nobs; ++i) ss += design[i][j] * design[i][j];
    scale[j] = std::sqrt(ss / nobs);
    if (scale[j] <= 0.0)
      active[j] = false;  // term identically zero over the sample
    else
      for (std::size_t i = 0; i < nobs; ++i) design[i][j] /= scale[j];
  }

  // Non-negative least squares by drop-and-refit (the admissibility rule
  // fit_hypothesis applies to c1, generalised): solve unconstrained on the
  // active set, drop the most negative weight (or a singular column), and
  // repeat. Terminates: each round removes one column.
  std::vector<double> weights(nterms, 0.0);
  for (;;) {
    std::vector<std::size_t> cols;
    for (std::size_t j = 0; j < nterms; ++j)
      if (active[j]) cols.push_back(j);
    if (cols.empty()) break;

    const std::size_t k = cols.size();
    std::vector<std::vector<double>> ata(k, std::vector<double>(k, 0.0));
    std::vector<double> aty(k, 0.0);
    for (std::size_t a = 0; a < k; ++a) {
      for (std::size_t b = a; b < k; ++b) {
        double sum = 0.0;
        for (std::size_t i = 0; i < nobs; ++i)
          sum += design[i][cols[a]] * design[i][cols[b]];
        ata[a][b] = ata[b][a] = sum;
      }
      for (std::size_t i = 0; i < nobs; ++i)
        aty[a] += design[i][cols[a]] * y[i];
    }

    std::vector<double> w;
    if (!solve_dense(ata, aty, w)) {
      // Singular: drop the trailing active column (deterministic choice)
      // and retry — collinear regressor sets always leave a solvable core.
      active[cols.back()] = false;
      continue;
    }
    std::size_t worst = k;
    double most_negative = -1.0e-12;
    for (std::size_t a = 0; a < k; ++a) {
      if (w[a] < most_negative) {
        most_negative = w[a];
        worst = a;
      }
    }
    if (worst != k) {
      active[cols[worst]] = false;
      continue;
    }
    std::fill(weights.begin(), weights.end(), 0.0);
    for (std::size_t a = 0; a < k; ++a) weights[cols[a]] = w[a];
    break;
  }

  // Undo the column scaling and write the fitted weights into the leaves.
  CompositeFit fit;
  fit.c0 = active[0] ? weights[0] / scale[0] : 0.0;
  for (std::size_t j = 0; j < leaves.size(); ++j) {
    const double w =
        active[j + 1] ? weights[j + 1] / scale[j + 1] : 0.0;
    leaves[j]->weight = w;
    if (w > 0.0) ++fit.terms_used;
  }

  double ss_res = 0.0, ss_tot = 0.0, mean = 0.0;
  for (const double v : y) mean += v;
  mean /= nobs;
  for (std::size_t i = 0; i < nobs; ++i) {
    const double predicted = fit.c0 + evaluate(node, points[i]);
    ss_res += (y[i] - predicted) * (y[i] - predicted);
    ss_tot += (y[i] - mean) * (y[i] - mean);
  }
  fit.rmse = std::sqrt(ss_res / nobs);
  fit.r2 = ss_tot > 0.0 ? 1.0 - ss_res / ss_tot : 1.0;
  return fit;
}

}  // namespace agcm::perfmodel
