#include "lp/simplex.h"

#include <algorithm>
#include <cmath>

#include "util/require.h"

namespace choreo::lp {
namespace {

/// Pivots per simplex phase before solve_lp gives up with IterationLimit.
constexpr std::size_t kMaxIterations = 200000;
/// Reduced-cost and ratio-test tolerance of the pivot rules.
constexpr double kTolerance = 1e-9;
/// Distance from the nearest integer below which branch-and-bound treats an
/// integer variable's relaxed value as integral.
constexpr double kIntegralityTol = 1e-6;

/// Dense simplex tableau: `a` holds B^{-1}A with the rhs in the last column;
/// `basis[i]` is the column basic in row i.
struct Tableau {
  std::vector<std::vector<double>> a;
  std::vector<std::size_t> basis;
  std::size_t cols = 0;  // structural + slack + artificial (rhs excluded)

  void pivot(std::size_t prow, std::size_t pcol) {
    std::vector<double>& pr = a[prow];
    const double pv = pr[pcol];
    CHOREO_ASSERT(std::abs(pv) > 1e-12);
    for (double& v : pr) v /= pv;
    for (std::size_t r = 0; r < a.size(); ++r) {
      if (r == prow) continue;
      const double factor = a[r][pcol];
      if (factor == 0.0) continue;
      std::vector<double>& row = a[r];
      for (std::size_t c = 0; c <= cols; ++c) row[c] -= factor * pr[c];
    }
    basis[prow] = pcol;
  }
};

struct PhaseResult {
  bool optimal = false;
  bool unbounded = false;
  bool iteration_limit = false;
  std::size_t iterations = 0;
};

/// Runs primal simplex minimizing `cost` (a value per column). Columns with
/// `blocked[j]` true may not enter the basis (used to freeze artificials in
/// phase 2). Bland's rule throughout for anti-cycling.
PhaseResult run_simplex(Tableau& t, const std::vector<double>& cost,
                        const std::vector<bool>& blocked) {
  PhaseResult res;
  const std::size_t m = t.a.size();
  for (std::size_t iter = 0; iter < kMaxIterations; ++iter) {
    // Reduced costs: r_j = c_j - sum_i c_basis(i) * a[i][j].
    std::size_t entering = t.cols;
    for (std::size_t j = 0; j < t.cols; ++j) {
      if (blocked[j]) continue;
      double r = cost[j];
      for (std::size_t i = 0; i < m; ++i) {
        const double cb = cost[t.basis[i]];
        if (cb != 0.0) r -= cb * t.a[i][j];
      }
      if (r < -kTolerance) {
        entering = j;  // Bland: smallest index with negative reduced cost
        break;
      }
    }
    if (entering == t.cols) {
      res.optimal = true;
      res.iterations = iter;
      return res;
    }
    // Ratio test (Bland tie-break: smallest basis column index).
    std::size_t leaving = m;
    double best_ratio = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      const double aij = t.a[i][entering];
      if (aij > kTolerance) {
        const double ratio = t.a[i][t.cols] / aij;
        if (leaving == m || ratio < best_ratio - kTolerance ||
            (std::abs(ratio - best_ratio) <= kTolerance && t.basis[i] < t.basis[leaving])) {
          leaving = i;
          best_ratio = ratio;
        }
      }
    }
    if (leaving == m) {
      res.unbounded = true;
      res.iterations = iter;
      return res;
    }
    t.pivot(leaving, entering);
  }
  res.iteration_limit = true;
  res.iterations = kMaxIterations;
  return res;
}

}  // namespace

Solution solve_lp(const Model& model, const SimplexOptions& options) {
  const std::size_t n = model.variable_count();
  CHOREO_REQUIRE(n > 0);

  std::vector<double> lower(n), upper(n);
  for (std::size_t j = 0; j < n; ++j) {
    lower[j] = options.lower_override.empty() ? model.lower(j) : options.lower_override[j];
    upper[j] = options.upper_override.empty() ? model.upper(j) : options.upper_override[j];
    CHOREO_REQUIRE(lower[j] >= 0.0);
    if (lower[j] > upper[j]) {
      return Solution{SolveStatus::Infeasible, 0.0, {}, 0};
    }
  }

  // Shift variables: y_j = x_j - lower_j >= 0.
  // Gather rows: model constraints plus finite upper bounds as y_j <= u-l.
  struct Row {
    std::vector<double> coeffs;  // dense over structural variables
    Sense sense;
    double rhs;
  };
  std::vector<Row> rows;
  for (const Constraint& c : model.constraints()) {
    Row row{std::vector<double>(n, 0.0), c.sense, c.rhs};
    for (const Term& t : c.terms) row.coeffs[t.var] += t.coeff;
    for (std::size_t j = 0; j < n; ++j) row.rhs -= row.coeffs[j] * lower[j];
    rows.push_back(std::move(row));
  }
  for (std::size_t j = 0; j < n; ++j) {
    if (std::isfinite(upper[j])) {
      Row row{std::vector<double>(n, 0.0), Sense::LessEq, upper[j] - lower[j]};
      row.coeffs[j] = 1.0;
      rows.push_back(std::move(row));
    }
  }

  // Normalize: rhs >= 0.
  for (Row& r : rows) {
    if (r.rhs < 0.0) {
      for (double& v : r.coeffs) v = -v;
      r.rhs = -r.rhs;
      if (r.sense == Sense::LessEq) {
        r.sense = Sense::GreaterEq;
      } else if (r.sense == Sense::GreaterEq) {
        r.sense = Sense::LessEq;
      }
    }
  }

  const std::size_t m = rows.size();
  std::size_t n_slack = 0, n_art = 0;
  for (const Row& r : rows) {
    if (r.sense != Sense::Equal) ++n_slack;
    if (r.sense != Sense::LessEq) ++n_art;
  }
  const std::size_t cols = n + n_slack + n_art;

  Tableau t;
  t.cols = cols;
  t.a.assign(m, std::vector<double>(cols + 1, 0.0));
  t.basis.assign(m, 0);

  std::size_t slack_at = n;
  std::size_t art_at = n + n_slack;
  std::vector<bool> is_artificial(cols, false);
  for (std::size_t i = 0; i < m; ++i) {
    const Row& r = rows[i];
    for (std::size_t j = 0; j < n; ++j) t.a[i][j] = r.coeffs[j];
    t.a[i][cols] = r.rhs;
    switch (r.sense) {
      case Sense::LessEq:
        t.a[i][slack_at] = 1.0;
        t.basis[i] = slack_at++;
        break;
      case Sense::GreaterEq:
        t.a[i][slack_at] = -1.0;
        ++slack_at;
        t.a[i][art_at] = 1.0;
        is_artificial[art_at] = true;
        t.basis[i] = art_at++;
        break;
      case Sense::Equal:
        t.a[i][art_at] = 1.0;
        is_artificial[art_at] = true;
        t.basis[i] = art_at++;
        break;
    }
  }

  Solution sol;
  const std::vector<bool> none_blocked(cols, false);

  // Phase 1: minimize the sum of artificials.
  std::size_t total_iters = 0;
  if (n_art > 0) {
    std::vector<double> cost1(cols, 0.0);
    for (std::size_t j = 0; j < cols; ++j) {
      if (is_artificial[j]) cost1[j] = 1.0;
    }
    const PhaseResult p1 = run_simplex(t, cost1, none_blocked);
    total_iters += p1.iterations;
    if (p1.iteration_limit) {
      sol.status = SolveStatus::IterationLimit;
      sol.iterations = total_iters;
      return sol;
    }
    double art_sum = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      if (is_artificial[t.basis[i]]) art_sum += t.a[i][cols];
    }
    if (art_sum > 1e-6) {
      sol.status = SolveStatus::Infeasible;
      sol.iterations = total_iters;
      return sol;
    }
    // Drive degenerate artificials (basic at level zero) out of the basis:
    // if one stayed basic into phase 2, later pivots could push it positive
    // again and the "optimal" solution would violate the original rows.
    for (std::size_t i = 0; i < m; ++i) {
      if (!is_artificial[t.basis[i]]) continue;
      for (std::size_t j = 0; j < cols; ++j) {
        if (is_artificial[j]) continue;
        if (std::abs(t.a[i][j]) > 1e-9) {
          t.pivot(i, j);  // rhs is zero, so feasibility is unaffected
          break;
        }
      }
      // No eligible column: the row is vacuous over the real variables and
      // can never change the artificial's (zero) value — safe to leave.
    }
  }

  // Phase 2: minimize the real objective with artificials blocked.
  std::vector<double> cost2(cols, 0.0);
  const double sign = model.maximize() ? -1.0 : 1.0;
  for (std::size_t j = 0; j < n; ++j) cost2[j] = sign * model.objective_coeff(j);
  const PhaseResult p2 = run_simplex(t, cost2, is_artificial);
  total_iters += p2.iterations;
  sol.iterations = total_iters;
  if (p2.iteration_limit) {
    sol.status = SolveStatus::IterationLimit;
    return sol;
  }
  if (p2.unbounded) {
    sol.status = SolveStatus::Unbounded;
    return sol;
  }

  sol.status = SolveStatus::Optimal;
  sol.values.assign(n, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    if (t.basis[i] < n) sol.values[t.basis[i]] = t.a[i][cols];
  }
  for (std::size_t j = 0; j < n; ++j) {
    sol.values[j] = std::max(0.0, sol.values[j]) + lower[j];
  }
  sol.objective = model.objective_value(sol.values);
  return sol;
}

Solution solve_ilp(const Model& model, const IlpOptions& options) {
  const std::size_t n = model.variable_count();
  CHOREO_REQUIRE(n > 0);

  struct Node {
    std::vector<double> lower;
    std::vector<double> upper;
  };

  std::vector<double> lower0(n), upper0(n);
  for (std::size_t j = 0; j < n; ++j) {
    lower0[j] = model.lower(j);
    upper0[j] = model.upper(j);
  }

  const double sign = model.maximize() ? -1.0 : 1.0;
  Solution best;
  best.status = SolveStatus::Infeasible;
  double incumbent = std::isnan(options.warm_start_objective)
                         ? std::numeric_limits<double>::infinity()
                         : sign * options.warm_start_objective;

  std::vector<Node> stack;
  stack.push_back(Node{lower0, upper0});
  std::size_t nodes = 0;
  bool exhausted_budget = false;

  while (!stack.empty()) {
    if (nodes >= options.max_nodes) {
      exhausted_budget = true;
      break;
    }
    ++nodes;
    Node node = std::move(stack.back());
    stack.pop_back();

    SimplexOptions so;
    so.lower_override = node.lower;
    so.upper_override = node.upper;
    const Solution relax = solve_lp(model, so);
    if (relax.status != SolveStatus::Optimal) continue;
    const double bound = sign * relax.objective;
    if (bound >= incumbent - 1e-9) continue;  // cannot beat the incumbent

    // Find the most fractional integer variable.
    std::size_t frac_var = n;
    double frac_dist = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (!model.is_integer(j)) continue;
      const double v = relax.values[j];
      const double d = std::abs(v - std::round(v));
      if (d > kIntegralityTol && d > frac_dist) {
        frac_dist = d;
        frac_var = j;
      }
    }

    if (frac_var == n) {
      // Integral: new incumbent.
      incumbent = bound;
      best.status = SolveStatus::Optimal;
      best.values = relax.values;
      for (std::size_t j = 0; j < n; ++j) {
        if (model.is_integer(j)) best.values[j] = std::round(best.values[j]);
      }
      best.objective = model.objective_value(best.values);
      continue;
    }

    const double v = relax.values[frac_var];
    // Branch down then up; push "down" last so it is explored first
    // (depth-first toward zero tends to find placements quickly).
    Node up = node;
    up.lower[frac_var] = std::ceil(v);
    Node down = std::move(node);
    down.upper[frac_var] = std::floor(v);
    if (up.lower[frac_var] <= up.upper[frac_var]) stack.push_back(std::move(up));
    if (down.lower[frac_var] <= down.upper[frac_var]) stack.push_back(std::move(down));
  }

  best.iterations = nodes;
  if (exhausted_budget && best.status != SolveStatus::Optimal) {
    best.status = SolveStatus::NodeLimit;
  } else if (exhausted_budget) {
    best.status = SolveStatus::NodeLimit;  // incumbent exists but not proven
  }
  return best;
}

}  // namespace choreo::lp
