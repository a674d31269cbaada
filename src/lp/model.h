#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "util/require.h"

namespace choreo::lp {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

enum class Sense { LessEq, GreaterEq, Equal };

/// A linear term: coefficient * variable.
struct Term {
  std::size_t var = 0;
  double coeff = 0.0;
};

struct Constraint {
  std::vector<Term> terms;
  Sense sense = Sense::LessEq;
  double rhs = 0.0;
  std::string name;
};

/// A linear (or 0/1 integer) optimization model.
///
/// Variables are non-negative by default; finite upper bounds and
/// integrality flags are per-variable. The Appendix of the paper builds its
/// task-placement ILP with exactly these ingredients: binary X (task on
/// machine) and z (pair co-assignment) variables, a continuous makespan
/// variable, and <=/== rows.
class Model {
 public:
  /// Adds a variable with objective coefficient `obj`; returns its index.
  std::size_t add_variable(double obj, double lower = 0.0, double upper = kInf,
                           bool integer = false);

  /// Convenience for 0/1 variables.
  std::size_t add_binary(double obj) { return add_variable(obj, 0.0, 1.0, true); }

  void add_constraint(std::vector<Term> terms, Sense sense, double rhs,
                      std::string name = {});

  /// Minimization is the default; call this to maximize instead.
  void set_maximize(bool maximize) { maximize_ = maximize; }
  bool maximize() const { return maximize_; }

  std::size_t variable_count() const { return obj_.size(); }

  double objective_coeff(std::size_t v) const { return obj_.at(v); }
  double lower(std::size_t v) const { return lower_.at(v); }
  double upper(std::size_t v) const { return upper_.at(v); }
  bool is_integer(std::size_t v) const { return integer_.at(v); }
  const std::vector<Constraint>& constraints() const { return constraints_; }

  /// Objective value of an assignment (no feasibility check).
  double objective_value(const std::vector<double>& x) const;

  /// True if `x` satisfies all constraints and bounds within `tol`.
  bool feasible(const std::vector<double>& x, double tol = 1e-6) const;

 private:
  std::vector<double> obj_;
  std::vector<double> lower_;
  std::vector<double> upper_;
  std::vector<bool> integer_;
  std::vector<Constraint> constraints_;
  bool maximize_ = false;
};

enum class SolveStatus { Optimal, Infeasible, Unbounded, IterationLimit, NodeLimit };

const char* to_string(SolveStatus s);

struct Solution {
  SolveStatus status = SolveStatus::Infeasible;
  double objective = 0.0;
  std::vector<double> values;
  std::size_t iterations = 0;  ///< simplex pivots (LP) or nodes explored (ILP)
};

}  // namespace choreo::lp
