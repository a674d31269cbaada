#include "lp/model.h"

#include <cmath>
#include <utility>

namespace choreo::lp {

const char* to_string(SolveStatus s) {
  switch (s) {
    case SolveStatus::Optimal: return "optimal";
    case SolveStatus::Infeasible: return "infeasible";
    case SolveStatus::Unbounded: return "unbounded";
    case SolveStatus::IterationLimit: return "iteration-limit";
    case SolveStatus::NodeLimit: return "node-limit";
  }
  return "?";
}

std::size_t Model::add_variable(double obj, double lower, double upper, bool integer) {
  CHOREO_REQUIRE(lower <= upper);
  CHOREO_REQUIRE(lower >= 0.0);  // the solver assumes non-negative variables
  obj_.push_back(obj);
  lower_.push_back(lower);
  upper_.push_back(upper);
  integer_.push_back(integer);
  return obj_.size() - 1;
}

void Model::add_constraint(std::vector<Term> terms, Sense sense, double rhs,
                           std::string name) {
  for (const Term& t : terms) CHOREO_REQUIRE(t.var < obj_.size());
  constraints_.push_back(Constraint{std::move(terms), sense, rhs, std::move(name)});
}

double Model::objective_value(const std::vector<double>& x) const {
  CHOREO_REQUIRE(x.size() == obj_.size());
  double v = 0.0;
  for (std::size_t i = 0; i < obj_.size(); ++i) v += obj_[i] * x[i];
  return v;
}

bool Model::feasible(const std::vector<double>& x, double tol) const {
  if (x.size() != obj_.size()) return false;
  for (std::size_t i = 0; i < obj_.size(); ++i) {
    if (x[i] < lower_[i] - tol || x[i] > upper_[i] + tol) return false;
    if (integer_[i] && std::abs(x[i] - std::round(x[i])) > tol) return false;
  }
  for (const Constraint& c : constraints_) {
    double lhs = 0.0;
    for (const Term& t : c.terms) lhs += t.coeff * x[t.var];
    switch (c.sense) {
      case Sense::LessEq:
        if (lhs > c.rhs + tol) return false;
        break;
      case Sense::GreaterEq:
        if (lhs < c.rhs - tol) return false;
        break;
      case Sense::Equal:
        if (std::abs(lhs - c.rhs) > tol) return false;
        break;
    }
  }
  return true;
}

}  // namespace choreo::lp
