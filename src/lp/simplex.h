#pragma once

#include "lp/model.h"

namespace choreo::lp {

struct SimplexOptions {
  /// Variable bound overrides used by branch-and-bound; empty means "use the
  /// model's own bounds". Sizes must equal the model's variable count.
  std::vector<double> lower_override;
  std::vector<double> upper_override;
};

/// Solves the LP relaxation of `model` (integrality flags ignored) with a
/// dense two-phase primal simplex using Bland's anti-cycling rule. The
/// iteration budget and pivot tolerance are fixed in simplex.cpp.
///
/// The method is textbook rather than industrial: the placement ILPs the
/// paper formulates (Appendix) are small enough that a dense tableau is
/// simpler and entirely adequate — and "solving ILPs can be slow in
/// practice" is itself one of the paper's observations that motivates the
/// greedy algorithm (§2.3, §5).
Solution solve_lp(const Model& model, const SimplexOptions& options = {});

struct IlpOptions {
  std::size_t max_nodes = 200000;
  /// Objective value of a known feasible solution (e.g., from the greedy
  /// placement); lets branch-and-bound prune aggressively. NaN disables.
  double warm_start_objective = std::numeric_limits<double>::quiet_NaN();
};

/// Branch-and-bound over the model's integer variables; depth-first with
/// most-fractional branching. Returns NodeLimit with the best incumbent
/// found when the node budget is exhausted.
Solution solve_ilp(const Model& model, const IlpOptions& options = {});

}  // namespace choreo::lp
