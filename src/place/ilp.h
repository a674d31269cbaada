#pragma once

#include "lp/simplex.h"
#include "place/placer.h"
#include "place/rate_model.h"

namespace choreo::place {

/// The Appendix formulation: minimize the application completion time as a
/// 0/1 ILP.
///
/// Variables:
///   * X_im in {0,1} — task i runs on machine m;
///   * z_imjn in {0,1} for task pairs i<j with traffic — i on m AND j on n;
///   * z >= 0 — the makespan (longest bottleneck drain time, seconds).
/// Constraints: each task on exactly one machine; CPU capacities; z_imjn
/// linked to X (z <= X_im, z <= X_jn, sum over (m,n) of z_imjn = 1); and one
/// drain-time row per bottleneck (per path for the pipe model, per source
/// hose for the hose model — the S matrix of the Appendix).
///
/// The greedy placement warm-starts branch-and-bound, mirroring how the
/// paper uses the ILP as the (slow) gold standard the greedy is judged
/// against (§5: "median completion time with the greedy algorithm was only
/// 13% more than ... the optimal algorithm").
class IlpPlacer : public Placer {
 public:
  explicit IlpPlacer(RateModel model = RateModel::Hose, lp::IlpOptions options = {})
      : model_(model), options_(options) {}

  std::string name() const override { return std::string("ilp-") + to_string(model_); }

  Placement place(const Application& app, const ClusterState& state) override;

 private:
  RateModel model_;
  lp::IlpOptions options_;
};

/// Exhaustive optimal placement by enumeration — exact for the small
/// instances of the Fig 9 greedy-vs-optimal comparison. Throws
/// PreconditionError when machines^tasks exceeds `max_assignments`.
class BruteForcePlacer : public Placer {
 public:
  explicit BruteForcePlacer(RateModel model = RateModel::Hose,
                            std::uint64_t max_assignments = 50'000'000)
      : model_(model), max_assignments_(max_assignments) {}

  std::string name() const override { return std::string("optimal-") + to_string(model_); }

  Placement place(const Application& app, const ClusterState& state) override;

  /// Completion-time estimate of the optimum found by the last place() call.
  double last_objective_s() const { return last_objective_; }

 private:
  RateModel model_;
  std::uint64_t max_assignments_;
  double last_objective_ = 0.0;
};

}  // namespace choreo::place
