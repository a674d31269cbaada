#include "place/engine.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace choreo::place {

PlacementEngine::PlacementEngine(ClusterView view)
    : PlacementEngine(std::make_shared<const Static>(std::move(view))) {}

PlacementEngine::PlacementEngine(std::shared_ptr<const Static> statics)
    : static_(std::move(statics)),
      used_cores_(machine_count(), 0.0),
      on_path_(machine_count() * machine_count(), 0),
      out_of_(machine_count(), 0) {}

PlacementEngine::Static::Static(ClusterView v) : view(std::move(v)) {
  view.validate_shape();  // before anything is sized from it
  const std::size_t M = view.machine_count();
  hose.resize(M);
  cross_out.resize(M);
  ub.resize(M * M);
  peer_max.resize(M);
  // Every index repeats the arithmetic and comparison order of its uncached
  // counterpart (ClusterView::hose_bps, hose_cross_out, the bound formula),
  // so the cached doubles are theirs. Counts only divide a rate down, so a
  // model's zero-load rate bounds it: R for vswitch and hose, and for pipe
  // the literal R*(c+1)/(c+1), whose roundings can exceed R by an ulp.
  bool rates_positive = true;
  for (std::size_t m = 0; m < M; ++m) {
    const double* rate = view.rate_bps.data().data() + m * M;
    const double* cross =
        view.cross_traffic.empty() ? nullptr : view.cross_traffic.data().data() + m * M;
    double* ub_row = ub.data() + m * M;
    const int group = view.colocation_group[m];
    double far = 0.0, any = 0.0;  // best rate to a non-colocated peer, to any peer
    double c_out = 0.0, row_max = -std::numeric_limits<double>::infinity();
    for (std::size_t n = 0; n < M; ++n) {
      if (n == m) continue;
      const double r = rate[n];
      rates_positive = rates_positive && r > 0.0;
      any = std::max(any, r);
      double bound = r;
      if (view.colocation_group[n] != group) {
        const double c = cross ? cross[n] : 0.0;
        far = std::max(far, r);
        c_out = std::max(c_out, c);
        bound = std::max(r, residual::pipe_rate_bps(r * (c + 1.0), c, 0.0));
      }
      ub_row[n] = bound;
      row_max = std::max(row_max, bound);
    }
    ub_row[m] = kIntraMachineRate;
    hose[m] = far == 0.0 ? any : far;
    cross_out[m] = c_out;
    peer_max[m] = row_max;
  }
  CHOREO_REQUIRE_MSG(rates_positive, "every off-diagonal rate must be positive");
}

double PlacementEngine::rate_bps(std::size_t m, std::size_t n, RateModel model) const {
  CHOREO_REQUIRE(m < machine_count() && n < machine_count());
  if (m == n) return kIntraMachineRate;
  const ClusterView& v = view();
  if (v.colocated(m, n)) {
    return residual::vswitch_rate_bps(v.rate_bps(m, n),
                                      on_path_[m * machine_count() + n]);
  }
  switch (model) {
    case RateModel::Pipe: {
      // One cross-traffic fetch feeds both the capacity R*(c+1) and the
      // share term — the same literal arithmetic path_capacity_bps runs, so
      // the result is bit-identical to the uncached transfer_rate_bps.
      const double c = v.cross_traffic.empty() ? 0.0 : v.cross_traffic(m, n);
      return residual::pipe_rate_bps(v.rate_bps(m, n) * (c + 1.0), c,
                                     on_path_[m * machine_count() + n]);
    }
    case RateModel::Hose:
      return residual::hose_rate_bps(v.rate_bps(m, n), hose_bps(m), hose_cross_out_of(m),
                                     out_of_[m]);
  }
  CHOREO_ASSERT(false);
  return 0.0;
}

void PlacementEngine::commit(const Application& app, const Placement& placement) {
  apply(app, placement, +1);
}

void PlacementEngine::release(const Application& app, const Placement& placement) {
  apply(app, placement, -1);
}

void PlacementEngine::apply(const Application& app, const Placement& placement, int sign) {
  CHOREO_ASSERT_MSG(txn_log_.empty(), "commit/release inside an open Txn");
  app.validate();
  CHOREO_REQUIRE(placement.machine_of_task.size() == app.task_count());
  CHOREO_REQUIRE(placement.complete());
  for (std::size_t t = 0; t < app.task_count(); ++t) {
    const std::size_t m = placement.machine_of_task[t];
    CHOREO_REQUIRE(m < machine_count());
    used_cores_[m] += sign * app.cpu_demand[t];
    CHOREO_ASSERT(used_cores_[m] >= -1e-9);
    CHOREO_ASSERT(used_cores_[m] <= view().cores[m] + 1e-9);
  }
  for_each_placed_transfer(app, placement, [&](std::size_t m, std::size_t n, double) {
    register_transfer(m, n, sign);
    CHOREO_ASSERT(on_path_[m * machine_count() + n] >= 0);
  });
}

void PlacementEngine::update_view(ClusterView view) {
  CHOREO_REQUIRE_MSG(view.machine_count() == machine_count(),
                     "update_view needs the same fleet; rebuild the state otherwise");
  const bool regrouped = view.colocation_group != this->view().colocation_group;
  static_ = std::make_shared<const Static>(std::move(view));
  if (!regrouped) return;
  // Out-of-hose counts depend on the groups alone. Re-derived from the
  // integer per-path counts, they equal a replay of every running app.
  const std::size_t M = machine_count();
  for (std::size_t m = 0; m < M; ++m) {
    out_of_[m] = 0;
    for (std::size_t n = 0; n < M; ++n) {
      if (!this->view().colocated(m, n)) out_of_[m] += on_path_[m * M + n];
    }
  }
}

PlacementEngine PlacementEngine::clone_unoccupied() const {
  CHOREO_ASSERT_MSG(txn_log_.empty(), "clone_unoccupied inside an open Txn");
  PlacementEngine clone(static_);
  clone.counters_ = counters_;
  return clone;
}

PlacementEngine PlacementEngine::clone() const {
  CHOREO_ASSERT_MSG(txn_log_.empty(), "clone inside an open Txn");
  return PlacementEngine(*this);
}

}  // namespace choreo::place
