#include "place/engine.h"

#include <algorithm>
#include <limits>

namespace choreo::place {

namespace {

ClusterView validated(ClusterView view) {
  view.validate();
  return view;
}

}  // namespace

PlacementEngine::PlacementEngine(ClusterView view)
    : PlacementEngine(std::make_shared<const Static>(validated(std::move(view)))) {}

PlacementEngine::PlacementEngine(std::shared_ptr<const Static> statics)
    : static_(std::move(statics)),
      used_cores_(machine_count(), 0.0),
      on_path_(machine_count() * machine_count(), 0.0),
      out_of_(machine_count(), 0.0) {}

PlacementEngine::Static::Static(ClusterView v) : view(std::move(v)) {
  const std::size_t M = view.machine_count();
  hose.resize(M);
  cross_out.resize(M);
  for (std::size_t m = 0; m < M; ++m) {
    // Same code paths the uncached transfer_rate_bps runs — cached values
    // are bit-identical by construction.
    hose[m] = view.hose_bps(m);
    cross_out[m] = hose_cross_out(view, m);
  }

  // Static rate ceilings. Placed-transfer counts are >= 0 and only divide a
  // rate down, so every model is bounded by its zero-load value: R for the
  // vswitch and hose branches (the min caps the hose at R), and the
  // literally computed R*(c+1)/(c+1) for the pipe branch, whose roundings
  // can exceed R by an ulp — take the max so the bound is exact, not
  // merely mathematical.
  ub = DoubleMatrix(M, M, 0.0);
  peer_max.assign(M, -std::numeric_limits<double>::infinity());
  for (std::size_t m = 0; m < M; ++m) {
    for (std::size_t n = 0; n < M; ++n) {
      if (m == n) {
        ub(m, n) = kIntraMachineRate;
        continue;
      }
      double bound;
      if (view.colocated(m, n)) {
        bound = view.rate_bps(m, n);
      } else {
        // The cross-traffic share is fetched once and the path capacity
        // expanded inline as R*(c+1) — the literal expression
        // ClusterView::path_capacity_bps computes from the same c, so the
        // bound is the bit-identical double with one matrix read instead of
        // two.
        const double c = view.cross_traffic.empty() ? 0.0 : view.cross_traffic(m, n);
        const double r = view.rate_bps(m, n);
        bound = std::max(r, residual::pipe_rate_bps(r * (c + 1.0), c, 0.0));
      }
      ub(m, n) = bound;
      peer_max[m] = std::max(peer_max[m], bound);
    }
  }
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
  apply(app, placement, +1.0);
}

void PlacementEngine::release(const Application& app, const Placement& placement) {
  apply(app, placement, -1.0);
}

void PlacementEngine::apply(const Application& app, const Placement& placement,
                            double sign) {
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
  });
}

void PlacementEngine::update_view(ClusterView view) {
  CHOREO_REQUIRE_MSG(view.machine_count() == machine_count(),
                     "update_view needs the same fleet; rebuild the state otherwise");
  view.validate();
  static_ = std::make_shared<const Static>(std::move(view));
  // Out-of-hose counts depend on the (possibly re-clustered) colocation
  // groups; re-derive them from the per-path counts. Counts are sums of
  // +/-1.0, i.e. exactly-represented integers, so this equals what a full
  // replay of every running application would produce.
  const ClusterView& v = this->view();
  const std::size_t M = machine_count();
  for (std::size_t m = 0; m < M; ++m) {
    double out = 0.0;
    for (std::size_t n = 0; n < M; ++n) {
      if (n != m && !v.colocated(m, n)) out += on_path_[m * M + n];
    }
    out_of_[m] = out;
  }
}

void PlacementEngine::apply_rate_discount(const DoubleMatrix& factor) {
  CHOREO_ASSERT_MSG(txn_log_.empty(), "apply_rate_discount inside an open Txn");
  // The discount lands on a copy, so a rejected factor leaves the engine as
  // it was. Colocation, cores, and residual occupancy are untouched; only
  // the rate-derived static indexes change.
  ClusterView discounted = view();
  place::apply_rate_discount(discounted, factor);
  static_ = std::make_shared<const Static>(std::move(discounted));
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
