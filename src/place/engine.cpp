#include "place/engine.h"

#include <algorithm>
#include <limits>

namespace choreo::place {

namespace {

using RankEntry = PlacementEngine::RankEntry;

// The ranked-list order: bound desc, ties toward the lower index (the
// exhaustive scan's tie-break direction). Peers are distinct, so this is a
// strict total order and any list has exactly one sorted arrangement —
// which is what makes a merge of kept and re-sorted entries equal to a
// full sort.
bool ranks_before(const RankEntry& a, const RankEntry& b) {
  return a.bound != b.bound ? a.bound > b.bound : a.peer < b.peer;
}

// Working buffers of a static build, kept per thread so a steady-state view
// update allocates nothing beyond the new block itself.
struct RankScratch {
  // 1 where a bound changed, machine_count^2 each: row-major by source, and
  // the same flags row-major by destination so a source list reads its
  // flags from one row too.
  std::vector<std::uint8_t> moved;
  std::vector<std::uint8_t> moved_to;
  std::vector<RankEntry> fresh;
};
thread_local RankScratch rank_scratch;

// Writes one ranked list of M entries to `out`: the entries of the previous
// list `old` whose bound did not move (already in order), merged with the
// moved peers (`moved[p]` set) sorted under their new bounds `bound(p)`.
// Without an old list every peer has moved and this is a full sort.
template <typename Bound>
void rank_list(RankEntry* out, const RankEntry* old, const std::uint8_t* moved,
               std::size_t M, Bound bound) {
  if (old != nullptr && std::find(moved, moved + M, 1) == moved + M) {
    // Nothing moved: the merge below would reproduce the old list.
    std::copy(old, old + M, out);
    return;
  }
  std::vector<RankEntry>& fresh = rank_scratch.fresh;
  fresh.clear();
  for (std::size_t p = 0; p < M; ++p) {
    if (moved[p] != 0) fresh.push_back(RankEntry{bound(p), static_cast<std::uint32_t>(p)});
  }
  std::sort(fresh.begin(), fresh.end(), ranks_before);
  // std::merge of the kept entries with `fresh`, the kept ones filtered out
  // of `old` on the fly.
  const RankEntry* f = fresh.data();
  const RankEntry* const f_end = f + fresh.size();
  for (std::size_t k = 0; old != nullptr && k < M; ++k) {
    const RankEntry& kept = old[k];
    if (moved[kept.peer] != 0) continue;
    while (f != f_end && ranks_before(*f, kept)) *out++ = *f++;
    *out++ = kept;
  }
  std::copy(f, f_end, out);
}

ClusterView validated(ClusterView view) {
  view.validate();
  return view;
}

}  // namespace

PlacementEngine::PlacementEngine(ClusterView view)
    : PlacementEngine(std::make_shared<const Static>(validated(std::move(view)), nullptr)) {}

PlacementEngine::PlacementEngine(std::shared_ptr<const Static> statics)
    : static_(std::move(statics)),
      used_cores_(machine_count(), 0.0),
      on_path_(machine_count() * machine_count(), 0.0),
      out_of_(machine_count(), 0.0) {}

PlacementEngine::Static::Static(ClusterView v, const Static* prev) : view(std::move(v)) {
  const std::size_t M = view.machine_count();
  CHOREO_ASSERT(prev == nullptr || prev->view.machine_count() == M);
  CHOREO_ASSERT(M <= std::numeric_limits<std::uint32_t>::max());
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
  // merely mathematical. Each bound is diffed against the previous block's
  // as it is computed; that diff is the whole change detection, so it is
  // exact for any caller (new measurements, rate discounts, regrouped
  // colocation).
  RankScratch& scratch = rank_scratch;
  scratch.moved.assign(M * M, prev == nullptr ? 1 : 0);
  scratch.moved_to.assign(M * M, prev == nullptr ? 1 : 0);
  ub = DoubleMatrix(M, M, 0.0);
  for (std::size_t m = 0; m < M; ++m) {
    for (std::size_t n = 0; n < M; ++n) {
      double bound;
      if (m == n) {
        bound = kIntraMachineRate;
      } else if (view.colocated(m, n)) {
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
      if (prev != nullptr && bound != prev->ub(m, n)) {
        scratch.moved[m * M + n] = 1;
        scratch.moved_to[n * M + m] = 1;
      }
    }
  }

  // Ranked candidate lists: for each machine, peers ordered by ranks_before
  // on their static bound. Peer and bound live side by side (SoA rows of
  // RankEntry) so the best-first walks stream one contiguous array.
  dest_rank.resize(M * M);
  src_rank.resize(M * M);
  for (std::size_t m = 0; m < M; ++m) {
    const std::size_t row = m * M;
    rank_list(dest_rank.data() + row, prev != nullptr ? prev->dest_rank.data() + row : nullptr,
              scratch.moved.data() + row, M,
              [&](std::size_t p) { return ub(m, p); });
    rank_list(src_rank.data() + row, prev != nullptr ? prev->src_rank.data() + row : nullptr,
              scratch.moved_to.data() + row, M,
              [&](std::size_t p) { return ub(p, m); });
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
  static_ = std::make_shared<const Static>(std::move(view), static_.get());
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
  static_ = std::make_shared<const Static>(std::move(discounted), static_.get());
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
