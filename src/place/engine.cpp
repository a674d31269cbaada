#include "place/engine.h"

#include <emmintrin.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

namespace choreo::place {

PlacementEngine::PlacementEngine(ClusterView view)
    : PlacementEngine(std::make_shared<const Static>(std::move(view), nullptr)) {}

PlacementEngine::PlacementEngine(std::shared_ptr<const Static> statics)
    : static_(std::move(statics)),
      used_cores_(machine_count(), 0.0),
      on_path_(machine_count(), CowArray<std::int32_t>(machine_count(), 0)),
      out_of_(machine_count(), 0) {}

namespace {

/// Joins peers [begin, end) of row m: returns their largest rate, and joins
/// into `far` the largest rate to peers off host `group`, into `c_out` (with
/// kCross; without, `cross` is not read and `c_out` is left as it is) their
/// largest cross traffic, and into `positive` whether every rate is
/// positive (a NaN is not). The body takes eight peers a step in SSE2
/// (baseline x86-64): one 4-wide compare of the groups, widened to 64-bit
/// lanes, masks on-host peers to +0, and each maximum keeps four independent
/// 2-lane accumulators, so the scan does not wait on each max's latency.
/// `_mm_max_pd(r, acc)` is `std::max(acc, r)` bit for bit, NaN and signed
/// zeros included; no accumulator ever holds a NaN or -0, so the order of
/// the final joins changes no result, and the scalar tail finishes from the
/// joined values. A peer on the host joins +0, which leaves `far` and
/// `c_out`, both at least +0, as they were.
template <bool kCross>
double join_peers(const double* rate, const double* cross, const int* groups, int group,
                  std::size_t begin, std::size_t end, double& far, double& c_out,
                  bool& positive) {
  const __m128d zero = _mm_setzero_pd();
  const __m128i host = _mm_set1_epi32(group);
  __m128d a[4], f[4], c[4];
  for (int k = 0; k < 4; ++k) {
    a[k] = zero;
    f[k] = _mm_set1_pd(far);
    c[k] = _mm_set1_pd(c_out);
  }
  __m128d ok = _mm_castsi128_pd(_mm_set1_epi32(-1));
  std::size_t n = begin;
  for (; n + 8 <= end; n += 8) {
    const auto load_groups = [&](std::size_t at) {
      return _mm_cmpeq_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(groups + at)),
                             host);
    };
    const __m128i lo = load_groups(n), hi = load_groups(n + 4);
    const __m128d on_host[4] = {
        _mm_castsi128_pd(_mm_unpacklo_epi32(lo, lo)), _mm_castsi128_pd(_mm_unpackhi_epi32(lo, lo)),
        _mm_castsi128_pd(_mm_unpacklo_epi32(hi, hi)), _mm_castsi128_pd(_mm_unpackhi_epi32(hi, hi))};
    for (int k = 0; k < 4; ++k) {
      const __m128d r = _mm_loadu_pd(rate + n + 2 * k);
      a[k] = _mm_max_pd(r, a[k]);
      f[k] = _mm_max_pd(_mm_andnot_pd(on_host[k], r), f[k]);
      if constexpr (kCross) {
        c[k] = _mm_max_pd(_mm_andnot_pd(on_host[k], _mm_loadu_pd(cross + n + 2 * k)), c[k]);
      }
      ok = _mm_and_pd(ok, _mm_cmpgt_pd(r, zero));
    }
  }
  const auto join = [](const __m128d* v) {
    const __m128d m = _mm_max_pd(_mm_max_pd(v[0], v[1]), _mm_max_pd(v[2], v[3]));
    return _mm_cvtsd_f64(_mm_max_pd(m, _mm_unpackhi_pd(m, m)));
  };
  double any = join(a);
  far = join(f);
  if constexpr (kCross) c_out = join(c);
  bool all_positive = positive && _mm_movemask_pd(ok) == 3;
  for (; n < end; ++n) {
    const double r = rate[n];
    const bool off_host = groups[n] != group;
    any = std::max(any, r);
    far = std::max(far, off_host ? r : 0.0);
    if constexpr (kCross) c_out = std::max(c_out, off_host ? cross[n] : 0.0);
    all_positive = all_positive & (r > 0.0);
  }
  positive = all_positive;
  return any;
}

/// The double two steps below x toward 0 (0 for 0), for x >= 0: adjacent
/// non-negative doubles have adjacent bit patterns.
double two_ulps_below(double x) {
  const auto bits = std::bit_cast<std::uint64_t>(x);
  return std::bit_cast<double>(bits - std::min<std::uint64_t>(bits, 2));
}

const double* cross_row(const ClusterView& view, std::size_t m) {
  return view.cross_traffic.empty() ? nullptr : view.cross_traffic.row(m);
}

}  // namespace

PlacementEngine::Static::Static(ClusterView v, const Static* previous) : view(std::move(v)) {
  view.validate_shape();  // before anything is sized from it
  const std::size_t M = view.machine_count();
  rate_rows.resize(M);
  rows.resize(M);
  // Every index repeats the arithmetic and comparison order of its uncached
  // counterpart (ClusterView::hose_bps, hose_cross_out, the bound formula),
  // so the cached doubles are theirs. Counts only divide a rate down, so a
  // model's zero-load rate bounds it: R for vswitch and hose, and for pipe
  // the literal R*(c+1)/(c+1). Its two roundings are each within half an
  // ulp, so it exceeds R by at most two ulps (for finite R*(c+1)): only a
  // peer whose rate is within two ulps of the row's largest rate can raise
  // the row's largest bound. A row of at most one block of peers takes every
  // bound in its one fused pass. A longer row joins its rates block by block
  // (join_peers, vectorised), keeping each block's largest rate, and the
  // bound pass visits only the blocks that reach within two ulps of the
  // row's largest. A row keeps the old block's indexes when both its rate
  // and cross-traffic chunks are the ones the old block read; a longer row
  // whose cross-traffic chunk alone is the old one keeps its cross-traffic
  // share and joins only its rates.
  struct PeerBlock {
    std::size_t begin, end;
    double max;
  };
  constexpr std::size_t kBlock = 64;
  std::vector<PeerBlock> blocks;
  const int* groups = view.colocation_group.data();
  bool rates_positive = true;
  for (std::size_t m = 0; m < M; ++m) {
    const double* rate = rate_rows[m] = view.rate_bps.row(m);
    const double* cross = cross_row(view, m);
    const bool same_cross = previous && cross_row(previous->view, m) == cross;
    if (same_cross && previous->rate_rows[m] == rate) {
      rows[m] = previous->rows[m];
      continue;
    }
    const int group = groups[m];
    double far = 0.0, any = 0.0;  // best rate to a non-colocated peer, to any peer
    double c_out = 0.0;
    double pipe_max = -std::numeric_limits<double>::infinity();
    if (M - 1 <= kBlock) {
      for (std::size_t n = 0; n < M; ++n) {
        if (n == m) continue;
        const double r = rate[n];
        rates_positive = rates_positive & (r > 0.0);
        any = std::max(any, r);
        if (groups[n] == group) continue;
        const double c = cross ? cross[n] : 0.0;
        far = std::max(far, r);
        c_out = std::max(c_out, c);
        pipe_max = std::max(pipe_max, std::max(r, residual::pipe_rate_bps(r * (c + 1.0), c, 0.0)));
      }
    } else {
      // A row whose cross-traffic chunk the old block read keeps its share
      // and joins rates alone.
      const double* join_cross = same_cross ? nullptr : cross;
      blocks.clear();
      for (const auto& [begin, end] : {std::pair{std::size_t{0}, m}, std::pair{m + 1, M}}) {
        for (std::size_t b = begin; b < end; b += kBlock) {
          const std::size_t e = std::min(end, b + kBlock);
          const double max =
              join_cross
                  ? join_peers<true>(rate, join_cross, groups, group, b, e, far, c_out,
                                     rates_positive)
                  : join_peers<false>(rate, nullptr, groups, group, b, e, far, c_out,
                                      rates_positive);
          blocks.push_back({b, e, max});
          any = std::max(any, max);
        }
      }
      if (same_cross) c_out = previous->rows[m].cross_out;
      const double near = two_ulps_below(any);
      for (const PeerBlock& block : blocks) {
        if (block.max < near) continue;
        for (std::size_t n = block.begin; n < block.end; ++n) {
          const double r = rate[n];
          if (r < near || groups[n] == group) continue;
          const double c = cross ? cross[n] : 0.0;
          pipe_max =
              std::max(pipe_max, std::max(r, residual::pipe_rate_bps(r * (c + 1.0), c, 0.0)));
        }
      }
    }
    rows[m] = {far == 0.0 ? any : far, c_out, M > 1 ? std::max(any, pipe_max) : pipe_max};
  }
  CHOREO_REQUIRE_MSG(rates_positive, "every off-diagonal rate must be positive");
}

double PlacementEngine::rate_bps(std::size_t m, std::size_t n, RateModel model) const {
  CHOREO_REQUIRE(m < machine_count() && n < machine_count());
  if (m == n) return kIntraMachineRate;
  const ClusterView& v = view();
  const double r = static_->rate_rows[m][n];
  if (v.colocated(m, n)) return residual::vswitch_rate_bps(r, on_path_[m].data()[n]);
  switch (model) {
    case RateModel::Pipe: {
      // One cross-traffic fetch feeds both the capacity R*(c+1) and the
      // share term — the same literal arithmetic path_capacity_bps runs, so
      // the result is bit-identical to the uncached transfer_rate_bps.
      const double c = v.cross_traffic.empty() ? 0.0 : v.cross_traffic(m, n);
      return residual::pipe_rate_bps(r * (c + 1.0), c, on_path_[m].data()[n]);
    }
    case RateModel::Hose:
      return residual::hose_rate_bps(r, hose_bps(m), hose_cross_out_of(m), out_of_[m]);
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
    CHOREO_ASSERT(on_path_[m].data()[n] >= 0);
  });
}

void PlacementEngine::update_view(ClusterView view) {
  CHOREO_REQUIRE_MSG(view.machine_count() == machine_count() &&
                         view.colocation_group == this->view().colocation_group,
                     "update_view needs the same fleet on the same hosts; rebuild the "
                     "state otherwise");
  // The old block stays alive until the new one is built, so its chunks'
  // addresses cannot be reused by the new view while rows are compared.
  static_ = std::make_shared<const Static>(std::move(view), static_.get());
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
