#pragma once

#include <algorithm>

#include "place/cluster.h"

namespace choreo::place {

/// Rate treated as "essentially infinite" for intra-machine transfers (§5).
inline constexpr double kIntraMachineRate = 1e15;

/// The one residual-rate code path (Algorithm 1 line 13). Every consumer —
/// the uncached `transfer_rate_bps` the exhaustive oracle runs on, the
/// PlacementEngine's O(1) cached `rate_bps` the greedy search runs on, and
/// the completion-time objective — goes through
/// these three primitives, so the search and the objective cannot drift
/// apart silently. Keep the arithmetic expression of each primitive exactly
/// as written: placements are pinned bit-for-bit against an exhaustive-scan
/// oracle (test_engine_differential), and any reassociation would break
/// that.
namespace residual {

/// Colocated pair (same physical host): the transfer rides the virtual
/// switch, shared with the transfers already on that path.
inline double vswitch_rate_bps(double rate_bps, double placed_on_path) {
  return rate_bps / (placed_on_path + 1.0);
}

/// Pipe model: the path's capacity R*(c+1), shared with the measured cross
/// traffic and all transfers placed on the path.
inline double pipe_rate_bps(double path_capacity_bps, double cross_traffic,
                            double placed_on_path) {
  return path_capacity_bps / (cross_traffic + placed_on_path + 1.0);
}

/// Hose model: machine m's egress cap shared with the cross traffic out of m
/// and all transfers placed out of m — but never faster than the measured
/// single-connection rate of this particular path (the fabric or the
/// destination may be slower than the source hose).
inline double hose_rate_bps(double rate_bps, double hose_bps, double cross_out,
                            double placed_out_of_src) {
  return std::min(rate_bps, hose_bps / (cross_out + placed_out_of_src + 1.0));
}

}  // namespace residual

/// Equivalent background connections the hose of machine m is shared with:
/// the busiest measured cross traffic on any non-colocated path out of m
/// (0 when the view carries no cross-traffic estimates). O(n); the
/// PlacementEngine caches it per machine.
double hose_cross_out(const ClusterView& view, std::size_t m);

/// Rate a *new* transfer from machine m to machine n would see, given
/// `placed_on_path` transfers already on m->n and `placed_out_of_src`
/// already leaving m for non-colocated machines (Algorithm 1, line 13). The
/// uncached form of PlacementEngine::rate_bps, which the exhaustive oracle
/// runs on:
///
///   * m == n: intra-machine, effectively infinite;
///   * colocated pair: the vswitch path, shared with transfers on it;
///   * Pipe model: the path's capacity R*(c+1), shared with the measured
///     cross traffic c and all transfers placed on m->n;
///   * Hose model: machine m's hose, shared with the cross traffic out of m
///     and all transfers placed out of m.
double transfer_rate_bps(const ClusterView& view, std::size_t m, std::size_t n,
                         RateModel model, double placed_on_path, double placed_out_of_src);

/// Analytic completion time (seconds) of `app` under `placement` — the
/// objective the Appendix formulates: the longest drain time over all
/// bottlenecks, assuming no unknown cross traffic. Pipe model: bottlenecks
/// are paths; hose model: bottlenecks are per-source hoses (plus vswitch
/// paths between colocated machines). Shares the inter-machine transfer
/// enumeration (`for_each_placed_transfer`) with the residual bookkeeping
/// the greedy search maintains.
double estimate_completion_s(const Application& app, const Placement& placement,
                             const ClusterView& view, RateModel model);

}  // namespace choreo::place
