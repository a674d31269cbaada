#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "place/app.h"
#include "util/matrix.h"

namespace choreo::place {

class PlacementEngine;

/// Sentinel for "task not placed yet".
inline constexpr std::size_t kUnplaced = std::numeric_limits<std::size_t>::max();

/// A placement: machine index per task.
struct Placement {
  std::vector<std::size_t> machine_of_task;

  bool complete() const {
    for (std::size_t m : machine_of_task) {
      if (m == kUnplaced) return false;
    }
    return !machine_of_task.empty();
  }

  bool operator==(const Placement&) const = default;
};

/// How rates are estimated when several transfers share the network (§5,
/// Algorithm 1 line 13).
enum class RateModel {
  /// Each path m->n is an independent pipe; transfers on the same path share
  /// its measured rate.
  Pipe,
  /// All transfers leaving machine m share m's hose (what §4.3 finds on EC2
  /// and Rackspace).
  Hose,
};

const char* to_string(RateModel m);

/// The tenant's knowledge of its rented cluster: what Choreo's measurement
/// phase produces (or, in tests, ground truth).
struct ClusterView {
  /// R: single-connection TCP throughput of each VM pair (bits/s). The
  /// diagonal is ignored (intra-machine transfers are free).
  DoubleMatrix rate_bps;
  /// Equivalent background connections per path (§3.2); zero when unknown.
  DoubleMatrix cross_traffic;
  /// Physical co-location groups from traceroute (§3.3): machines with the
  /// same group share a host (their paths bypass the hose). Distinct values
  /// mean distinct hosts.
  std::vector<int> colocation_group;
  /// Traceroute hop counts between machines (1 = same host, 2 = same rack,
  /// ...). Optional — required only by latency constraints; empty otherwise.
  DoubleMatrix hops;
  /// CPU capacity per machine, in cores.
  std::vector<double> cores;
  /// Freshness provenance: the measurement epoch each rate_bps(m, n) was
  /// last refreshed at (measure::ViewCache stamps). Optional — empty means
  /// the whole view is one uniform snapshot (ground truth, synthetic views);
  /// otherwise n x n, diagonal unused.
  Matrix<std::uint64_t> pair_epoch;
  /// Epoch of the measurement cycle that produced this view; pairs whose
  /// pair_epoch is older were carried over from the cache, not re-probed.
  std::uint64_t view_epoch = 0;

  std::size_t machine_count() const { return cores.size(); }

  /// Epoch stamp of one pair estimate; view_epoch when no per-pair
  /// provenance was recorded.
  std::uint64_t freshness(std::size_t m, std::size_t n) const {
    return pair_epoch.empty() ? view_epoch : pair_epoch(m, n);
  }

  bool colocated(std::size_t m, std::size_t n) const {
    return colocation_group[m] == colocation_group[n];
  }

  /// Estimated hose (egress cap) of machine m: the best single-connection
  /// rate out of m to a non-colocated machine. (A single bulk connection
  /// fills the hose when the fabric is unconstrained, which §4 verifies.)
  /// O(n) — placement inner loops should read the PlacementEngine's cached
  /// copy instead.
  double hose_bps(std::size_t m) const;

  /// Effective capacity of path m->n: the measured single-connection rate
  /// un-shared from the measured cross traffic, R * (c + 1).
  double path_capacity_bps(std::size_t m, std::size_t n) const;

  void validate() const;
};

/// Scales `view.rate_bps` entry-wise by `factor` (machine_count x
/// machine_count; diagonal ignored) — the forecast plane's uncertainty-aware
/// placement hook. forecast::PredictivePolicy derives the factors from a
/// quantile of each pair's recent prediction error, so placers plan against
/// pessimistic rates on pairs the forecast keeps getting wrong instead of
/// trusting point estimates. Applying the discount to the view (rather than
/// inside one placer) keeps every rate consumer — engine lookups, the
/// exhaustive oracle, estimate_completion_s — consistent.
void apply_rate_discount(ClusterView& view, const DoubleMatrix& factor);

/// Invokes fn(src_machine, dst_machine, bytes) for every traffic-matrix
/// entry of `app` that actually crosses machines under `placement` — the one
/// definition of "a placed transfer" shared by the residual bookkeeping
/// (PlacementEngine), the completion-time objective (estimate_completion_s),
/// and anything else that aggregates placed traffic. Intra-machine entries
/// are free and skipped; zero entries produce no transfer.
template <typename Fn>
void for_each_placed_transfer(const Application& app, const Placement& placement,
                              Fn&& fn) {
  for (std::size_t i = 0; i < app.task_count(); ++i) {
    for (std::size_t j = 0; j < app.task_count(); ++j) {
      const double b = app.traffic_bytes(i, j);
      if (b <= 0.0) continue;
      const std::size_t m = placement.machine_of_task[i];
      const std::size_t n = placement.machine_of_task[j];
      if (m == n) continue;  // intra-machine is free
      fn(m, n, b);
    }
  }
}

/// Mutable occupancy of a cluster as applications are placed one after
/// another: free CPU plus the transfer counts the rate models need.
///
/// Since the incremental-placement refactor this is a thin facade over a
/// PlacementEngine, which owns the view, the residual indexes (CPU slack,
/// per-path placed-transfer counts, per-source hose residuals), and the
/// O(1) tentative apply/undo machinery placement algorithms run on — see
/// place/engine.h for the index and transaction protocol.
class ClusterState {
 public:
  explicit ClusterState(ClusterView view);
  ~ClusterState();
  ClusterState(ClusterState&&) noexcept;
  ClusterState& operator=(ClusterState&&) noexcept;

  const ClusterView& view() const;
  std::size_t machine_count() const;

  double free_cores(std::size_t m) const;
  /// Transfers currently placed on path m->n (inter-machine only).
  double transfers_on_path(std::size_t m, std::size_t n) const;
  /// Transfers currently leaving machine m for non-colocated machines.
  double transfers_out_of(std::size_t m) const;

  /// Records an application's placement: consumes CPU and registers its
  /// transfers so later placements see the contention.
  void commit(const Application& app, const Placement& placement);

  /// Removes a previously committed application (for §2.4 re-evaluation /
  /// migration). The caller must pass the same placement it committed.
  void release(const Application& app, const Placement& placement);

  /// Swaps in a freshly measured view of the SAME fleet while keeping the
  /// residual occupancy (committed CPU and transfer counts) — what makes a
  /// §2.4 measurement refresh an O(n^2) rebuild of the static bounds instead
  /// of a full replay of every running application.
  void update_view(ClusterView view);

  /// Discounts the current view's pair rates in place (see the free
  /// function above); residual occupancy is kept, rate indexes rebuilt.
  void apply_rate_discount(const DoubleMatrix& factor);

  /// A state sharing the view and cached indexes but with zero occupancy —
  /// cheap scratch for hypothetical re-placement (§2.4).
  ClusterState clone_unoccupied() const;

  /// A copy with the same view, cached indexes, AND residual occupancy.
  /// What the serving plane refreshes its per-worker scratch arenas from
  /// when a new snapshot epoch is published. The view and cached indexes
  /// are immutable and shared with the original; only the residual
  /// occupancy is copied.
  ClusterState clone() const;

  /// The engine this state is backed by. Returned non-const from a const
  /// state on purpose: placement algorithms run *tentative* apply/undo
  /// transactions (PlacementEngine::Txn) that are always rolled back before
  /// place() returns, so the observable state is unchanged — logical
  /// constness. The placement plane is single-threaded; do not share one
  /// ClusterState across threads.
  PlacementEngine& engine() const { return *engine_; }

 private:
  explicit ClusterState(std::unique_ptr<PlacementEngine> engine);

  std::unique_ptr<PlacementEngine> engine_;
};

}  // namespace choreo::place
