#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/runtime.h"
#include "obs/observer.h"

namespace choreo::core {

/// Serializes the one piece of cross-tenant state a multi-tenant session
/// shares — the cloud's monotonic epoch counter — so that tenants running
/// on many threads draw exactly the epoch values the single-threaded
/// `MultiTenantSession` interleave would have handed them.
///
/// Background: in `MultiTenantSession::run` the only coupling between
/// tenants is `Cloud::next_epoch()` (measurement results are pure functions
/// of (seed, epoch, src, dst) — pinned by test_determinism). The oracle
/// advances the tenant with the earliest live event, ties to the lowest
/// tenant index, so its global draw sequence is the per-tenant draw
/// sequences merged by the lexicographic key (draw time, tenant index).
/// The arbiter reproduces that merge without a global clock: a tenant that
/// reaches a draw parks with its exact key, every tenant that is still
/// running advertises a conservative lower bound on its own next draw key,
/// and the pending draw with the smallest key is granted the next counter
/// value as soon as every other tenant provably cannot draw earlier. This
/// is conservative (lookahead-based) parallel discrete-event simulation:
/// thread timing can only delay a grant, never reorder one, so the epoch
/// sequence — and with it every downstream placement and log entry — is
/// bit-identical for any thread count.
///
/// The arbiter is also the one monitor that schedules tenants onto worker
/// threads: it keeps a FIFO of ready tenants and a count of checked-out ones
/// behind the same mutex and condition variable that guard the grants.
class EpochArbiter {
 public:
  /// `draw` produces the next shared counter value; it is only ever invoked
  /// under the arbiter's lock, in grant order.
  EpochArbiter(std::size_t tenants, std::function<std::uint64_t()> draw);

  /// A tenant checked out to one worker by acquire().
  struct Ticket {
    std::size_t tenant = 0;
    /// The epoch granted while the tenant was parked; nullopt on its first
    /// checkout.
    std::optional<std::uint64_t> epoch;
  };

  /// Blocks until a tenant is ready and checks it out to the caller. Every
  /// tenant starts ready, in index order; a parked tenant becomes ready again
  /// when its grant fires. Returns nullopt once every tenant is done or after
  /// abort(). Throws when nothing is ready, nothing is checked out and some
  /// tenant is not done: the grant protocol wedged, and waiting would hang.
  std::optional<Ticket> acquire();

  /// Raises checked-out tenant `i`'s advertised bound: no draw by `i` will
  /// happen at a key earlier than (bound, i). Bounds must be non-decreasing.
  void set_bound(std::size_t tenant, double bound);

  /// Checked-out tenant `i`'s next step draws at `time_s`. `post_bound` is
  /// the caller's lower bound on the tenant's *following* draw (its
  /// advertised bound the moment this one is granted). Returns the epoch
  /// when the grant condition already holds; otherwise parks the tenant,
  /// returning it to the pool — the grant arrives with a later ticket.
  std::optional<std::uint64_t> request(std::size_t tenant, double time_s,
                                       double post_bound);

  /// Checked-out tenant `i` finished its session and will never draw again.
  void mark_done(std::size_t tenant);

  /// Fails every waiter (a worker hit an exception): acquire() returns
  /// nullopt from now on.
  void abort();

  std::uint64_t grants() const;
  /// Times acquire() slept because no tenant was ready.
  std::uint64_t idle_waits() const;

 private:
  enum class State : std::uint8_t { Ready, Running, Waiting, Done };
  struct Slot {
    State state = State::Ready;
    /// Ready/Running: no future draw earlier than (bound, index).
    double bound = -std::numeric_limits<double>::infinity();
    /// Waiting: the exact key time of the pending draw.
    double request_time = 0.0;
    double post_bound = 0.0;
  };

  /// Grants every currently safe request (cascading), under lock. A grant
  /// to `caller` is returned; every other one re-queues its tenant.
  std::optional<std::uint64_t> try_grants_locked(std::size_t caller);
  /// Returns a checked-out tenant to the pool (parked or done), under lock.
  void check_in_locked(Slot& slot, State state);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Slot> slots_;
  std::deque<Ticket> ready_;
  std::function<std::uint64_t()> draw_;
  std::size_t checked_out_ = 0;
  std::size_t done_count_ = 0;
  std::uint64_t grants_ = 0;
  std::uint64_t idle_waits_ = 0;
  bool aborted_ = false;
};

/// Options for the sharded control plane.
struct ShardedOptions {
  /// Worker threads. Each takes the next ready tenant from the arbiter and
  /// runs it until it parks on a draw or finishes. 1 runs the whole schedule
  /// inline on the calling thread (no std::thread is spawned). Thread count
  /// never affects output.
  unsigned threads = 1;
  bool record_events = true;
  bool record_outcomes = true;
  /// Scheduler-level observability: epoch grants, worker occupancy, and
  /// arbiter waits land here. Occupancy/wait metrics describe one
  /// particular execution (they vary with thread timing) so their names
  /// carry the `wall` token — the marker determinism comparisons exclude.
  /// Per-tenant plane metrics flow separately via each
  /// TenantSpec.config.choreo.obs.
  obs::Observer obs;
};

/// Multi-threaded drop-in for `MultiTenantSession`: the same tenants on
/// disjoint VM slices of one shared cloud, run by a pool of worker threads,
/// producing a `MultiTenantLog` that is bit-identical to the
/// single-threaded oracle for every thread count — events, outcomes,
/// placements, and accounting doubles (pinned by test_sharded_differential).
///
/// Execution model:
///   * Start: every tenant's initial measurement sweep runs on its first
///     checkout, concurrently with the others — their epoch values are
///     pre-drawn in tenant order, exactly the oracle's start() sequence.
///   * Event phase: each worker loops on `EpochArbiter::acquire()` and steps
///     the tenant it gets back-to-back. Steps that touch only tenant-local
///     state (arrivals, departures, retries) run freely in parallel; steps
///     that draw a measurement epoch (MeasureRefresh, ReevalTick) are
///     sequenced by the arbiter so the shared counter is observed in the
///     oracle's deterministic (time, tenant) order. A tenant blocked on a
///     draw parks and its worker takes the next ready tenant; the grant
///     puts the parked tenant back on the ready queue.
///   * Merge: per-tenant logs are reduced to the aggregate with the same
///     deterministic k-way merge the oracle uses.
///
/// The expensive work — packet-train rounds, ground-truth view rebuilds,
/// placement search — happens after a draw is granted and overlaps across
/// tenants thanks to the arbiter's lookahead, which is what turns hundreds
/// of tenants into near-linear thread scaling (bench/tbl_session_scale).
class ShardedSession {
 public:
  ShardedSession(cloud::Cloud& cloud, std::vector<TenantSpec> tenants,
                 ShardedOptions options = {});
  ~ShardedSession();  // out-of-line: TenantCell is incomplete here

  /// Runs every tenant session to completion. Call once.
  MultiTenantLog run();

  /// Per-tenant runtime stats, valid after run(). Deterministic: identical
  /// to the oracle's for the same spec.
  const std::vector<SessionRuntime::Stats>& tenant_stats() const { return stats_; }

  /// Scheduler introspection, valid after run(). `epoch_grants` is
  /// deterministic (one per measurement cycle); the rest describe one
  /// particular execution and vary with thread timing.
  struct Stats {
    unsigned threads = 0;
    std::uint64_t epoch_grants = 0;  ///< epoch draws sequenced by the arbiter
    std::uint64_t idle_waits = 0;    ///< times a worker slept awaiting a ready tenant
  };
  const Stats& stats() const { return run_stats_; }

 private:
  struct TenantCell;

  void run_tenant(TenantCell& cell, std::optional<std::uint64_t> epoch);
  double running_bound(const TenantCell& cell) const;
  double post_draw_bound(const TenantCell& cell,
                         const SessionRuntime::PendingEvent& ev) const;

  cloud::Cloud& cloud_;
  std::vector<TenantSpec> tenants_;
  ShardedOptions opts_;
  std::vector<SessionRuntime::Stats> stats_;
  Stats run_stats_;

  // Live only during run().
  std::vector<std::unique_ptr<TenantCell>> cells_;
  std::unique_ptr<EpochArbiter> arbiter_;
  bool ran_ = false;
};

}  // namespace choreo::core
