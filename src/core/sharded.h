#pragma once

#include <condition_variable>
#include <cstdint>
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
/// reaches a draw blocks with its exact key, every tenant that is still
/// running advertises a conservative lower bound on its own next draw key,
/// and the pending draw with the smallest key is granted the next counter
/// value as soon as every other tenant provably cannot draw earlier. This
/// is conservative (lookahead-based) parallel discrete-event simulation:
/// thread timing can only delay a grant, never reorder one, so the epoch
/// sequence — and with it every downstream placement and log entry — is
/// bit-identical for any thread count.
class EpochArbiter {
 public:
  /// `draw` produces the next shared counter value; it is only ever invoked
  /// under the arbiter's lock, in grant order.
  EpochArbiter(std::size_t tenants, std::function<std::uint64_t()> draw);

  /// Raises tenant `i`'s advertised bound: no draw by `i` will happen at a
  /// key earlier than (bound, i). Bounds must be non-decreasing.
  void set_bound(std::size_t tenant, double bound);

  /// Tenant `i`'s next step draws at `time_s`. `post_bound` is the caller's
  /// lower bound on the tenant's *following* draw (its advertised bound the
  /// moment this one is granted). Returns the epoch immediately when the
  /// grant condition already holds; otherwise registers the request —
  /// collect the grant later via poll().
  std::optional<std::uint64_t> request(std::size_t tenant, double time_s,
                                       double post_bound);

  /// Collects a previously requested grant, if it has fired.
  std::optional<std::uint64_t> poll(std::size_t tenant);

  /// Tenant `i` finished its session and will never draw again.
  void mark_done(std::size_t tenant);

  /// Fails every waiter (a worker hit an exception); wait_change returns.
  void abort();
  bool aborted() const;

  /// Blocks until the arbiter's state version differs from `seen` (a grant
  /// or completion happened), every tenant is done, or abort() was called.
  /// Returns the current version.
  std::uint64_t wait_change(std::uint64_t seen);
  std::uint64_t version() const;

  bool all_done() const;
  std::uint64_t grants() const;

 private:
  enum class State : std::uint8_t { Running, Waiting, Granted, Done };
  struct Slot {
    State state = State::Running;
    /// Running/Granted: no future draw earlier than (bound, index).
    double bound = -std::numeric_limits<double>::infinity();
    /// Waiting: the exact key time of the pending draw.
    double request_time = 0.0;
    double post_bound = 0.0;
    std::uint64_t epoch = 0;
  };

  /// Grants every currently safe request (cascading), under lock.
  void try_grants_locked();
  void bump_locked();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Slot> slots_;
  std::function<std::uint64_t()> draw_;
  std::size_t done_count_ = 0;
  std::uint64_t version_ = 0;
  std::uint64_t grants_ = 0;
  bool aborted_ = false;
};

/// Options for the sharded control plane.
struct ShardedOptions {
  /// Worker threads, and with them tenant shards: tenants are partitioned
  /// round-robin into one shard per thread, a shard being the unit of work
  /// one thread processes at a time. 1 runs the whole schedule inline on
  /// the calling thread (no std::thread is spawned). Thread count never
  /// affects output.
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
/// disjoint VM slices of one shared cloud, partitioned into one shard per
/// worker thread, producing a `MultiTenantLog` that is bit-identical to the
/// single-threaded oracle for every thread count — events, outcomes,
/// placements, and accounting doubles (pinned by test_sharded_differential).
///
/// Execution model:
///   * Phase 0 (parallel, barrier at the end): every tenant's initial
///     measurement sweep runs concurrently — their epoch values are
///     pre-drawn in tenant order, exactly the oracle's start() sequence.
///     No event can be processed before the sweep epoch barrier because a
///     session's first event is always a measurement refresh.
///   * Event phase: worker threads claim shards and step their tenants'
///     runtimes back-to-back. Steps that touch only tenant-local state
///     (arrivals, departures, retries) run freely in parallel; steps that
///     draw a measurement epoch (MeasureRefresh, ReevalTick) are sequenced
///     by the `EpochArbiter` so the shared counter is observed in the
///     oracle's deterministic (time, tenant) order. A tenant blocked on a
///     draw parks; its shard moves on to its other tenants.
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
  ~ShardedSession();  // out-of-line: TenantCell/Shard are incomplete here

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
    std::uint64_t shard_passes = 0;  ///< shard claims that made progress
    std::uint64_t idle_waits = 0;    ///< times a worker slept awaiting a grant
  };
  const Stats& stats() const { return run_stats_; }

 private:
  struct TenantCell;
  struct Shard;

  bool run_shard_pass(Shard& shard);
  void run_tenant(TenantCell& cell);
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
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<EpochArbiter> arbiter_;
  bool ran_ = false;
};

}  // namespace choreo::core
