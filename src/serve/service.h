#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>

#include "obs/observer.h"
#include "place/cluster.h"
#include "place/greedy.h"

namespace choreo::serve {

/// One immutable, epoch-stamped picture of the cluster the serving plane
/// answers placement queries against: the measured ClusterView plus the
/// committed residual occupancy, frozen at publish time. Snapshots are never
/// mutated after publication — the writer builds the *next* snapshot from a
/// clone and swaps the pointer in — so any number of readers can hold and
/// read one concurrently without synchronization beyond the pointer copy
/// that fetched it.
struct ClusterSnapshot {
  std::uint64_t epoch = 0;
  place::ClusterState state;

  ClusterSnapshot(std::uint64_t epoch_, place::ClusterState state_)
      : epoch(epoch_), state(std::move(state_)) {}
};

/// A per-worker placement arena: a clone of the current snapshot's engine
/// that a query thread runs its tentative Txn search on. The clone shares
/// the snapshot's immutable view and static indexes, and shares its
/// per-path count rows copy-on-write: the residuals are the only part a
/// search writes to, and a write copies the row first while the snapshot
/// (or another arena) still holds it. Placement algorithms mutate the
/// residuals in place (and roll back), so concurrent queries cannot share
/// one state — but they can each keep ONE clone and reuse it across
/// queries, refreshing only when the service publishes a new epoch. In the
/// steady state a query costs a pointer comparison; a refresh copies O(n)
/// row handles and per-machine counts, and the next search copies only the
/// rows it writes, never the view. Each thread owns its Scratch
/// exclusively; a Scratch is never shared.
class Scratch {
 public:
  Scratch() = default;

  /// Epoch of the snapshot the arena currently mirrors; 0 before first use.
  std::uint64_t epoch() const { return base_ ? base_->epoch : 0; }
  /// Arena rebuilds performed (first use plus one per epoch change seen).
  std::uint64_t refreshes() const { return refreshes_; }

  /// Attaches the observability plane to this arena's queries: each worker
  /// thread hands its Scratch `obs.with_lane(worker, shard)` so per-query
  /// spans separate by lane and counter adds stay contention-free per shard.
  void set_observer(const obs::Observer& o) {
    obs_ = o;
    queries_ = o.counter("serve.queries");
    refreshes_ctr_ = o.counter("serve.scratch_refreshes");
  }

 private:
  friend class PlacementService;

  std::shared_ptr<const ClusterSnapshot> base_;
  std::optional<place::ClusterState> state_;
  std::uint64_t refreshes_ = 0;
  obs::Observer obs_;
  obs::Counter queries_;
  obs::Counter refreshes_ctr_;
};

/// The placement serving front end: answers "place this app now" queries at
/// high rate against an epoch-swapped, read-mostly cluster snapshot.
///
/// Concurrency contract:
///   * **Readers place outside the lock.** place() copies the current
///     snapshot pointer under a mutex held only for that copy, then
///     refreshes the caller's Scratch arena if the epoch moved and runs the
///     engine-backed greedy on the arena, unlocked. Any number of threads
///     may call place() concurrently, each with its own Scratch.
///   * **Single writer.** publish_view / commit / release build the next
///     snapshot from a clone of the current one, outside the lock, and swap
///     it in under the mutex with a bumped epoch. Calls to the three writer
///     methods must be serialized by the caller (the measurement/commit
///     path — one controller thread in practice); readers wait on them for
///     at most the pointer swap and keep serving the previous snapshot until
///     it lands.
///
/// Determinism: a query's placement is a pure function of (snapshot, app) —
/// the greedy is deterministic and the arena is an exact clone — so the
/// result is independent of thread count and interleaving *given the epoch
/// it was answered at*, which Result reports. test_serve_concurrent pins
/// exactly that: concurrent answers equal a sequential replay against the
/// recorded snapshots.
class PlacementService {
 public:
  /// Starts serving an unoccupied cluster built from `view` at epoch 1.
  explicit PlacementService(place::ClusterView view,
                            place::RateModel model = place::RateModel::Hose);
  /// Starts serving an existing state (occupancy included) at epoch 1.
  explicit PlacementService(place::ClusterState state,
                            place::RateModel model = place::RateModel::Hose);

  place::RateModel rate_model() const { return model_; }

  /// The current snapshot (a pointer copy under the publication mutex).
  /// Callers may hold it as long as they like; it stays valid and immutable
  /// after newer epochs are published.
  std::shared_ptr<const ClusterSnapshot> snapshot() const {
    const std::lock_guard<std::mutex> lock(snap_mutex_);
    return snap_;
  }
  std::uint64_t epoch() const { return snapshot()->epoch; }

  /// One answered query: the placement plus the snapshot epoch it was
  /// computed against (the replay key for determinism checks, and how a
  /// caller detects it raced a swap and may want to re-validate).
  struct Result {
    place::Placement placement;
    std::uint64_t epoch = 0;
  };

  /// Answers one placement query on the caller's arena. Throws
  /// place::PlacementError when no feasible assignment exists against the
  /// current snapshot (the arena stays valid either way). Does NOT commit —
  /// serving is read-only; the control plane decides what to commit.
  Result place(const place::Application& app, Scratch& scratch) const;

  // ---- Writer path (single-threaded by contract) ----

  /// Publishes a freshly measured view of the same fleet, same hosts: next
  /// snapshot keeps the committed occupancy over static rate indexes built
  /// from the new view. Throws with the snapshot unchanged otherwise.
  void publish_view(place::ClusterView view);
  /// Publishes the snapshot with `app` committed at `placement`.
  void commit(const place::Application& app, const place::Placement& placement);
  /// Publishes the snapshot with a previously committed app released.
  void release(const place::Application& app, const place::Placement& placement);

  /// Attaches the observability plane to the writer path: publish counts
  /// and the current epoch gauge. Writer-serialized like the publish
  /// methods themselves.
  void set_observer(const obs::Observer& o);

 private:
  /// Swaps `next` in at the next epoch; returns the snapshot it replaced.
  std::shared_ptr<const ClusterSnapshot> swap_in(place::ClusterState next);

  place::RateModel model_;
  /// Guards snap_ for the pointer copy and the swap, nothing longer.
  mutable std::mutex snap_mutex_;
  std::shared_ptr<const ClusterSnapshot> snap_;
  /// The last snapshot over the view before the current one, held until the
  /// next publish_view (writer-only). Freeing a view drops one handle per
  /// row chunk, O(n) for a fleet of n, so the writer's next publish does it
  /// rather than whichever reader's arena refresh drops the last reference.
  /// A reader still holding that view by then frees it itself.
  std::shared_ptr<const ClusterSnapshot> previous_view_;
  obs::Observer obs_;
  obs::Counter publishes_;
  obs::Gauge epoch_gauge_;
};

}  // namespace choreo::serve
