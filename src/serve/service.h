#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>

#include "obs/observer.h"
#include "place/cluster.h"
#include "place/greedy.h"

namespace choreo::serve {

/// One immutable, epoch-stamped picture of the cluster the serving plane
/// answers placement queries against: the measured ClusterView plus the
/// committed residual occupancy, frozen at publish time. Snapshots are never
/// mutated after publication — the writer builds the *next* snapshot from a
/// clone and atomically swaps the pointer — so any number of readers can
/// hold and read one concurrently without synchronization beyond the
/// pointer load that fetched it.
struct ClusterSnapshot {
  std::uint64_t epoch = 0;
  place::ClusterState state;

  ClusterSnapshot(std::uint64_t epoch_, place::ClusterState state_)
      : epoch(epoch_), state(std::move(state_)) {}
};

/// A per-worker placement arena: a clone of the current snapshot's engine
/// that a query thread runs its tentative Txn search on. The clone shares
/// the snapshot's immutable view and static indexes and owns a copy of the
/// residual occupancy, the only part a search writes to. Placement
/// algorithms mutate the residuals in place (and roll back), so concurrent
/// queries cannot share one state — but they can each keep ONE clone and
/// reuse it across queries, refreshing only when the service publishes a
/// new epoch. In the steady state a query costs a pointer comparison; a
/// refresh copies the residuals (O(n^2) per-path counts), never the view or
/// the static bounds. Each thread owns its Scratch exclusively; a Scratch is
/// never shared.
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
///   * **Readers never lock.** place() loads the current snapshot pointer
///     (one atomic acquire), refreshes the caller's Scratch arena if the
///     epoch moved, and runs the engine-backed greedy on the arena. Any
///     number of threads may call place() concurrently, each with its own
///     Scratch.
///   * **Single writer.** publish_view / commit / release build the next
///     snapshot from a clone of the current one and atomically swap it in
///     with a bumped epoch. Calls to the three writer methods must be
///     serialized by the caller (the measurement/commit path — one
///     controller thread in practice); they never block readers, which keep
///     serving the previous snapshot until the swap lands.
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

  /// The current snapshot (lock-free). Callers may hold it as long as they
  /// like; it stays valid and immutable after newer epochs are published.
  std::shared_ptr<const ClusterSnapshot> snapshot() const {
    return snap_.load(std::memory_order_acquire);
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

  /// Publishes a freshly measured view of the same fleet: next snapshot
  /// keeps the committed occupancy over static rate indexes built from the
  /// new view.
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
  void swap_in(place::ClusterState next);

  place::RateModel model_;
  std::atomic<std::shared_ptr<const ClusterSnapshot>> snap_;
  obs::Observer obs_;
  obs::Counter publishes_;
  obs::Gauge epoch_gauge_;
};

}  // namespace choreo::serve
