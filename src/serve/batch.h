#pragma once

#include <cstddef>
#include <vector>

#include "place/app.h"
#include "place/cluster.h"

namespace choreo::serve {

/// Opt-in knobs for the batched arrival path: instead of draining the FIFO
/// retry queue one application at a time, the runtime dequeues up to
/// `max_batch` waiting applications and places them *jointly* — the fig10a
/// all-at-once mechanism (place::combine + one placement of the union of
/// transfers) applied online to whatever is queued. Disabled by default; the
/// runtime then drains at max_batch == 1, the one-at-a-time FIFO drain
/// (pinned by test_serve).
struct BatchArrivalOptions {
  bool enabled = false;
  /// Most waiting applications planned in one joint placement. On joint
  /// infeasibility the batch shrinks one size at a time down to 1
  /// (one-at-a-time semantics; see SessionRuntime::handle_retry).
  std::size_t max_batch = 4;
  /// Combined task count at or below which the §5.2 ILP places the joint
  /// application instead of the greedy — the fig09-style quality oracle for
  /// small instances. 0 (default) keeps every batch on the greedy.
  std::size_t ilp_task_limit = 0;
};

/// A planned batch: the joint placement of combine(apps) split back into
/// one placement per input application (input order preserved).
struct BatchPlan {
  std::vector<place::Placement> placements;
  place::Placement joint;
  bool used_ilp = false;
};

/// Splits a placement of combine(apps) back into per-app placements by the
/// task offsets combine() concatenated at.
std::vector<place::Placement> split_placement(
    const std::vector<const place::Application*>& apps, const place::Placement& joint);

/// Places `apps` jointly on `state` (never mutating it — commit is the
/// caller's decision, like any Placer): combine the traffic matrices, CPU
/// vectors, and (offset-shifted) constraints into one application, place it
/// with the greedy — or with the ILP when the combined task count is within
/// opts.ilp_task_limit — and split the result per app. Throws
/// place::PlacementError when the joint application is infeasible.
BatchPlan plan_batch(const std::vector<const place::Application*>& apps,
                     const place::ClusterState& state, place::RateModel model,
                     const BatchArrivalOptions& opts);

}  // namespace choreo::serve
