#include "serve/service.h"

#include <utility>

#include "util/require.h"

namespace choreo::serve {

PlacementService::PlacementService(place::ClusterView view, place::RateModel model)
    : PlacementService(place::ClusterState(std::move(view)), model) {}

PlacementService::PlacementService(place::ClusterState state, place::RateModel model)
    : model_(model),
      snap_(std::make_shared<const ClusterSnapshot>(1, std::move(state))) {}

PlacementService::Result PlacementService::place(const place::Application& app,
                                                 Scratch& scratch) const {
  CHOREO_OBS_SPAN(span, scratch.obs_, "serve.place", "serve");
  const std::shared_ptr<const ClusterSnapshot> snap = snapshot();
  if (scratch.base_ != snap) {
    // The epoch moved (or this arena is fresh): rebuild it from the new
    // snapshot. clone() shares the snapshot's static indexes and its
    // per-path rows copy-on-write, copying O(n); in the steady state (no
    // swap between queries) this branch is never taken and a query costs
    // only the pointer compare.
    CHOREO_OBS_SPAN(refresh, scratch.obs_, "serve.refresh", "serve");
    scratch.state_.emplace(snap->state.clone());
    scratch.base_ = snap;
    ++scratch.refreshes_;
    CHOREO_OBS_INC(scratch.refreshes_ctr_, scratch.obs_);
  }
  CHOREO_OBS_INC(scratch.queries_, scratch.obs_);
  place::GreedyPlacer greedy(model_);
  Result out;
  out.placement = greedy.place(app, *scratch.state_);
  out.epoch = snap->epoch;
  span.arg("epoch", static_cast<double>(snap->epoch));
  span.arg("tasks", static_cast<double>(app.task_count()));
  return out;
}

void PlacementService::set_observer(const obs::Observer& o) {
  obs_ = o;
  publishes_ = o.counter("serve.publishes");
  epoch_gauge_ = o.gauge("serve.epoch");
  CHOREO_OBS_SET(epoch_gauge_, static_cast<double>(epoch()));
}

std::shared_ptr<const ClusterSnapshot> PlacementService::swap_in(
    place::ClusterState next) {
  const std::uint64_t next_epoch = snapshot()->epoch + 1;
  std::shared_ptr<const ClusterSnapshot> snap =
      std::make_shared<const ClusterSnapshot>(next_epoch, std::move(next));
  {
    const std::lock_guard<std::mutex> lock(snap_mutex_);
    snap_.swap(snap);
  }
  // `snap` now holds the previous snapshot: a caller that drops it frees it,
  // outside the lock, if no reader still holds it.
  CHOREO_OBS_INC(publishes_, obs_);
  CHOREO_OBS_SET(epoch_gauge_, static_cast<double>(next_epoch));
  return snap;
}

void PlacementService::publish_view(place::ClusterView view) {
  CHOREO_OBS_SPAN(span, obs_, "serve.publish", "serve");
  place::ClusterState next = snapshot()->state.clone();
  next.update_view(std::move(view));  // throws on another fleet or hosts, before the swap
  // The view before last is freed here, once the new one is in.
  const std::shared_ptr<const ClusterSnapshot> before_last = std::move(previous_view_);
  previous_view_ = swap_in(std::move(next));
}

void PlacementService::commit(const place::Application& app,
                              const place::Placement& placement) {
  place::ClusterState next = snapshot()->state.clone();
  next.commit(app, placement);
  swap_in(std::move(next));
}

void PlacementService::release(const place::Application& app,
                               const place::Placement& placement) {
  place::ClusterState next = snapshot()->state.clone();
  next.release(app, placement);
  swap_in(std::move(next));
}

}  // namespace choreo::serve
