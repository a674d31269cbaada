#include "core/choreo.h"

#include <algorithm>

#include "agent/plane.h"
#include "measure/packet_train.h"
#include "place/rate_model.h"
#include "util/require.h"

namespace choreo::core {

Choreo::Choreo(cloud::Cloud& cloud, std::vector<cloud::VmId> vms, ChoreoConfig config)
    : cloud_(cloud), vms_(std::move(vms)), config_(std::move(config)),
      greedy_(config_.rate_model) {
  CHOREO_REQUIRE(vms_.size() >= 2);
  const obs::Observer& o = config_.obs;
  obs_.measure_cycles = o.counter("measure.cycles");
  obs_.pairs_probed = o.counter("measure.pairs_probed");
  obs_.rounds = o.counter("measure.rounds");
  obs_.refresh_never = o.counter("measure.refresh_never");
  obs_.refresh_stale = o.counter("measure.refresh_stale");
  obs_.refresh_volatile = o.counter("measure.refresh_volatile");
  obs_.pairs_predicted = o.counter("measure.pairs_predicted");
  obs_.apps_placed = o.counter("place.apps");
  obs_.candidates_walked = o.counter("place.candidates_walked");
  obs_.txn_ops = o.counter("place.txn_ops");
  obs_.reevals = o.counter("place.reevals");
  obs_.tasks_migrated = o.counter("place.tasks_migrated");
  obs_.reeval_infeasible = o.counter("place.reeval_infeasible");
}

Choreo::~Choreo() = default;

void Choreo::scrape_engine_counters(const place::PlacementEngine& engine,
                                    place::PlacementEngine::Counters& seen) {
  const place::PlacementEngine::Counters& c = engine.counters();
  CHOREO_OBS_ADD(obs_.candidates_walked, config_.obs,
                 c.candidates_walked - seen.candidates_walked);
  CHOREO_OBS_ADD(obs_.txn_ops, config_.obs, c.txn_ops - seen.txn_ops);
  seen = c;
}

double Choreo::measure_network(std::uint64_t epoch) {
  CHOREO_OBS_SPAN(span, config_.obs, "measure.cycle", "measure");
  place::ClusterView view;
  if (config_.use_measured_view && config_.agents.enabled) {
    // Distributed path: one agent-plane cycle, whose ClusterAgent runs the
    // refresh core over whatever reports survive the transport.
    if (!plane_) {
      plane_ = std::make_unique<agent::AgentPlane>(cloud_, vms_, config_.plan,
                                                   config_.refresh, config_.forecast,
                                                   config_.agents);
      plane_->set_observer(config_.obs);
    }
    agent::ClusterAgent::CycleReport cycle = plane_->run_cycle(epoch);
    view = std::move(cycle.view);
    last_measure_ = cycle.report;
  } else if (config_.use_measured_view) {
    if (!refresher_) refresher_.emplace(cloud_, vms_, config_.refresh, config_.forecast);
    forecast::Refresher::Cycle cycle =
        refresher_->run_in_process(cloud_, config_.plan, epoch);
    view = std::move(cycle.view);
    last_measure_ = cycle.report;
  } else {
    view = measure::true_cluster_view(cloud_, vms_, epoch);
    last_measure_ = MeasureReport{};
  }

  // The first cycle builds the state; every later one swaps the new view of
  // the same fleet into it, keeping the residual occupancy (CPU, transfer
  // counts) of the running applications, so nothing is replayed. Nothing
  // runs before the first cycle: placing and adopting require a measurement.
  if (state_) {
    CHOREO_REQUIRE(view.machine_count() == state_->machine_count());
    state_->update_view(std::move(view));
  } else {
    state_ = std::make_unique<place::ClusterState>(std::move(view));
  }
  measured_ = true;

  CHOREO_OBS_INC(obs_.measure_cycles, config_.obs);
  CHOREO_OBS_ADD(obs_.pairs_probed, config_.obs, last_measure_.pairs_probed);
  CHOREO_OBS_ADD(obs_.rounds, config_.obs, last_measure_.rounds);
  CHOREO_OBS_ADD(obs_.refresh_never, config_.obs, last_measure_.never_measured);
  CHOREO_OBS_ADD(obs_.refresh_stale, config_.obs, last_measure_.stale);
  CHOREO_OBS_ADD(obs_.refresh_volatile, config_.obs, last_measure_.volatile_pairs);
  CHOREO_OBS_ADD(obs_.pairs_predicted, config_.obs, last_measure_.predicted_pairs);
  span.arg("pairs_probed", static_cast<double>(last_measure_.pairs_probed));
  span.arg("rounds", static_cast<double>(last_measure_.rounds));
  span.arg("incremental", last_measure_.incremental ? 1.0 : 0.0);
  return last_measure_.wall_time_s;
}

const place::ClusterView& Choreo::view() const {
  CHOREO_REQUIRE_MSG(measured_, "call measure_network() first");
  return state_->view();
}

const place::ClusterState& Choreo::state() const {
  CHOREO_REQUIRE_MSG(measured_, "call measure_network() first");
  return *state_;
}

Choreo::AppHandle Choreo::place_application(const place::Application& app) {
  return place_application(app, greedy_);
}

Choreo::AppHandle Choreo::place_application(const place::Application& app,
                                            place::Placer& placer) {
  CHOREO_REQUIRE_MSG(measured_, "call measure_network() first");
  CHOREO_OBS_SPAN(span, config_.obs, "place.app", "place");
  span.arg("tasks", static_cast<double>(app.task_count()));
  const place::Placement placement = placer.place(app, *state_);
  state_->commit(app, placement);
  CHOREO_OBS_INC(obs_.apps_placed, config_.obs);
  scrape_engine_counters(state_->engine(), engine_seen_);
  const AppHandle handle = next_handle_++;
  running_.emplace(handle, RunningApp{app, placement});
  return handle;
}

Choreo::AppHandle Choreo::adopt_placement(const place::Application& app,
                                          const place::Placement& placement) {
  CHOREO_REQUIRE_MSG(measured_, "call measure_network() first");
  CHOREO_REQUIRE_MSG(placement.machine_of_task.size() == app.task_count(),
                     "placement does not cover the application");
  state_->commit(app, placement);
  const AppHandle handle = next_handle_++;
  running_.emplace(handle, RunningApp{app, placement});
  return handle;
}

void Choreo::remove_application(AppHandle handle) {
  const auto it = running_.find(handle);
  CHOREO_REQUIRE_MSG(it != running_.end(), "unknown application handle");
  state_->release(it->second.app, it->second.placement);
  running_.erase(it);
}

const place::Placement& Choreo::placement_of(AppHandle handle) const {
  const auto it = running_.find(handle);
  CHOREO_REQUIRE_MSG(it != running_.end(), "unknown application handle");
  return it->second.placement;
}

double Choreo::estimated_total_completion(
    const std::vector<std::pair<const place::Application*, const place::Placement*>>& plan)
    const {
  // Sum of per-application analytic completion times: the §6.3 metric
  // ("determine the total running time of each application, and compare the
  // sum of these running times").
  double total = 0.0;
  for (const auto& [app, placement] : plan) {
    total += place::estimate_completion_s(*app, *placement, state_->view(),
                                          config_.rate_model);
  }
  return total;
}

Choreo::ReevalReport Choreo::reevaluate(std::uint64_t epoch) {
  CHOREO_REQUIRE_MSG(measured_, "call measure_network() first");
  CHOREO_OBS_SPAN(span, config_.obs, "place.reeval", "place");
  ReevalReport report;
  report.apps_considered = running_.size();
  CHOREO_OBS_INC(obs_.reevals, config_.obs);
  if (running_.empty()) return report;

  // Refresh the network picture first (§2.4: "Choreo re-measures the
  // network" and "this re-evaluation also allows Choreo to react to major
  // changes in the network"). Only the pairs the refresh plan flags are
  // re-probed — the report records the saved probes.
  measure_network(epoch);
  report.measurement = last_measure_;

  // Current plan cost.
  std::vector<std::pair<const place::Application*, const place::Placement*>> current;
  for (const auto& [handle, entry] : running_) {
    current.emplace_back(&entry.app, &entry.placement);
  }
  const double current_cost = estimated_total_completion(current);

  // Hypothetical re-placement from a clean slate, apps in handle (arrival)
  // order. The scratch state shares the live engine's cached rate indexes
  // (no re-validate / re-sort), and the greedy reuses the scratch residuals
  // across apps as they are committed one by one.
  place::ClusterState scratch = state_->clone_unoccupied();
  std::map<AppHandle, place::Placement> proposal;
  place::GreedyPlacer greedy(config_.rate_model);
  // The scratch engine's search effort is real work; its deltas are folded
  // in below (the clone inherits the parent's counter totals).
  place::PlacementEngine::Counters scratch_seen = scratch.engine().counters();
  try {
    for (const auto& [handle, entry] : running_) {
      const place::Placement p = greedy.place(entry.app, scratch);
      scratch.commit(entry.app, p);
      proposal.emplace(handle, p);
    }
  } catch (const place::PlacementError&) {
    // Arrival order can pack a nearly full fleet worse than the live plan,
    // which got there through departures and retries: no candidate plan.
    report.infeasible = true;
    CHOREO_OBS_INC(obs_.reeval_infeasible, config_.obs);
  }
  scrape_engine_counters(scratch.engine(), scratch_seen);
  if (report.infeasible) {
    span.arg("apps", static_cast<double>(report.apps_considered));
    span.arg("infeasible", 1.0);
    return report;
  }
  std::vector<std::pair<const place::Application*, const place::Placement*>> proposed;
  std::size_t moved = 0;
  for (const auto& [handle, entry] : running_) {
    const place::Placement& p = proposal.at(handle);
    proposed.emplace_back(&entry.app, &p);
    for (std::size_t t = 0; t < entry.app.task_count(); ++t) {
      if (p.machine_of_task[t] != entry.placement.machine_of_task[t]) ++moved;
    }
  }
  const double proposed_cost = estimated_total_completion(proposed);

  report.tasks_to_move = moved;
  report.estimated_gain_s = current_cost - proposed_cost;
  report.migration_cost_s =
      static_cast<double>(moved) * config_.migration_cost_per_task_s;

  if (moved > 0 && report.estimated_gain_s > report.migration_cost_s) {
    // Adopt: release everything, commit the new placements.
    for (auto& [handle, entry] : running_) {
      state_->release(entry.app, entry.placement);
    }
    for (auto& [handle, entry] : running_) {
      entry.placement = proposal.at(handle);
      state_->commit(entry.app, entry.placement);
    }
    report.adopted = true;
    report.tasks_migrated = moved;
    CHOREO_OBS_ADD(obs_.tasks_migrated, config_.obs, moved);
  }
  span.arg("apps", static_cast<double>(report.apps_considered));
  span.arg("tasks_to_move", static_cast<double>(report.tasks_to_move));
  span.arg("adopted", report.adopted ? 1.0 : 0.0);
  return report;
}

std::vector<cloud::Cloud::Transfer> Choreo::transfers_for(
    const place::Application& app, const place::Placement& placement,
    double start_s) const {
  app.validate();
  CHOREO_REQUIRE(placement.machine_of_task.size() == app.task_count());
  CHOREO_REQUIRE(placement.complete());
  std::vector<cloud::Cloud::Transfer> out;
  for (std::size_t i = 0; i < app.task_count(); ++i) {
    for (std::size_t j = 0; j < app.task_count(); ++j) {
      const double b = app.traffic_bytes(i, j);
      if (b <= 0.0) continue;
      cloud::Cloud::Transfer tr;
      tr.src = vms_[placement.machine_of_task[i]];
      tr.dst = vms_[placement.machine_of_task[j]];
      tr.bytes = b;
      tr.start_s = start_s;
      out.push_back(tr);
    }
  }
  return out;
}

}  // namespace choreo::core
