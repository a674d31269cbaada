#include "oracles/reference_session.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>

#include "place/rate_model.h"
#include "util/require.h"

namespace choreo::core {

// The historical hand-rolled merge loop over (arrivals, departures,
// re-evaluation ticks). Event pushes use the typed SessionEvent, but every
// decision, comparison, and accumulation is the original code.
SessionLog run_session_reference(cloud::Cloud& cloud,
                                 const std::vector<cloud::VmId>& vms,
                                 const ControllerConfig& config,
                                 const std::vector<place::Application>& apps) {
  CHOREO_REQUIRE(vms.size() >= 2);
  CHOREO_REQUIRE(config.choreo.reevaluate_period_s > 0.0);
  CHOREO_REQUIRE(!apps.empty());
  for (std::size_t i = 1; i < apps.size(); ++i) {
    CHOREO_REQUIRE_MSG(apps[i - 1].arrival_s <= apps[i].arrival_s,
                       "applications must be sorted by arrival time");
  }

  Choreo choreo(cloud, vms, config.choreo);
  std::uint64_t epoch = 1;
  SessionLog log;

  const auto measure = [&] {
    choreo.measure_network(epoch++);
    log.measurement_wall_s += choreo.last_measure().wall_time_s;
    log.pairs_probed += choreo.last_measure().pairs_probed;
  };
  measure();

  log.apps.resize(apps.size());
  for (std::size_t i = 0; i < apps.size(); ++i) {
    log.apps[i].name = apps[i].name;
    log.apps[i].arrival_s = apps[i].arrival_s;
  }

  const auto app_event = [&](double time_s, SessionEventKind kind, std::size_t idx) {
    SessionEvent ev;
    ev.time_s = time_s;
    ev.kind = kind;
    ev.app = static_cast<std::uint32_t>(idx);
    log.events.push_back(ev);
  };

  struct Running {
    std::size_t app_index;
    Choreo::AppHandle handle;
    double est_finish_s;
  };
  std::vector<Running> running;
  std::deque<std::size_t> waiting;  // indices into apps, FIFO
  std::size_t next_arrival = 0;
  double now = 0.0;
  double next_reeval = config.choreo.reevaluate_period_s;

  const auto estimate_finish = [&](std::size_t app_index, const place::Placement& p) {
    return now + place::estimate_completion_s(apps[app_index], p, choreo.view(),
                                              config.choreo.rate_model);
  };

  const auto try_place = [&](std::size_t app_index) -> bool {
    try {
      const auto handle = choreo.place_application(apps[app_index]);
      const place::Placement& p = choreo.placement_of(handle);
      running.push_back(Running{app_index, handle, estimate_finish(app_index, p)});
      log.apps[app_index].placed_s = now;
      log.apps[app_index].placement = p;
      app_event(now, SessionEventKind::Placed, app_index);
      return true;
    } catch (const place::PlacementError&) {
      return false;
    }
  };

  const auto finish_due = [&] {
    for (auto it = running.begin(); it != running.end();) {
      if (it->est_finish_s <= now + 1e-9) {
        log.apps[it->app_index].finished_s = it->est_finish_s;
        app_event(it->est_finish_s, SessionEventKind::Departure, it->app_index);
        choreo.remove_application(it->handle);
        it = running.erase(it);
      } else {
        ++it;
      }
    }
  };

  while (next_arrival < apps.size() || !running.empty() || !waiting.empty()) {
    // Next event time: arrival, earliest departure, or re-evaluation tick.
    double t_next = std::numeric_limits<double>::infinity();
    if (next_arrival < apps.size()) {
      t_next = std::min(t_next, apps[next_arrival].arrival_s);
    }
    for (const Running& r : running) t_next = std::min(t_next, r.est_finish_s);
    if (!running.empty()) t_next = std::min(t_next, next_reeval);
    CHOREO_ASSERT_MSG(std::isfinite(t_next), "controller stalled with waiting apps");
    now = std::max(now, t_next);

    // Departures free capacity first, then queued apps get another chance.
    finish_due();
    if (!waiting.empty()) {
      while (!waiting.empty() && try_place(waiting.front())) waiting.pop_front();
    }

    // Arrivals at this instant.
    while (next_arrival < apps.size() && apps[next_arrival].arrival_s <= now + 1e-9) {
      const std::size_t idx = next_arrival++;
      app_event(now, SessionEventKind::Arrival, idx);
      // §2.4: re-measure (incrementally) before placing.
      measure();
      if (!try_place(idx)) {
        if (config.queue_when_full) {
          waiting.push_back(idx);
          app_event(now, SessionEventKind::Deferred, idx);
        } else {
          log.apps[idx].rejected = true;
          ++log.rejected;
          app_event(now, SessionEventKind::Rejected, idx);
        }
      }
    }

    // Periodic re-evaluation (§2.4).
    if (!running.empty() && now + 1e-9 >= next_reeval) {
      const auto report = choreo.reevaluate(epoch++);
      ++log.reevaluations;
      log.measurement_wall_s += report.measurement.wall_time_s;
      log.pairs_probed += report.measurement.pairs_probed;
      if (report.adopted) {
        ++log.reevaluations_adopted;
        log.tasks_migrated += report.tasks_migrated;
        // Placements changed: refresh estimates and recorded placements.
        for (Running& r : running) {
          const place::Placement& p = choreo.placement_of(r.handle);
          log.apps[r.app_index].placement = p;
          r.est_finish_s = estimate_finish(r.app_index, p);
        }
      }
      SessionEvent ev;
      ev.time_s = now;
      ev.kind = SessionEventKind::Reevaluation;
      ev.tasks_migrated = static_cast<std::uint32_t>(report.tasks_migrated);
      ev.adopted = report.adopted;
      log.events.push_back(ev);
      next_reeval = now + config.choreo.reevaluate_period_s;
    }

    if (waiting.empty() && next_arrival >= apps.size() && running.empty()) break;
    CHOREO_ASSERT_MSG(!(next_arrival >= apps.size() && running.empty() && !waiting.empty()),
                      "waiting applications can never be placed");
  }

  for (const AppOutcome& a : log.apps) {
    if (a.finished_s >= 0.0) log.total_runtime_s += a.finished_s - a.arrival_s;
  }
  return log;
}

}  // namespace choreo::core
