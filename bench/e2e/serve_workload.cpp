// Serving workload: a PlacementService on a synthetic fleet, driven the way a
// session's controller drives its placement state. The client replays the
// app trace the sessions use, scaled to the fleet: before each arrival it
// publishes the view of a measurement cycle (a session re-measures before
// every arrival, and the cluster agent publishes every cycle), then places
// the app and commits it; each app is released when its estimated completion
// time passes, the departure model SessionRuntime uses. Every service call is
// timed from outside; every Nth answer is replayed with a fresh GreedyPlacer
// on a copy of the snapshot it was answered against.

#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <queue>

#include "measure/view_cache.h"
#include "place/engine.h"
#include "place/greedy.h"
#include "place/rate_model.h"
#include "serve/service.h"
#include "util/rng.h"
#include "util/units.h"
#include "workload/stream.h"
#include "workloads.h"

namespace choreo::e2e {
namespace {

using units::mbps;

constexpr std::size_t kReplayEvery = 10;  // every Nth answer is replayed

// The tbl_serve_qps fleet generator: 20% of pairs slow, 20% carrying cross
// traffic, 8 cores per machine.
double draw_rate(Rng& rng) {
  return rng.chance(0.2) ? rng.uniform(mbps(300), mbps(900))
                         : rng.uniform(mbps(900), mbps(1100));
}

double draw_cross(Rng& rng) { return rng.chance(0.2) ? rng.uniform(0.5, 3.0) : 0.0; }

place::ClusterView synthetic_fleet(Rng& rng, std::size_t machines) {
  place::ClusterView view;
  view.rate_bps = DoubleMatrix(machines, machines, 0.0);
  view.cross_traffic = DoubleMatrix(machines, machines, 0.0);
  for (std::size_t i = 0; i < machines; ++i) {
    for (std::size_t j = 0; j < machines; ++j) {
      if (i != j) view.rate_bps(i, j) = draw_rate(rng);
    }
  }
  for (std::size_t i = 0; i < machines; ++i) {
    for (std::size_t j = 0; j < machines; ++j) {
      if (i != j) view.cross_traffic(i, j) = draw_cross(rng);
    }
  }
  view.colocation_group.resize(machines);
  for (std::size_t m = 0; m < machines; ++m) view.colocation_group[m] = static_cast<int>(m);
  view.cores.assign(machines, 8.0);
  return view;
}

/// A committed app, until its departure.
struct Live {
  place::Application app;
  place::Placement placement;
};

/// (estimated finish, commit order): departures in time order, ties in
/// commit order.
using Departure = std::pair<double, std::size_t>;

}  // namespace

Episode run_serve_episode(const ServeShape& shape, std::uint64_t seed,
                          const obs::Observer& obsv) {
  Episode ep;
  ep.yardstick = kCopyYardstick;
  // ---- set-up: the first full sweep's view and its cache, the service ----
  const obs::Observer client = obsv.with_lane(1, 0);
  const Clock::time_point setup_t0 = Clock::now();
  std::optional<obs::SpanGuard> setup_span(std::in_place, client.tracer, client.lane,
                                           "bench.setup", "bench");
  Rng view_rng(derive_seed(seed, 0));
  place::ClusterView view = synthetic_fleet(view_rng, shape.vms);
  std::uint64_t measure_epoch = 1;
  measure::ViewCache cache(shape.vms);
  for (std::size_t i = 0; i < shape.vms; ++i) {
    for (std::size_t j = 0; j < shape.vms; ++j) {
      if (i != j) cache.store(i, j, view.rate_bps(i, j), measure_epoch);
    }
  }
  view.pair_epoch = cache.epochs();
  view.view_epoch = measure_epoch;
  serve::PlacementService service(view, place::RateModel::Hose);
  serve::Scratch scratch;
  if (obsv.enabled()) {
    service.set_observer(client);
    scratch.set_observer(client);
  }
  setup_span.reset();
  ep.setup_s = seconds_since(setup_t0);

  // ---- the measured loop ----
  const Clock::time_point loop_t0 = Clock::now();
  workload::TraceArrivalStream stream(derive_seed(seed, 1), app_trace(shape.hours, shape.vms));
  Rng probe_rng(derive_seed(seed, 2));
  const measure::RefreshPolicy policy;
  std::vector<Live> committed;
  std::priority_queue<Departure, std::vector<Departure>, std::greater<>> departures;
  std::uint64_t answer = 0;
  // Times one service call; returns its wall seconds.
  const auto timed = [&](const char* span, auto&& call) {
    obs::SpanGuard guard(client.tracer, client.lane, span, "bench");
    guard.arg("req", static_cast<double>(answer));
    const Clock::time_point t0 = Clock::now();
    call();
    return seconds_since(t0);
  };
  // Releases every app whose estimated finish is at or before `until_s`.
  const auto depart = [&](double until_s) {
    while (!departures.empty() && departures.top().first <= until_s) {
      const Live& gone = committed[departures.top().second];
      departures.pop();
      ep.call("release", timed("bench.release", [&] {
                service.release(gone.app, gone.placement);
              }));
    }
  };

  while (std::optional<place::Application> next = stream.next()) {
    const place::Application& app = *next;
    depart(app.arrival_s);

    // The measurement cycle before this arrival: the refresh policy picks
    // the pairs to re-probe (stale or volatile), each gets a fresh draw, and
    // the view is published whether or not any pair changed.
    place::ClusterView cycle;
    {
      obs::SpanGuard span(client.tracer, client.lane, "bench.prepare", "bench");
      ++measure_epoch;
      const measure::RefreshPlan plan = cache.plan_refresh(measure_epoch, policy);
      for (const measure::ProbePair& p : plan.pairs) {
        const double rate = draw_rate(probe_rng);
        cache.store(p.src, p.dst, rate, measure_epoch);
        view.rate_bps(p.src, p.dst) = rate;
        view.pair_epoch(p.src, p.dst) = measure_epoch;
      }
      view.view_epoch = measure_epoch;
      cycle = view;
    }
    ep.call("publish", timed("bench.publish", [&] { service.publish_view(std::move(cycle)); }));

    const bool replay = answer % kReplayEvery == 0;
    const std::shared_ptr<const serve::ClusterSnapshot> snap =
        replay ? service.snapshot() : nullptr;
    ++ep.attempted;
    serve::PlacementService::Result r;
    bool ok = true;
    const double dt = timed("bench.query", [&] {
      try {
        r = service.place(app, scratch);
      } catch (const place::PlacementError&) {
        ok = false;
      }
    });
    if (!ok) {
      ++ep.failed;
      ++answer;
      continue;
    }
    const std::uint32_t call = ep.call("query", dt);
    ep.decides.push_back({call, call});
    ep.add("serve.queries", 1);
    ep.digest.add(r.epoch);
    for (std::size_t m : r.placement.machine_of_task) {
      ep.digest.add(static_cast<std::uint64_t>(m));
    }

    if (replay) {
      // The determinism contract: an answer is a pure function of
      // (snapshot, app), so a fresh placer on a copy of the same snapshot
      // must reproduce it.
      obs::SpanGuard span(client.tracer, client.lane, "bench.replay", "bench");
      ep.check(snap->epoch == r.epoch, "query " + std::to_string(answer) +
                                           " answered at an unexpected epoch");
      place::ClusterState copy = snap->state.clone();
      const std::uint64_t walked = copy.engine().counters().candidates_walked;
      place::GreedyPlacer greedy(place::RateModel::Hose);
      const place::Placement again = greedy.place(app, copy);
      ep.check(again.machine_of_task == r.placement.machine_of_task,
               "query " + std::to_string(answer) + ": replay differs from the service");
      ep.add("place.replayed_apps", 1);
      ep.add("place.replayed_candidates",
             static_cast<double>(copy.engine().counters().candidates_walked - walked));
    }
    ++answer;

    ep.call("commit", timed("bench.commit", [&] { service.commit(app, r.placement); }));
    const double finish_s =
        app.arrival_s + place::estimate_completion_s(app, r.placement, view,
                                                     place::RateModel::Hose);
    ep.digest.add(finish_s);
    departures.push({finish_s, committed.size()});
    committed.push_back({std::move(*next), r.placement});
  }
  depart(std::numeric_limits<double>::infinity());
  ep.loop_s = seconds_since(loop_t0);

  // ---- output check (untimed): every app released, every core free ----
  const place::ClusterState& last = service.snapshot()->state;
  for (std::size_t m = 0; m < shape.vms; ++m) {
    if (last.free_cores(m) != view.cores[m]) {
      ep.errors.push_back("machine " + std::to_string(m) +
                          " still has cores committed after every release");
      break;
    }
  }
  return ep;
}

}  // namespace choreo::e2e
