// Session workloads: N tenants on disjoint VM slices of one cloud, each a
// core::SessionRuntime drawing measurement epochs from the shared cloud
// counter. The loop below is the benchmark's own copy of
// MultiTenantSession::run's earliest-next-event interleave, so every step()
// can be timed from outside and classified by the kind of event it runs.

#include <limits>
#include <memory>
#include <stdexcept>

#include "agent/plane.h"
#include "cloud/cloud.h"
#include "core/runtime.h"
#include "workload/stream.h"
#include "workloads.h"

namespace choreo::e2e {
namespace {

using core::RuntimeEventKind;

constexpr std::size_t kKinds = 5;

const char* op_name(RuntimeEventKind kind) {
  switch (kind) {
    case RuntimeEventKind::MeasureRefresh:
      return "measure_refresh";
    case RuntimeEventKind::Arrival:
      return "arrival";
    case RuntimeEventKind::QueueRetry:
      return "retry";
    case RuntimeEventKind::ReevalTick:
      return "reeval";
    case RuntimeEventKind::Departure:
      return "departure";
  }
  return "unknown";
}

// Span names must outlive the tracer, hence literals.
const char* span_name(RuntimeEventKind kind) {
  switch (kind) {
    case RuntimeEventKind::MeasureRefresh:
      return "bench.measure_refresh";
    case RuntimeEventKind::Arrival:
      return "bench.arrival";
    case RuntimeEventKind::QueueRetry:
      return "bench.retry";
    case RuntimeEventKind::ReevalTick:
      return "bench.reeval";
    case RuntimeEventKind::Departure:
      return "bench.departure";
  }
  return "bench.unknown";
}

struct Tenant {
  std::unique_ptr<workload::TraceArrivalStream> stream;
  std::unique_ptr<core::SessionRuntime> runtime;
  std::uint32_t lane = 0;
  /// The MeasureRefresh call preceding this tenant's next Arrival step.
  std::uint32_t refresh_call = 0;
  /// Steps this loop ran, by RuntimeEventKind.
  std::uint64_t steps[kKinds] = {};
  std::uint64_t outcomes = 0;
  std::uint64_t finished = 0;
};

}  // namespace

Episode run_session_episode(const SessionShape& shape, std::uint64_t seed,
                            const obs::Observer& obsv) {
  Episode ep;
  // ---- set-up: cloud, VMs, runtimes, and start() (the first full sweep) ----
  const Clock::time_point setup_t0 = Clock::now();
  cloud::Cloud cloud(cloud::ec2_2013(), derive_seed(seed, 0));
  const workload::TraceConfig trace = app_trace(shape.hours, kVmsPerTenant);

  std::vector<Tenant> tenants(shape.tenants);
  for (std::size_t i = 0; i < shape.tenants; ++i) {
    Tenant& t = tenants[i];
    t.lane = static_cast<std::uint32_t>(i + 1);
    core::ControllerConfig config;
    if (shape.agents_batch) {
      config.agents.enabled = true;
      config.agents.transport.seed = derive_seed(seed, 100 + i);
      config.batch.enabled = true;
    }
    config.choreo.obs = obsv.with_lane(t.lane, 0);

    core::RuntimeOptions options;
    options.record_events = false;
    options.record_outcomes = false;
    options.tenant = static_cast<std::uint32_t>(i);
    options.epoch_source = [&cloud] { return cloud.next_epoch(); };
    options.on_outcome = [&ep, &t, i](const core::AppOutcome& o) {
      ++t.outcomes;
      if (o.rejected || o.placed_s < 0.0) {
        ++ep.failed;
        return;
      }
      ++t.finished;
      ep.check(o.arrival_s <= o.placed_s && o.placed_s <= o.finished_s,
               "tenant " + std::to_string(i) + " app " + o.name +
                   ": arrival <= placed <= finished violated");
      ep.response_s.add(o.finished_s - o.arrival_s);
      ep.digest.add(static_cast<std::uint64_t>(i));
      ep.digest.add(o.arrival_s);
      ep.digest.add(o.placed_s);
      ep.digest.add(o.finished_s);
      for (std::size_t m : o.placement.machine_of_task) {
        ep.digest.add(static_cast<std::uint64_t>(m));
      }
    };
    t.stream = std::make_unique<workload::TraceArrivalStream>(derive_seed(seed, 10 + i),
                                                              trace);
    t.runtime = std::make_unique<core::SessionRuntime>(
        cloud, cloud.allocate_vms(kVmsPerTenant), config, std::move(options));
  }
  for (Tenant& t : tenants) {
    obs::SpanGuard span(obsv.tracer, t.lane, "bench.setup", "bench");
    t.runtime->start(*t.stream);
  }
  ep.setup_s = seconds_since(setup_t0);

  // ---- the measured loop: earliest next event first, ties to the lowest
  // tenant index (MultiTenantSession::run's order) ----
  const Clock::time_point loop_t0 = Clock::now();
  std::uint64_t arrivals = 0;
  while (true) {
    std::size_t best = tenants.size();
    double best_time = std::numeric_limits<double>::infinity();
    RuntimeEventKind kind = RuntimeEventKind::Arrival;
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      const auto ev = tenants[i].runtime->peek_event();
      if (ev && ev->time_s < best_time) {
        best_time = ev->time_s;
        best = i;
        kind = ev->kind;
      }
    }
    if (best == tenants.size()) break;
    Tenant& t = tenants[best];

    double dt = 0.0;
    {
      obs::SpanGuard span(obsv.tracer, t.lane, span_name(kind), "bench");
      span.arg("req", static_cast<double>(arrivals));
      const Clock::time_point t0 = Clock::now();
      try {
        t.runtime->step();
      } catch (const std::exception& e) {
        throw std::runtime_error(std::string(op_name(kind)) + " step of tenant " +
                                 std::to_string(best) + " at t=" +
                                 std::to_string(best_time) + " s threw: " + e.what());
      }
      dt = seconds_since(t0);
    }
    const std::uint32_t call = ep.call(op_name(kind), dt);
    ++t.steps[static_cast<std::size_t>(kind)];

    if (kind == RuntimeEventKind::MeasureRefresh || kind == RuntimeEventKind::ReevalTick) {
      const core::Choreo::MeasureReport& m = t.runtime->choreo().last_measure();
      ep.add("measure.cycles", 1);
      ep.add("measure.pairs_probed", static_cast<double>(m.pairs_probed));
      ep.add("measure.rounds", static_cast<double>(m.rounds));
      if (m.pairs_probed == 0) {
        ep.add("measure.empty_cycles", 1);
      } else {
        ep.probes.push_back({call, static_cast<std::uint32_t>(m.pairs_probed)});
      }
    }
    if (kind == RuntimeEventKind::MeasureRefresh) t.refresh_call = call;
    if (kind == RuntimeEventKind::Arrival) {
      ++arrivals;
      ep.decides.push_back({t.refresh_call, call});
    }
  }
  ep.loop_s = seconds_since(loop_t0);
  ep.attempted = arrivals;

  // ---- output checks (untimed) ----
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    Tenant& t = tenants[i];
    const core::SessionRuntime::Stats s = t.runtime->stats();
    const core::SessionLog log = t.runtime->finish();
    const std::string who = "tenant " + std::to_string(i) + ": ";
    const auto steps = [&t](RuntimeEventKind k) {
      return t.steps[static_cast<std::size_t>(k)];
    };
    std::uint64_t all_steps = 0;
    for (std::uint64_t n : t.steps) all_steps += n;
    if (t.outcomes < s.arrivals) {
      ep.failed += s.arrivals - t.outcomes;
      ep.errors.push_back(who + std::to_string(s.arrivals - t.outcomes) +
                          " arrivals never placed");
    }
    ep.check(s.arrivals == s.placements + log.rejected,
             who + "arrivals != placed + rejected at finish");
    ep.check(t.finished == s.departures, who + "finished apps != departures");
    ep.check(steps(RuntimeEventKind::Arrival) == s.arrivals,
             who + "Arrival steps != Stats::arrivals");
    ep.check(steps(RuntimeEventKind::QueueRetry) == s.retries,
             who + "QueueRetry steps != Stats::retries");
    ep.check(steps(RuntimeEventKind::ReevalTick) == s.reevaluations,
             who + "ReevalTick steps != Stats::reevaluations");
    ep.check(1 + steps(RuntimeEventKind::MeasureRefresh) +
                     steps(RuntimeEventKind::ReevalTick) ==
                 s.measure_cycles,
             who + "measure steps != Stats::measure_cycles - first sweep");
    ep.check(all_steps == s.events_processed, who + "steps != Stats::events_processed");

    ep.add("core.events", static_cast<double>(s.events_processed));
    ep.max("core.peak_waiting", static_cast<double>(s.peak_waiting));
    ep.add("place.placements", static_cast<double>(s.placements));
    ep.add("place.attempts", static_cast<double>(s.arrivals + s.retries));
    ep.add("place.batch_attempts", static_cast<double>(s.batch_attempts.size()));
    for (std::size_t k : s.batch_attempts) ep.add("place.batch_size_sum", static_cast<double>(k));
    ep.add("probe_model_s", log.measurement_wall_s);
    ep.add("apps", static_cast<double>(s.arrivals));
    if (const agent::AgentPlane* plane = t.runtime->choreo().agent_plane()) {
      const agent::AgentPlane::Stats a = plane->stats();
      ep.add("agent.reports", static_cast<double>(a.reports_sent));
      ep.add("agent.retransmits", static_cast<double>(a.retransmits));
      ep.add("agent.wire_bytes", static_cast<double>(a.transport.bytes_sent));
    }
  }
  return ep;
}

}  // namespace choreo::e2e
