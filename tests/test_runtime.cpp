// The discrete-event session runtime beyond the differential pin: the
// stepping API, constant-memory streaming mode, and multi-tenant sessions
// interleaving disjoint VM slices of one shared cloud.

#include "core/runtime.h"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "core/sharded.h"
#include "oracles/multi_tenant_session.h"
#include "util/units.h"
#include "workload/stream.h"

namespace choreo::core {
namespace {

using units::gigabytes;

workload::GeneratorArrivalStream::Config small_stream_config(std::size_t apps,
                                                             double mean_gap_s) {
  workload::GeneratorArrivalStream::Config cfg;
  cfg.gen.min_tasks = 3;
  cfg.gen.max_tasks = 5;
  cfg.gen.max_cpu = 1.5;
  cfg.gen.median_transfer_bytes = 200e6;
  cfg.mean_gap_s = mean_gap_s;
  cfg.max_apps = apps;
  return cfg;
}

ControllerConfig fast_config() {
  ControllerConfig config;
  config.choreo.use_measured_view = false;  // fast, deterministic
  config.choreo.reevaluate_period_s = 120.0;
  return config;
}

TEST(SessionRuntime, StepwiseClockIsMonotone) {
  cloud::Cloud cloud(cloud::ec2_2013(), 7);
  const auto vms = cloud.allocate_vms(6);
  workload::GeneratorArrivalStream stream(3, small_stream_config(8, 30.0));
  SessionRuntime runtime(cloud, vms, fast_config());
  runtime.start(stream);
  double last = 0.0;
  while (!runtime.done()) {
    const std::optional<SessionRuntime::PendingEvent> next = runtime.peek_event();
    ASSERT_TRUE(next.has_value());
    EXPECT_GE(next->time_s + 1e-9, runtime.now());
    runtime.step();
    EXPECT_GE(runtime.now() + 1e-9, last);
    last = runtime.now();
  }
  const SessionLog log = runtime.finish();
  EXPECT_EQ(log.apps.size(), 8u);
  for (const AppOutcome& a : log.apps) EXPECT_GE(a.finished_s, 0.0);
  EXPECT_GT(runtime.stats().events_processed, 0u);
  EXPECT_EQ(runtime.stats().arrivals, 8u);
  EXPECT_EQ(runtime.stats().departures, 8u);
}

TEST(SessionRuntime, StreamingModeIsConstantMemory) {
  // Dozens of applications stream through with event and outcome recording
  // off:
  // the log must stay empty, every outcome must still be delivered through
  // the sink, and the runtime's live state must stay bounded by the fleet —
  // never by the stream length.
  cloud::Cloud cloud(cloud::ec2_2013(), 11);
  const auto vms = cloud.allocate_vms(8);
  workload::GeneratorArrivalStream stream(5, small_stream_config(60, 15.0));
  ControllerConfig config = fast_config();
  config.choreo.reevaluate_period_s = 600.0;  // keep the long session cheap

  RuntimeOptions options;
  options.record_events = false;
  options.record_outcomes = false;
  std::size_t outcomes = 0;
  std::size_t finished = 0;
  options.on_outcome = [&](const AppOutcome& a) {
    ++outcomes;
    if (a.finished_s >= 0.0) {
      ++finished;
      EXPECT_GE(a.placed_s, a.arrival_s);
      EXPECT_GT(a.finished_s, a.placed_s - 1e-9);
    }
  };
  SessionRuntime runtime(cloud, vms, std::move(config), std::move(options));
  const SessionLog log = runtime.run(stream);

  EXPECT_TRUE(log.events.empty());
  EXPECT_TRUE(log.apps.empty());
  EXPECT_EQ(outcomes, 60u);
  EXPECT_EQ(finished + log.rejected, 60u);
  EXPECT_GT(log.total_runtime_s, 0.0);

  const SessionRuntime::Stats& stats = runtime.stats();
  EXPECT_EQ(stats.arrivals, 60u);
  // Live state bounded by the fleet and the event horizon, not the trace:
  // with 8 VMs only a handful of apps fit at once, and the queue holds at
  // most a few events per in-flight app plus the look-ahead arrival.
  EXPECT_LT(stats.peak_in_flight, 24u);
  EXPECT_LT(stats.peak_queue, 64u);
}

TEST(SessionRuntime, RecordingAndStreamingAgreeOnAccounting) {
  // The same session with recording on and off must produce identical
  // counters; only what is materialized differs.
  const auto run_once = [](bool record) {
    cloud::Cloud cloud(cloud::ec2_2013(), 23);
    const auto vms = cloud.allocate_vms(6);
    workload::GeneratorArrivalStream stream(9, small_stream_config(30, 25.0));
    RuntimeOptions options;
    options.record_events = record;
    options.record_outcomes = record;
    SessionRuntime runtime(cloud, vms, fast_config(), std::move(options));
    return runtime.run(stream);
  };
  const SessionLog recorded = run_once(true);
  const SessionLog streamed = run_once(false);
  EXPECT_EQ(recorded.apps.size(), 30u);
  EXPECT_EQ(recorded.reevaluations, streamed.reevaluations);
  EXPECT_EQ(recorded.rejected, streamed.rejected);
  EXPECT_EQ(recorded.pairs_probed, streamed.pairs_probed);
  EXPECT_DOUBLE_EQ(recorded.total_runtime_s, streamed.total_runtime_s);
  EXPECT_DOUBLE_EQ(recorded.measurement_wall_s, streamed.measurement_wall_s);
}

TEST(SessionRuntime, RejectsArrivalsThatGoBackInTime) {
  // A stream must yield non-decreasing arrival times. One that goes back in
  // time is a caller error, not an app to place "late": both the
  // single-tenant runtime and the sharded session (whose epoch-draw
  // lookahead assumes ordered arrivals) refuse it.
  workload::GeneratorConfig gen;
  gen.min_tasks = 3;
  gen.max_tasks = 3;
  gen.max_cpu = 1.0;
  Rng rng(5);
  std::vector<place::Application> apps;
  for (const double t : {0.0, 50.0, 20.0, 80.0}) {
    apps.push_back(workload::generate_app(rng, gen));
    apps.back().arrival_s = t;
  }
  const auto expect_rejected = [](const auto& run) {
    try {
      run();
      ADD_FAILURE() << "a decreasing arrival stream was accepted";
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("non-decreasing"), std::string::npos)
          << e.what();
    }
  };

  expect_rejected([&] {
    cloud::Cloud cloud(cloud::ec2_2013(), 9);
    const auto vms = cloud.allocate_vms(6);
    workload::VectorArrivalStream stream(apps);
    SessionRuntime(cloud, vms, fast_config()).run(stream);
  });
  for (const unsigned threads : {1u, 2u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_rejected([&] {
      cloud::Cloud cloud(cloud::ec2_2013(), 9);
      std::vector<workload::VectorArrivalStream> streams(
          2, workload::VectorArrivalStream(apps));
      std::vector<TenantSpec> tenants(2);
      for (std::size_t i = 0; i < tenants.size(); ++i) {
        tenants[i].name = "tenant" + std::to_string(i);
        tenants[i].vms = cloud.allocate_vms(4);
        tenants[i].config = fast_config();
        tenants[i].stream = &streams[i];
      }
      ShardedOptions options;
      options.threads = threads;
      ShardedSession(cloud, std::move(tenants), options).run();
    });
  }
}

TEST(MultiTenant, RejectsOverlappingVmSlices) {
  cloud::Cloud cloud(cloud::ec2_2013(), 3);
  const auto vms = cloud.allocate_vms(6);
  workload::GeneratorArrivalStream stream(1, small_stream_config(2, 30.0));
  std::vector<TenantSpec> tenants(2);
  tenants[0].vms = {vms[0], vms[1], vms[2]};
  tenants[0].stream = &stream;
  tenants[1].vms = {vms[2], vms[3], vms[4]};  // vms[2] shared: invalid
  tenants[1].stream = &stream;
  EXPECT_THROW(MultiTenantSession(cloud, std::move(tenants)), PreconditionError);
}

TEST(MultiTenant, InterleavesTenantsOnSharedClock) {
  cloud::Cloud cloud(cloud::ec2_2013(), 41);
  const auto vms_a = cloud.allocate_vms(6);
  const auto vms_b = cloud.allocate_vms(6);
  workload::GeneratorArrivalStream stream_a(100, small_stream_config(6, 40.0));
  workload::GeneratorArrivalStream stream_b(200, small_stream_config(6, 40.0));

  std::vector<TenantSpec> tenants(2);
  tenants[0].name = "a";
  tenants[0].vms = vms_a;
  tenants[0].config = fast_config();
  tenants[0].stream = &stream_a;
  tenants[1].name = "b";
  tenants[1].vms = vms_b;
  tenants[1].config = fast_config();
  tenants[1].stream = &stream_b;
  MultiTenantSession session(cloud, std::move(tenants));
  const MultiTenantLog result = session.run();

  ASSERT_EQ(result.tenants.size(), 2u);
  for (const SessionLog& log : result.tenants) {
    EXPECT_EQ(log.apps.size(), 6u);
    for (const AppOutcome& a : log.apps) EXPECT_GE(a.finished_s, 0.0);
  }
  // Aggregate: outcomes concatenated, counters summed, events merged in
  // shared-clock order with payloads re-based onto the concatenation.
  const SessionLog& agg = result.aggregate;
  EXPECT_EQ(agg.apps.size(), 12u);
  EXPECT_EQ(agg.events.size(),
            result.tenants[0].events.size() + result.tenants[1].events.size());
  EXPECT_DOUBLE_EQ(agg.total_runtime_s, result.tenants[0].total_runtime_s +
                                            result.tenants[1].total_runtime_s);
  bool saw_both_tenants[2] = {false, false};
  for (std::size_t i = 0; i < agg.events.size(); ++i) {
    if (i > 0) {
      EXPECT_LE(agg.events[i - 1].time_s, agg.events[i].time_s + 1e-6);
    }
    ASSERT_LT(agg.events[i].tenant, 2u);
    saw_both_tenants[agg.events[i].tenant] = true;
    if (agg.events[i].app != SessionEvent::kNoApp) {
      ASSERT_LT(agg.events[i].app, agg.apps.size());
      EXPECT_FALSE(agg.detail(agg.events[i]).empty());
    }
  }
  EXPECT_TRUE(saw_both_tenants[0]);
  EXPECT_TRUE(saw_both_tenants[1]);
}

SessionEvent event_at(double time_s, SessionEventKind kind, std::uint32_t app,
                      std::uint32_t tenant) {
  SessionEvent e;
  e.time_s = time_s;
  e.kind = kind;
  e.app = app;
  e.tenant = tenant;
  return e;
}

AppOutcome outcome_named(const std::string& name) {
  AppOutcome a;
  a.name = name;
  return a;
}

TEST(MultiTenant, MergeTenantLogsOnHandBuiltLogs) {
  SessionLog t0;
  t0.apps = {outcome_named("a0"), outcome_named("a1")};
  t0.events = {event_at(1.0, SessionEventKind::Arrival, 0, 0),
               event_at(5.0, SessionEventKind::Placed, 1, 0),
               event_at(7.0, SessionEventKind::Reevaluation, SessionEvent::kNoApp, 0)};
  t0.reevaluations = 1;
  t0.reevaluations_adopted = 1;
  t0.tasks_migrated = 2;
  t0.rejected = 1;
  t0.total_runtime_s = 10.5;
  t0.measurement_wall_s = 0.25;
  t0.pairs_probed = 3;
  t0.pairs_volatile = 4;
  t0.pairs_predictable = 5;
  t0.pairs_unpredictable = 6;
  t0.pairs_changepoint = 7;
  t0.pairs_predicted = 8;

  SessionLog t1;
  t1.apps = {outcome_named("b0")};
  t1.events = {event_at(5.0, SessionEventKind::Arrival, 0, 1),
               event_at(5.0, SessionEventKind::Reevaluation, SessionEvent::kNoApp, 1),
               event_at(6.0, SessionEventKind::Departure, 0, 1)};
  t1.reevaluations = 10;
  t1.reevaluations_adopted = 20;
  t1.tasks_migrated = 30;
  t1.rejected = 40;
  t1.total_runtime_s = 1.5;
  t1.measurement_wall_s = 0.5;
  t1.pairs_probed = 50;
  t1.pairs_volatile = 60;
  t1.pairs_predictable = 70;
  t1.pairs_unpredictable = 80;
  t1.pairs_changepoint = 90;
  t1.pairs_predicted = 100;

  const MultiTenantLog merged = merge_tenant_logs({t0, t1});
  ASSERT_EQ(merged.tenants.size(), 2u);
  EXPECT_EQ(merged.tenants[0], t0);
  EXPECT_EQ(merged.tenants[1], t1);

  SessionLog want;
  want.apps = {outcome_named("a0"), outcome_named("a1"), outcome_named("b0")};
  // Tenant 0's 5.0 s event precedes tenant 1's two at the same instant; app
  // payloads of tenant 1 shift past tenant 0's two outcomes, kNoApp stays.
  want.events = {event_at(1.0, SessionEventKind::Arrival, 0, 0),
                 event_at(5.0, SessionEventKind::Placed, 1, 0),
                 event_at(5.0, SessionEventKind::Arrival, 2, 1),
                 event_at(5.0, SessionEventKind::Reevaluation, SessionEvent::kNoApp, 1),
                 event_at(6.0, SessionEventKind::Departure, 2, 1),
                 event_at(7.0, SessionEventKind::Reevaluation, SessionEvent::kNoApp, 0)};
  want.reevaluations = 11;
  want.reevaluations_adopted = 21;
  want.tasks_migrated = 32;
  want.rejected = 41;
  want.total_runtime_s = 12.0;
  want.measurement_wall_s = 0.75;
  want.pairs_probed = 53;
  want.pairs_volatile = 64;
  want.pairs_predictable = 75;
  want.pairs_unpredictable = 86;
  want.pairs_changepoint = 97;
  want.pairs_predicted = 108;
  EXPECT_EQ(merged.aggregate, want);
  EXPECT_EQ(merged.aggregate.detail(merged.aggregate.events[4]), "b0");
}

TEST(MultiTenant, DeterministicAcrossRuns) {
  const auto run_once = [] {
    cloud::Cloud cloud(cloud::ec2_2013(), 77);
    const auto vms_a = cloud.allocate_vms(5);
    const auto vms_b = cloud.allocate_vms(5);
    workload::GeneratorArrivalStream stream_a(300, small_stream_config(5, 30.0));
    workload::GeneratorArrivalStream stream_b(400, small_stream_config(5, 30.0));
    std::vector<TenantSpec> tenants(2);
    tenants[0].vms = vms_a;
    tenants[0].config = fast_config();
    tenants[0].stream = &stream_a;
    tenants[1].vms = vms_b;
    tenants[1].config = fast_config();
    tenants[1].stream = &stream_b;
    MultiTenantSession session(cloud, std::move(tenants));
    return session.run();
  };
  const MultiTenantLog r1 = run_once();
  const MultiTenantLog r2 = run_once();
  ASSERT_EQ(r1.aggregate.events.size(), r2.aggregate.events.size());
  for (std::size_t i = 0; i < r1.aggregate.events.size(); ++i) {
    EXPECT_EQ(r1.aggregate.events[i].time_s, r2.aggregate.events[i].time_s);
    EXPECT_EQ(r1.aggregate.events[i].kind, r2.aggregate.events[i].kind);
    EXPECT_EQ(r1.aggregate.events[i].tenant, r2.aggregate.events[i].tenant);
    EXPECT_EQ(r1.aggregate.events[i].app, r2.aggregate.events[i].app);
  }
  EXPECT_EQ(r1.aggregate.total_runtime_s, r2.aggregate.total_runtime_s);
}

TEST(MultiTenant, MeasuredTenantsDrawSharedEpochs) {
  // With the measured view on, both tenants probe the shared cloud; each
  // draws epochs from the shared counter, so both sessions account probes
  // and the cloud's epoch counter advances past its initial value.
  cloud::Cloud cloud(cloud::ec2_2013(), 5);
  const auto vms_a = cloud.allocate_vms(4);
  const auto vms_b = cloud.allocate_vms(4);
  workload::GeneratorArrivalStream stream_a(500, small_stream_config(2, 20.0));
  workload::GeneratorArrivalStream stream_b(600, small_stream_config(2, 20.0));
  std::vector<TenantSpec> tenants(2);
  for (std::size_t i = 0; i < 2; ++i) {
    tenants[i].config.choreo.plan.train.bursts = 3;
    tenants[i].config.choreo.plan.train.burst_length = 60;
    tenants[i].config.choreo.reevaluate_period_s = 300.0;
  }
  tenants[0].vms = vms_a;
  tenants[0].stream = &stream_a;
  tenants[1].vms = vms_b;
  tenants[1].stream = &stream_b;
  MultiTenantSession session(cloud, std::move(tenants));
  const MultiTenantLog result = session.run();
  for (const SessionLog& log : result.tenants) {
    EXPECT_GT(log.pairs_probed, 0u);
    EXPECT_GT(log.measurement_wall_s, 0.0);
  }
  // Both tenants' measurement cycles consumed distinct shared epochs.
  EXPECT_GT(cloud.next_epoch(), 4u);
}

}  // namespace
}  // namespace choreo::core
