#include <gtest/gtest.h>

#include "core/runtime.h"
#include "util/units.h"
#include "workload/generator.h"
#include "workload/stream.h"

namespace choreo::core {
namespace {

using units::gigabytes;

/// Tasks need 3 cores each (two do not fit one 4-core machine), so every
/// app has genuine network time — otherwise greedy co-locates the pair and
/// the app "finishes" instantly.
place::Application small_app(const std::string& name, double arrival_s,
                             double cpu = 3.0, double bytes = gigabytes(1)) {
  place::Application app;
  app.name = name;
  app.cpu_demand = {cpu, cpu};
  app.traffic_bytes = DoubleMatrix(2, 2, 0.0);
  app.traffic_bytes(0, 1) = bytes;
  app.arrival_s = arrival_s;
  return app;
}

/// One single-tenant session over a materialized workload.
SessionLog run_session(cloud::Cloud& cloud, const std::vector<cloud::VmId>& vms,
                       const ControllerConfig& config,
                       const std::vector<place::Application>& apps) {
  workload::VectorArrivalStream stream(apps);
  return SessionRuntime(cloud, vms, config).run(stream);
}

class ControllerTest : public ::testing::Test {
 protected:
  ControllerTest() : cloud_(cloud::ec2_2013(), 99), vms_(cloud_.allocate_vms(6)) {
    config_.choreo.plan.train.bursts = 5;
    config_.choreo.plan.train.burst_length = 100;
    config_.choreo.use_measured_view = false;  // fast, deterministic
    config_.choreo.reevaluate_period_s = 30.0;
  }

  cloud::Cloud cloud_;
  std::vector<cloud::VmId> vms_;
  ControllerConfig config_;
};

TEST_F(ControllerTest, PlacesAndFinishesAllApps) {
  const std::vector<place::Application> apps{
      small_app("a", 0.0), small_app("b", 5.0), small_app("c", 10.0)};
  const SessionLog log = run_session(cloud_, vms_, config_, apps);
  ASSERT_EQ(log.apps.size(), 3u);
  for (const AppOutcome& a : log.apps) {
    EXPECT_GE(a.placed_s, a.arrival_s);
    EXPECT_GT(a.finished_s, a.placed_s);
    EXPECT_TRUE(a.placement.complete());
  }
  EXPECT_GT(log.total_runtime_s, 0.0);
}

TEST_F(ControllerTest, QueuesWhenClusterFull) {
  // 6 machines x 4 cores = 24 cores. Three 8-core apps fill it; the fourth
  // must wait for a departure.
  std::vector<place::Application> apps;
  for (int i = 0; i < 4; ++i) {
    apps.push_back(small_app("fat" + std::to_string(i), 0.0, 4.0, gigabytes(4)));
  }
  const SessionLog log = run_session(cloud_, vms_, config_, apps);
  bool deferred = false;
  for (const SessionEvent& e : log.events) {
    deferred |= (e.kind == SessionEventKind::Deferred);
  }
  EXPECT_TRUE(deferred);
  // The deferred app still completes, strictly after some departure.
  const AppOutcome& last = log.apps.back();
  EXPECT_GT(last.placed_s, last.arrival_s);
  EXPECT_GT(last.finished_s, last.placed_s);
}

TEST_F(ControllerTest, ReevaluatesPeriodically) {
  // One long-running app so several re-evaluation ticks fire.
  const std::vector<place::Application> apps{
      small_app("long", 0.0, 3.0, gigabytes(80))};  // minutes even at vswitch speed
  const SessionLog log = run_session(cloud_, vms_, config_, apps);
  EXPECT_GE(log.reevaluations, 3u);
}

TEST_F(ControllerTest, RejectsUnsortedArrivals) {
  const std::vector<place::Application> apps{small_app("late", 10.0),
                                             small_app("early", 0.0)};
  EXPECT_THROW(run_session(cloud_, vms_, config_, apps), PreconditionError);
}

TEST_F(ControllerTest, RejectsDeterministicallyWhenQueueingDisabledAndFull) {
  // 6 machines x 4 cores = 24 cores; three 8-core apps fill the cluster, so
  // the fourth arrival cannot fit. With queueing disabled it must fail
  // loudly and deterministically: a "rejected" event, the app left unplaced,
  // and the session completing normally for everyone else.
  config_.queue_when_full = false;
  std::vector<place::Application> apps;
  for (int i = 0; i < 4; ++i) {
    apps.push_back(small_app("fat" + std::to_string(i), 0.0, 4.0));
  }
  const SessionLog log = run_session(cloud_, vms_, config_, apps);

  EXPECT_EQ(log.rejected, 1u);
  std::size_t rejected_events = 0;
  for (const SessionEvent& e : log.events) {
    if (e.kind == SessionEventKind::Rejected) {
      ++rejected_events;
      EXPECT_EQ(log.detail(e), "fat3");
    }
    EXPECT_NE(e.kind, SessionEventKind::Deferred);  // rejection never silently queues
  }
  EXPECT_EQ(rejected_events, 1u);

  const AppOutcome& rejected = log.apps.back();
  EXPECT_TRUE(rejected.rejected);
  EXPECT_LT(rejected.placed_s, 0.0);
  EXPECT_LT(rejected.finished_s, 0.0);
  EXPECT_FALSE(rejected.placement.complete());
  for (std::size_t i = 0; i + 1 < log.apps.size(); ++i) {
    EXPECT_FALSE(log.apps[i].rejected);
    EXPECT_GE(log.apps[i].finished_s, 0.0);
  }

  // Deterministic: an identical session rejects the identical app.
  cloud::Cloud cloud2(cloud::ec2_2013(), 99);
  const auto vms2 = cloud2.allocate_vms(6);
  const SessionLog log2 = run_session(cloud2, vms2, config_, apps);
  EXPECT_EQ(log2.rejected, 1u);
  EXPECT_TRUE(log2.apps.back().rejected);
  EXPECT_DOUBLE_EQ(log.total_runtime_s, log2.total_runtime_s);
}

TEST_F(ControllerTest, QueuedAppsRetryInFifoOrderAtEachDeparture) {
  // 6 machines x 4 cores = 24 cores; every app needs 8 cores, so exactly
  // three run at a time. Apps fat0-2 fill the cluster at t=0 with distinct
  // transfer sizes (=> distinct, strictly ordered departures); fat3-5 arrive
  // while it is full and must queue. Each departure frees room for exactly
  // one queued app, so the queue must drain one per departure, in FIFO
  // arrival order, with placed_s equal to the departure instant that freed
  // the capacity.
  std::vector<place::Application> apps;
  for (int i = 0; i < 3; ++i) {
    apps.push_back(small_app("fat" + std::to_string(i), 0.0, 4.0,
                             gigabytes(2.0 * (i + 1))));
  }
  for (int i = 3; i < 6; ++i) {
    apps.push_back(
        small_app("fat" + std::to_string(i), static_cast<double>(i - 2), 4.0,
                  gigabytes(3)));
  }
  const SessionLog log = run_session(cloud_, vms_, config_, apps);

  // All six deferred-or-not apps finish.
  for (const AppOutcome& a : log.apps) {
    EXPECT_FALSE(a.rejected);
    EXPECT_GE(a.finished_s, 0.0);
  }
  // fat3..fat5 were each deferred exactly once, in arrival order.
  std::vector<std::uint32_t> deferred_order;
  for (const SessionEvent& e : log.events) {
    if (e.kind == SessionEventKind::Deferred) deferred_order.push_back(e.app);
  }
  ASSERT_EQ(deferred_order.size(), 3u);
  EXPECT_EQ(deferred_order, (std::vector<std::uint32_t>{3, 4, 5}));

  // FIFO drain: the queued apps are placed in arrival order, strictly one
  // per departure, and each placed_s coincides with a departure event.
  std::vector<double> departures;
  for (const SessionEvent& e : log.events) {
    if (e.kind == SessionEventKind::Departure) departures.push_back(e.time_s);
  }
  for (std::size_t i = 3; i < 6; ++i) {
    EXPECT_GT(log.apps[i].placed_s, log.apps[i].arrival_s);
    if (i > 3) {
      EXPECT_GT(log.apps[i].placed_s, log.apps[i - 1].placed_s);
    }
    bool at_departure = false;
    for (double t : departures) at_departure |= (t == log.apps[i].placed_s);
    EXPECT_TRUE(at_departure) << "fat" << i << " placed off-departure at "
                              << log.apps[i].placed_s;
  }
  // The first queued app gets the first freed slot: fat0 has the smallest
  // transfer, so fat3's retry time is exactly fat0's departure.
  EXPECT_DOUBLE_EQ(log.apps[3].placed_s, log.apps[0].finished_s);
}

TEST_F(ControllerTest, RejectionAccountingExactUnderChurn) {
  // queue_when_full = false under churn: arrivals land both while the
  // cluster is full (rejected) and after departures freed it (placed).
  // Rejection accounting must be exact: every rejected app has exactly one
  // "rejected" event, placed_s/finished_s stay negative, nothing is ever
  // deferred, and everyone else completes normally.
  config_.queue_when_full = false;
  std::vector<place::Application> apps;
  // Wave 1 fills the cluster at t=0 (3 x 8 cores = 24).
  for (int i = 0; i < 3; ++i) {
    apps.push_back(small_app("w1-" + std::to_string(i), 0.0, 4.0, gigabytes(4)));
  }
  // These arrive while full: rejected.
  apps.push_back(small_app("full-a", 1.0, 4.0));
  apps.push_back(small_app("full-b", 2.0, 4.0));
  // This arrives long after wave 1 departed: placed.
  apps.push_back(small_app("late", 4000.0, 4.0));
  const SessionLog log = run_session(cloud_, vms_, config_, apps);

  std::size_t rejected_outcomes = 0;
  for (const AppOutcome& a : log.apps) {
    if (a.rejected) {
      ++rejected_outcomes;
      EXPECT_LT(a.placed_s, 0.0);
      EXPECT_LT(a.finished_s, 0.0);
      EXPECT_FALSE(a.placement.complete());
    } else {
      EXPECT_DOUBLE_EQ(a.placed_s, a.arrival_s);  // never queued, never late
      EXPECT_GT(a.finished_s, a.placed_s);
    }
  }
  EXPECT_EQ(rejected_outcomes, 2u);
  EXPECT_EQ(log.rejected, 2u);

  std::size_t rejected_events = 0;
  for (const SessionEvent& e : log.events) {
    EXPECT_NE(e.kind, SessionEventKind::Deferred);
    if (e.kind == SessionEventKind::Rejected) ++rejected_events;
  }
  EXPECT_EQ(rejected_events, 2u);
  EXPECT_TRUE(log.apps[3].rejected);
  EXPECT_TRUE(log.apps[4].rejected);
  EXPECT_FALSE(log.apps[5].rejected);
}

TEST_F(ControllerTest, SessionWithTraceWorkload) {
  Rng rng(11);
  workload::GeneratorConfig gen;
  gen.min_tasks = 3;
  gen.max_tasks = 5;
  gen.max_cpu = 1.5;
  std::vector<place::Application> apps;
  double t = 0.0;
  for (int i = 0; i < 5; ++i) {
    place::Application app = workload::generate_app(rng, gen);
    app.arrival_s = t;
    apps.push_back(std::move(app));
    t += rng.uniform(5.0, 40.0);
  }
  const SessionLog log = run_session(cloud_, vms_, config_, apps);
  EXPECT_EQ(log.apps.size(), 5u);
  for (const AppOutcome& a : log.apps) EXPECT_GE(a.finished_s, 0.0);
  // The event stream is time-ordered.
  for (std::size_t i = 1; i < log.events.size(); ++i) {
    EXPECT_LE(log.events[i - 1].time_s, log.events[i].time_s + 1e-6);
  }
}

}  // namespace
}  // namespace choreo::core
