// Edge cases of the sharded control plane: degenerate tenant/thread shapes
// (single tenant, one thread, more threads than tenants),
// a tenant whose stream never produces an arrival, tenants that all hit the
// same epoch-boundary instant, and the EpochArbiter's grant protocol probed
// directly (order, bound gating, cascades, completion, abort).

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/sharded.h"
#include "oracles/multi_tenant_session.h"
#include "util/units.h"
#include "workload/stream.h"

namespace choreo::core {
namespace {

using units::gigabytes;

// ---- EpochArbiter protocol --------------------------------------------------

std::function<std::uint64_t()> counter_draw(std::uint64_t& next) {
  return [&next] { return next++; };
}

/// Checks out every tenant, as the first workers would: in index order,
/// with no epoch yet.
void check_out_all(EpochArbiter& arb, std::size_t tenants) {
  for (std::size_t i = 0; i < tenants; ++i) {
    const auto ticket = arb.acquire();
    ASSERT_TRUE(ticket.has_value());
    EXPECT_EQ(ticket->tenant, i);
    EXPECT_FALSE(ticket->epoch.has_value());
  }
}

TEST(EpochArbiter, GrantsFollowTimeThenTenantOrder) {
  std::uint64_t next = 1;
  EpochArbiter arb(2, counter_draw(next));
  check_out_all(arb, 2);
  // Tenant 1 asks first but tenant 0's bound (-inf) still allows an earlier
  // draw: the request parks.
  EXPECT_FALSE(arb.request(1, 5.0, 10.0).has_value());
  // Tenant 0 advances past 5.0: tenant 1's draw is now provably next, and
  // tenant 1 is ready again with its epoch.
  arb.set_bound(0, 6.0);
  const auto ticket = arb.acquire();
  ASSERT_TRUE(ticket.has_value());
  EXPECT_EQ(ticket->tenant, 1u);
  ASSERT_TRUE(ticket->epoch.has_value());
  EXPECT_EQ(*ticket->epoch, 1u);
  // Tenant 0 requests at its bound; tenant 1 now runs with bound 10.0.
  const auto second = arb.request(0, 6.0, 20.0);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, 2u);
  EXPECT_EQ(arb.grants(), 2u);
}

TEST(EpochArbiter, EqualTimesBreakTiesByTenantIndex) {
  std::uint64_t next = 1;
  EpochArbiter arb(3, counter_draw(next));
  check_out_all(arb, 3);
  arb.set_bound(2, 100.0);  // tenant 2 is far in the future
  // Tenant 1 registers at t=7 first, then tenant 0 at the same instant:
  // tenant 0 must draw first (the oracle advances the lowest index).
  EXPECT_FALSE(arb.request(1, 7.0, 9.0).has_value());
  const auto first = arb.request(0, 7.0, 8.0);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, 1u);
  // Granting tenant 0 re-publishes its post-bound (8.0 > 7.0), which
  // cascades the grant to tenant 1 in the same pass.
  const auto second = arb.acquire();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->tenant, 1u);
  ASSERT_TRUE(second->epoch.has_value());
  EXPECT_EQ(*second->epoch, 2u);
}

TEST(EpochArbiter, DoneTenantsStopGatingGrants) {
  std::uint64_t next = 1;
  EpochArbiter arb(2, counter_draw(next));
  check_out_all(arb, 2);
  EXPECT_FALSE(arb.request(1, 3.0, 4.0).has_value());
  arb.mark_done(0);  // tenant 0 will never draw: tenant 1 unblocks
  const auto ticket = arb.acquire();
  ASSERT_TRUE(ticket.has_value());
  EXPECT_EQ(ticket->tenant, 1u);
  ASSERT_TRUE(ticket->epoch.has_value());
  EXPECT_EQ(*ticket->epoch, 1u);
  arb.mark_done(1);
  EXPECT_FALSE(arb.acquire().has_value());  // every tenant is done
}

TEST(EpochArbiter, AbortWakesABlockedAcquire) {
  std::uint64_t next = 1;
  EpochArbiter arb(1, counter_draw(next));
  check_out_all(arb, 1);  // tenant 0 runs, so a second acquire must sleep
  std::optional<EpochArbiter::Ticket> got = EpochArbiter::Ticket{};
  std::thread waiter([&] { got = arb.acquire(); });
  while (arb.idle_waits() == 0) std::this_thread::yield();  // waiter is asleep
  arb.abort();
  waiter.join();
  EXPECT_FALSE(got.has_value());
}

// ---- degenerate session shapes ---------------------------------------------

ControllerConfig fast_config(double period_s = 60.0) {
  ControllerConfig config;
  config.choreo.use_measured_view = false;
  config.choreo.reevaluate_period_s = period_s;
  return config;
}

place::Application chat_app(const std::string& name, double arrival_s) {
  place::Application app;
  app.name = name;
  app.arrival_s = arrival_s;
  app.cpu_demand = {0.5, 0.5};
  app.traffic_bytes = DoubleMatrix(2, 2, 0.0);
  app.traffic_bytes(0, 1) = 1e3;
  return app;
}

place::Application bulk_app(const std::string& name, double arrival_s) {
  place::Application app;
  app.name = name;
  app.arrival_s = arrival_s;
  app.cpu_demand = {1.0, 1.0, 1.0};
  app.traffic_bytes = DoubleMatrix(3, 3, 0.0);
  app.traffic_bytes(0, 1) = gigabytes(4.0);
  app.traffic_bytes(1, 2) = gigabytes(2.0);
  return app;
}

void expect_multi_equal(const MultiTenantLog& ref, const MultiTenantLog& got,
                        const std::string& label) {
  ASSERT_EQ(ref.tenants.size(), got.tenants.size()) << label;
  for (std::size_t t = 0; t < ref.tenants.size(); ++t) {
    const SessionLog& a = ref.tenants[t];
    const SessionLog& b = got.tenants[t];
    const std::string tag = label + " tenant " + std::to_string(t);
    ASSERT_EQ(a.events.size(), b.events.size()) << tag;
    for (std::size_t i = 0; i < a.events.size(); ++i) {
      ASSERT_EQ(a.events[i].time_s, b.events[i].time_s) << tag << " event " << i;
      ASSERT_EQ(a.events[i].kind, b.events[i].kind) << tag << " event " << i;
      ASSERT_EQ(a.events[i].app, b.events[i].app) << tag << " event " << i;
    }
    ASSERT_EQ(a.apps.size(), b.apps.size()) << tag;
    for (std::size_t i = 0; i < a.apps.size(); ++i) {
      ASSERT_EQ(a.apps[i].placed_s, b.apps[i].placed_s) << tag << " app " << i;
      ASSERT_EQ(a.apps[i].finished_s, b.apps[i].finished_s) << tag << " app " << i;
      ASSERT_EQ(a.apps[i].placement.machine_of_task,
                b.apps[i].placement.machine_of_task)
          << tag << " app " << i;
    }
    EXPECT_EQ(a.total_runtime_s, b.total_runtime_s) << tag;
    EXPECT_EQ(a.measurement_wall_s, b.measurement_wall_s) << tag;
    EXPECT_EQ(a.reevaluations, b.reevaluations) << tag;
    EXPECT_EQ(a.tasks_migrated, b.tasks_migrated) << tag;
  }
  ASSERT_EQ(ref.aggregate.events.size(), got.aggregate.events.size()) << label;
  EXPECT_EQ(ref.aggregate.total_runtime_s, got.aggregate.total_runtime_s) << label;
}

/// Workload vectors per tenant, rebuilt identically for each run.
using TenantApps = std::vector<std::vector<place::Application>>;

MultiTenantLog run_oracle(std::uint64_t seed, const TenantApps& per_tenant,
                          double period_s) {
  cloud::Cloud cloud(cloud::ec2_2013(), seed);
  std::vector<std::unique_ptr<workload::VectorArrivalStream>> streams;
  std::vector<TenantSpec> tenants;
  for (const auto& apps : per_tenant) {
    TenantSpec t;
    t.vms = cloud.allocate_vms(4);
    t.config = fast_config(period_s);
    streams.push_back(std::make_unique<workload::VectorArrivalStream>(apps));
    t.stream = streams.back().get();
    tenants.push_back(std::move(t));
  }
  MultiTenantSession session(cloud, std::move(tenants));
  return session.run();
}

MultiTenantLog run_sharded(std::uint64_t seed, const TenantApps& per_tenant,
                           double period_s, unsigned threads) {
  cloud::Cloud cloud(cloud::ec2_2013(), seed);
  std::vector<std::unique_ptr<workload::VectorArrivalStream>> streams;
  std::vector<TenantSpec> tenants;
  for (const auto& apps : per_tenant) {
    TenantSpec t;
    t.vms = cloud.allocate_vms(4);
    t.config = fast_config(period_s);
    streams.push_back(std::make_unique<workload::VectorArrivalStream>(apps));
    t.stream = streams.back().get();
    tenants.push_back(std::move(t));
  }
  ShardedOptions opts;
  opts.threads = threads;
  ShardedSession session(cloud, std::move(tenants), opts);
  return session.run();
}

TenantApps busy_tenants(std::size_t count) {
  TenantApps per_tenant;
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<place::Application> apps;
    apps.push_back(bulk_app("bulk" + std::to_string(i), 0.0));
    apps.push_back(chat_app("chatA" + std::to_string(i), 30.0));
    apps.push_back(chat_app("chatB" + std::to_string(i), 30.0));  // duplicate instant
    apps.push_back(chat_app("chatC" + std::to_string(i), 90.0));
    per_tenant.push_back(std::move(apps));
  }
  return per_tenant;
}

TEST(ShardedEdges, SingleTenantEveryShape) {
  // One tenant: one thread, then more threads than tenants, so every extra
  // thread finds the ready queue empty. Everything degenerates to the oracle
  // schedule.
  const TenantApps apps = busy_tenants(1);
  const MultiTenantLog oracle = run_oracle(5, apps, 60.0);
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    expect_multi_equal(oracle, run_sharded(5, apps, 60.0, threads),
                       "single threads=" + std::to_string(threads));
  }
}

TEST(ShardedEdges, MoreShardsThanTenants) {
  // More threads than tenants: some workers never get a tenant.
  const TenantApps apps = busy_tenants(3);
  const MultiTenantLog oracle = run_oracle(11, apps, 60.0);
  expect_multi_equal(oracle, run_sharded(11, apps, 60.0, 4), "threads>n");
  expect_multi_equal(oracle, run_sharded(11, apps, 60.0, 8), "threads>n wide");
}

TEST(ShardedEdges, TenantWithZeroArrivals) {
  // A tenant whose stream is empty still runs its initial measurement sweep
  // (drawing its pre-assigned epoch) and finishes immediately; it must not
  // stall the arbiter or shift any other tenant's draws.
  TenantApps apps = busy_tenants(3);
  apps[1].clear();
  const MultiTenantLog oracle = run_oracle(23, apps, 60.0);
  EXPECT_TRUE(oracle.tenants[1].apps.empty());
  EXPECT_TRUE(oracle.tenants[1].events.empty());
  expect_multi_equal(oracle, run_sharded(23, apps, 60.0, 2), "zero-arrival");
  expect_multi_equal(oracle, run_sharded(23, apps, 60.0, 8), "zero-arrival wide");
}

TEST(ShardedEdges, TenantsFinishingAtTheSameEpochBoundary) {
  // Every tenant holds a long-running app across the first re-evaluation
  // deadline and receives chat arrivals exactly at it: at t == period the
  // whole fleet hits MeasureRefresh + ReevalTick draws at one instant, so
  // the arbiter must deliver a long run of same-time grants in strict
  // tenant order, and the final departures land on the boundary together.
  TenantApps per_tenant;
  for (std::size_t i = 0; i < 4; ++i) {
    std::vector<place::Application> apps;
    apps.push_back(bulk_app("bulk" + std::to_string(i), 0.0));
    apps.push_back(chat_app("edge" + std::to_string(i), 60.0));   // == period
    apps.push_back(chat_app("edge2" + std::to_string(i), 60.0));  // duplicate
    per_tenant.push_back(std::move(apps));
  }
  const MultiTenantLog oracle = run_oracle(29, per_tenant, 60.0);
  std::size_t boundary_events = 0;
  for (const SessionEvent& e : oracle.aggregate.events) {
    if (e.time_s == 60.0) ++boundary_events;
  }
  EXPECT_GT(boundary_events, 8u);  // the instant is genuinely contended
  expect_multi_equal(oracle, run_sharded(29, per_tenant, 60.0, 4), "boundary");
  expect_multi_equal(oracle, run_sharded(29, per_tenant, 60.0, 2),
                     "boundary two threads");
}

}  // namespace
}  // namespace choreo::core
