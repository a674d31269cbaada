// Edge cases of the sharded control plane: degenerate tenant/thread shapes
// (single tenant, one thread, more threads than tenants), a tenant whose
// stream never produces an arrival, and tenants that all hit the same
// epoch-boundary instant. The reference is every tenant run as a standalone
// SessionRuntime, the logs reduced by merge_tenant_logs.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/sharded.h"
#include "util/units.h"
#include "workload/stream.h"

namespace choreo::core {
namespace {

using units::gigabytes;

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

/// Builds one tenant per workload vector, four VMs each, on a fresh cloud
/// of `seed`, and returns what `run` makes of them.
template <typename Run>
MultiTenantLog with_tenants(std::uint64_t seed, const TenantApps& per_tenant,
                            double period_s, Run&& run) {
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
  return run(cloud, std::move(tenants));
}

MultiTenantLog run_standalone(std::uint64_t seed, const TenantApps& per_tenant,
                              double period_s) {
  const auto standalone = [](const cloud::Cloud& cloud, std::vector<TenantSpec> tenants) {
    std::vector<SessionLog> logs;
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      RuntimeOptions options;
      options.tenant = static_cast<std::uint32_t>(i);
      SessionRuntime runtime(cloud, tenants[i].vms, tenants[i].config, std::move(options));
      logs.push_back(runtime.run(*tenants[i].stream));
    }
    return merge_tenant_logs(std::move(logs));
  };
  return with_tenants(seed, per_tenant, period_s, standalone);
}

MultiTenantLog run_sharded(std::uint64_t seed, const TenantApps& per_tenant,
                           double period_s, unsigned threads) {
  const auto sharded = [threads](const cloud::Cloud& cloud, std::vector<TenantSpec> tenants) {
    ShardedOptions opts;
    opts.threads = threads;
    return ShardedSession(cloud, std::move(tenants), opts).run();
  };
  return with_tenants(seed, per_tenant, period_s, sharded);
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
  // thread finds the ready queue empty. Everything degenerates to the
  // standalone run.
  const TenantApps apps = busy_tenants(1);
  const MultiTenantLog standalone = run_standalone(5, apps, 60.0);
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    expect_multi_equal(standalone, run_sharded(5, apps, 60.0, threads),
                       "single threads=" + std::to_string(threads));
  }
}

TEST(ShardedEdges, MoreShardsThanTenants) {
  // More threads than tenants: some workers never get a tenant.
  const TenantApps apps = busy_tenants(3);
  const MultiTenantLog standalone = run_standalone(11, apps, 60.0);
  expect_multi_equal(standalone, run_sharded(11, apps, 60.0, 4), "threads>n");
  expect_multi_equal(standalone, run_sharded(11, apps, 60.0, 8), "threads>n wide");
}

TEST(ShardedEdges, TenantWithZeroArrivals) {
  // A tenant whose stream is empty still runs its initial measurement sweep
  // and finishes immediately; it must not stall a worker or change any
  // other tenant's log.
  TenantApps apps = busy_tenants(3);
  apps[1].clear();
  const MultiTenantLog standalone = run_standalone(23, apps, 60.0);
  EXPECT_TRUE(standalone.tenants[1].apps.empty());
  EXPECT_TRUE(standalone.tenants[1].events.empty());
  expect_multi_equal(standalone, run_sharded(23, apps, 60.0, 2), "zero-arrival");
  expect_multi_equal(standalone, run_sharded(23, apps, 60.0, 8), "zero-arrival wide");
}

TEST(ShardedEdges, TenantsFinishingAtTheSameEpochBoundary) {
  // Every tenant holds a long-running app across the first re-evaluation
  // deadline and receives chat arrivals exactly at it: at t == period the
  // whole fleet measures and re-evaluates at one instant, and the final
  // departures land on the boundary together, so the merged log's
  // (time, tenant) order is tested on a long run of equal times.
  TenantApps per_tenant;
  for (std::size_t i = 0; i < 4; ++i) {
    std::vector<place::Application> apps;
    apps.push_back(bulk_app("bulk" + std::to_string(i), 0.0));
    apps.push_back(chat_app("edge" + std::to_string(i), 60.0));   // == period
    apps.push_back(chat_app("edge2" + std::to_string(i), 60.0));  // duplicate
    per_tenant.push_back(std::move(apps));
  }
  const MultiTenantLog standalone = run_standalone(29, per_tenant, 60.0);
  std::size_t boundary_events = 0;
  for (const SessionEvent& e : standalone.aggregate.events) {
    if (e.time_s == 60.0) ++boundary_events;
  }
  EXPECT_GT(boundary_events, 8u);  // the instant is genuinely contended
  expect_multi_equal(standalone, run_sharded(29, per_tenant, 60.0, 4), "boundary");
  expect_multi_equal(standalone, run_sharded(29, per_tenant, 60.0, 2),
                     "boundary two threads");
}

}  // namespace
}  // namespace choreo::core
