// The metrics registry's determinism contract: counter adds and histogram
// bucket increments are commutative integer ops, so merged snapshot totals
// are bit-identical for every thread count and every interleaving — pinned
// here both on a synthetic hammer and on the real sharded control plane at
// {1,2,4,8} worker threads. Histogram quantiles must land within one log
// bucket of the exact sorted-sample quantile (the resolution bound
// tbl_serve_qps reports through).
//
// By convention, wall-clock-derived metrics carry "wall" in their name and
// are excluded from cross-thread comparisons (docs/ARCHITECTURE.md).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cloud/cloud.h"
#include "cloud/profile.h"
#include "core/sharded.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "util/rng.h"
#include "workload/stream.h"

namespace choreo::obs {
namespace {

TEST(ObsRegistry, CounterTotalsAreExactForEveryThreadCount) {
  // The same multiset of adds, partitioned across 1, 2, 4, 8 threads, must
  // merge to the same exact total (integer adds commute).
  constexpr std::size_t kOps = 40000;
  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < kOps; ++i) expected += (i % 13) + 1;

  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    Registry registry(4);
    const Counter ctr = registry.counter("hammer.ops");
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        for (std::size_t i = t; i < kOps; i += threads) {
          ctr.add((i % 13) + 1, t % registry.shards());
        }
      });
    }
    for (auto& th : pool) th.join();

    const MetricsSnapshot snap = registry.snapshot();
    const auto* v = snap.find_counter("hammer.ops");
    ASSERT_NE(v, nullptr) << threads << " threads";
    EXPECT_EQ(v->value, expected) << threads << " threads";
  }
}

TEST(ObsRegistry, HistogramMergeIsBitIdenticalAcrossThreadCounts) {
  // Same samples, any partition: bucket counts (and thus every derived
  // quantile) and the CAS-maintained min/max merge bit-identically.
  constexpr std::size_t kSamples = 20000;
  std::vector<double> samples(kSamples);
  Rng rng(7);
  for (double& s : samples) s = std::exp(rng.uniform(-4.0, 9.0));

  MetricsSnapshot::HistValue ref;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    Registry registry(8);
    const Hist hist = registry.histogram("hammer.sample");
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        for (std::size_t i = t; i < kSamples; i += threads) {
          hist.observe(samples[i], t % registry.shards());
        }
      });
    }
    for (auto& th : pool) th.join();

    const MetricsSnapshot snap = registry.snapshot();
    const auto* h = snap.find_hist("hammer.sample");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count, kSamples);
    if (threads == 1) {
      ref = *h;
      continue;
    }
    EXPECT_EQ(h->min, ref.min) << threads << " threads";
    EXPECT_EQ(h->max, ref.max) << threads << " threads";
    EXPECT_EQ(h->p50, ref.p50) << threads << " threads";
    EXPECT_EQ(h->p90, ref.p90) << threads << " threads";
    EXPECT_EQ(h->p99, ref.p99) << threads << " threads";
  }
}

TEST(ObsRegistry, HistogramQuantilesLandWithinOneBucketOfExact) {
  Rng rng(42);
  Registry registry(1);
  const Hist hist = registry.histogram("lat");
  std::vector<double> samples;
  for (std::size_t i = 0; i < 5000; ++i) {
    // Lognormal-ish latencies spanning several octaves, like a tail-heavy
    // service latency distribution.
    const double v = std::exp(rng.uniform(0.0, 8.0));
    samples.push_back(v);
    hist.observe(v);
  }
  std::sort(samples.begin(), samples.end());

  const MetricsSnapshot snap = registry.snapshot();
  const auto* h = snap.find_hist("lat");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->min, samples.front());
  EXPECT_EQ(h->max, samples.back());

  const auto exact = [&](double q) {
    const std::size_t rank =
        static_cast<std::size_t>(std::ceil(q * static_cast<double>(samples.size())));
    return samples[rank == 0 ? 0 : rank - 1];
  };
  for (const auto& [q, got] :
       {std::pair<double, double>{0.50, h->p50}, {0.90, h->p90}, {0.99, h->p99}}) {
    const std::size_t bucket_got = Hist::bucket_of(got);
    const std::size_t bucket_exact = Hist::bucket_of(exact(q));
    EXPECT_LE(bucket_got, bucket_exact + 1) << "q=" << q;
    EXPECT_LE(bucket_exact, bucket_got + 1) << "q=" << q;
  }
}

// ---------------------------------------------------------------------------
// the real battery: a multi-tenant sharded session with the observability
// plane attached must produce bit-identical metric totals at every worker
// thread count.

struct World {
  std::unique_ptr<cloud::Cloud> cloud;
  std::vector<std::unique_ptr<workload::ArrivalStream>> owned;
  std::vector<core::TenantSpec> tenants;
};

/// Three generated tenants, observers pre-attached: tenant i records into
/// lane 1+i / shard (1+i) % shards, the same assignment for every thread
/// count (shard identity derives from the tenant, never the worker).
World build_world(Observer root, std::uint32_t shards) {
  World w;
  w.cloud = std::make_unique<cloud::Cloud>(cloud::ec2_2013(), 97);
  for (std::size_t i = 0; i < 3; ++i) {
    core::TenantSpec tenant;
    tenant.vms = w.cloud->allocate_vms(4);
    tenant.config.choreo.plan.train.bursts = 3;
    tenant.config.choreo.plan.train.burst_length = 60;
    tenant.config.choreo.reevaluate_period_s = 40.0 + 15.0 * static_cast<double>(i);
    tenant.config.batch.enabled = true;
    tenant.config.choreo.obs =
        root.with_lane(1 + static_cast<std::uint32_t>(i),
                       (1 + static_cast<std::uint32_t>(i)) % shards);

    workload::GeneratorArrivalStream::Config cfg;
    cfg.gen.min_tasks = 3;
    cfg.gen.max_tasks = 5;
    cfg.gen.max_cpu = 2.0;
    cfg.gen.median_transfer_bytes = 300e6;
    cfg.mean_gap_s = 30.0;
    cfg.max_apps = 6;
    w.owned.push_back(
        std::make_unique<workload::GeneratorArrivalStream>(500 + i, cfg));
    tenant.stream = w.owned.back().get();
    w.tenants.push_back(std::move(tenant));
  }
  return w;
}

std::map<std::string, std::uint64_t> run_battery(unsigned threads) {
  constexpr std::uint32_t kShards = 4;
  Registry registry(kShards);
  Observer root;
  root.metrics = &registry;

  World w = build_world(root, kShards);
  core::ShardedOptions opts;
  opts.threads = threads;
  opts.obs = root;
  core::ShardedSession session(*w.cloud, std::move(w.tenants), opts);
  session.run();

  std::map<std::string, std::uint64_t> totals;
  for (const auto& c : registry.snapshot().counters) {
    // Scheduler-timing metrics are nondeterministic by nature and carry
    // "wall" in their name; everything else must merge bit-identically.
    if (c.name.find("wall") != std::string::npos) continue;
    totals[c.name] = c.value;
  }
  return totals;
}

TEST(ObsRegistry, ShardedBatteryTotalsAreBitIdenticalAcrossThreadCounts) {
  const auto ref = run_battery(1);
  ASSERT_FALSE(ref.empty());
  // The battery actually drove the planes it claims to compare.
  EXPECT_GT(ref.at("measure.cycles"), 0u);
  EXPECT_GT(ref.at("place.apps"), 0u);
  EXPECT_GT(ref.at("place.candidates_walked"), 0u);
  EXPECT_GT(ref.at("session.arrivals"), 0u);

  for (const unsigned threads : {2u, 4u, 8u}) {
    const auto got = run_battery(threads);
    EXPECT_EQ(got, ref) << threads << " threads";
  }
}

}  // namespace
}  // namespace choreo::obs
