// Differential pin for the sharded control plane: core::ShardedSession must
// reproduce the single-threaded MultiTenantSession bit-identically — every
// event, outcome, placement, and accounting double, per tenant and in the
// aggregate — for every thread count, over a randomized
// multi-tenant corpus that exercises bursty MMPP arrivals, streaming traces,
// queueing, rejection, and migration. Tenants share no mutable state, so the
// same corpus must also give each tenant the same log whatever order the
// tenants run in: one after another, in reverse, or interleaved on one clock.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/sharded.h"
#include "oracles/multi_tenant_session.h"
#include "util/kway.h"
#include "util/units.h"
#include "workload/generator.h"
#include "workload/stream.h"

namespace choreo::core {
namespace {

using units::gigabytes;

void expect_logs_identical(const SessionLog& ref, const SessionLog& got,
                           const std::string& label) {
  ASSERT_EQ(ref.events.size(), got.events.size()) << label;
  for (std::size_t i = 0; i < ref.events.size(); ++i) {
    const SessionEvent& a = ref.events[i];
    const SessionEvent& b = got.events[i];
    ASSERT_EQ(a.time_s, b.time_s) << label << " event " << i;
    ASSERT_EQ(a.kind, b.kind) << label << " event " << i;
    ASSERT_EQ(a.app, b.app) << label << " event " << i;
    ASSERT_EQ(a.tenant, b.tenant) << label << " event " << i;
    ASSERT_EQ(a.tasks_migrated, b.tasks_migrated) << label << " event " << i;
    ASSERT_EQ(a.adopted, b.adopted) << label << " event " << i;
  }
  ASSERT_EQ(ref.apps.size(), got.apps.size()) << label;
  for (std::size_t i = 0; i < ref.apps.size(); ++i) {
    const AppOutcome& a = ref.apps[i];
    const AppOutcome& b = got.apps[i];
    ASSERT_EQ(a.name, b.name) << label << " app " << i;
    ASSERT_EQ(a.arrival_s, b.arrival_s) << label << " app " << i;
    ASSERT_EQ(a.placed_s, b.placed_s) << label << " app " << i;
    ASSERT_EQ(a.finished_s, b.finished_s) << label << " app " << i;
    ASSERT_EQ(a.rejected, b.rejected) << label << " app " << i;
    ASSERT_EQ(a.placement.machine_of_task, b.placement.machine_of_task)
        << label << " app " << i;
  }
  EXPECT_EQ(ref.reevaluations, got.reevaluations) << label;
  EXPECT_EQ(ref.reevaluations_adopted, got.reevaluations_adopted) << label;
  EXPECT_EQ(ref.tasks_migrated, got.tasks_migrated) << label;
  EXPECT_EQ(ref.rejected, got.rejected) << label;
  EXPECT_EQ(ref.total_runtime_s, got.total_runtime_s) << label;
  EXPECT_EQ(ref.measurement_wall_s, got.measurement_wall_s) << label;
  EXPECT_EQ(ref.pairs_probed, got.pairs_probed) << label;
  EXPECT_EQ(ref.pairs_volatile, got.pairs_volatile) << label;
  EXPECT_EQ(ref.pairs_predictable, got.pairs_predictable) << label;
  EXPECT_EQ(ref.pairs_unpredictable, got.pairs_unpredictable) << label;
  EXPECT_EQ(ref.pairs_changepoint, got.pairs_changepoint) << label;
  EXPECT_EQ(ref.pairs_predicted, got.pairs_predicted) << label;
}

void expect_multi_identical(const MultiTenantLog& ref, const MultiTenantLog& got,
                            const std::string& label) {
  ASSERT_EQ(ref.tenants.size(), got.tenants.size()) << label;
  for (std::size_t i = 0; i < ref.tenants.size(); ++i) {
    expect_logs_identical(ref.tenants[i], got.tenants[i],
                          label + " tenant " + std::to_string(i));
    // Whole-log equality: a SessionLog field added later cannot escape the
    // pin by being missing from the field-wise listing above.
    EXPECT_TRUE(ref.tenants[i] == got.tenants[i]) << label << " tenant " << i;
  }
  expect_logs_identical(ref.aggregate, got.aggregate, label + " aggregate");
  EXPECT_TRUE(ref.aggregate == got.aggregate) << label << " aggregate";
}

void expect_stats_identical(const std::vector<SessionRuntime::Stats>& ref,
                            const std::vector<SessionRuntime::Stats>& got,
                            const std::string& label) {
  ASSERT_EQ(ref.size(), got.size()) << label;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(ref[i].events_processed, got[i].events_processed) << label << " " << i;
    EXPECT_EQ(ref[i].arrivals, got[i].arrivals) << label << " " << i;
    EXPECT_EQ(ref[i].placements, got[i].placements) << label << " " << i;
    EXPECT_EQ(ref[i].departures, got[i].departures) << label << " " << i;
    EXPECT_EQ(ref[i].retries, got[i].retries) << label << " " << i;
    EXPECT_EQ(ref[i].measure_cycles, got[i].measure_cycles) << label << " " << i;
    EXPECT_EQ(ref[i].reevaluations, got[i].reevaluations) << label << " " << i;
  }
}

/// A handful of hand-built applications per tenant with the control-plane
/// hazards the corpus must hit: same-instant duplicates (queue ties), fat
/// apps that saturate small slices (deferral / rejection), and chat apps
/// that depart at their placement instant.
std::vector<place::Application> draw_apps(Rng& rng, std::size_t count) {
  workload::GeneratorConfig gen;
  gen.min_tasks = 3;
  gen.max_tasks = 5;
  gen.min_cpu = 0.5;
  gen.max_cpu = 3.0;
  gen.median_transfer_bytes = 400e6;

  std::vector<place::Application> apps;
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    place::Application app;
    const double flavor = rng.uniform(0.0, 1.0);
    if (flavor < 0.15) {
      app.name = "chat" + std::to_string(i);
      app.cpu_demand = {0.5, 0.5};
      app.traffic_bytes = DoubleMatrix(2, 2, 0.0);
      app.traffic_bytes(0, 1) = 1e3;
    } else if (flavor < 0.45) {
      app.name = "fat" + std::to_string(i);
      app.cpu_demand = {4.0, 4.0, 4.0};
      app.traffic_bytes = DoubleMatrix(3, 3, 0.0);
      app.traffic_bytes(0, 1) = gigabytes(rng.uniform(3.0, 8.0));
      app.traffic_bytes(1, 2) = gigabytes(rng.uniform(1.0, 4.0));
    } else {
      app = workload::generate_app(rng, gen);
      app.name += std::to_string(i);
    }
    if (i > 0 && rng.chance(0.25)) {
      // t unchanged: simultaneous with the previous arrival.
    } else {
      t += rng.chance(0.15) ? rng.uniform(200.0, 900.0) : rng.uniform(1.0, 25.0);
    }
    app.arrival_s = t;
    apps.push_back(std::move(app));
  }
  return apps;
}

struct WorldSpec {
  std::uint64_t seed = 0;
  std::size_t tenants = 2;
  std::size_t vms_per_tenant = 4;
  std::size_t apps_per_tenant = 5;
  bool use_measured_view = false;
};

/// Everything one session run owns: the cloud, the per-tenant streams (and
/// the vectors / inner streams backing them), and the specs. Built fresh —
/// from nothing but the spec — for the oracle run and for every sharded
/// run, so each sees a bit-identical world and workload.
struct World {
  std::unique_ptr<cloud::Cloud> cloud;
  std::vector<std::vector<place::Application>> vectors;
  std::vector<std::unique_ptr<workload::ArrivalStream>> owned;
  std::vector<TenantSpec> tenants;
};

World build_world(const WorldSpec& spec) {
  World w;
  w.cloud = std::make_unique<cloud::Cloud>(cloud::ec2_2013(), spec.seed * 31 + 7);
  w.vectors.reserve(spec.tenants);  // VectorArrivalStream is non-owning
  for (std::size_t i = 0; i < spec.tenants; ++i) {
    TenantSpec tenant;
    tenant.name = "t";
    tenant.name += std::to_string(i);
    tenant.vms = w.cloud->allocate_vms(spec.vms_per_tenant);
    tenant.config.choreo.use_measured_view = spec.use_measured_view;
    tenant.config.choreo.plan.train.bursts = 3;
    tenant.config.choreo.plan.train.burst_length = 60;
    // Staggered periods: tenants re-evaluate out of phase, so draw requests
    // collide at unrelated instants instead of marching in lockstep. Every
    // third tenant migrates eagerly (zero cost, short period) so adopted
    // re-evaluations stay in the corpus; odd tenants reject instead of
    // queueing.
    tenant.config.choreo.reevaluate_period_s =
        (i % 3 == 0) ? 15.0 : 60.0 + 25.0 * static_cast<double>(i % 4);
    tenant.config.queue_when_full = (i % 2) == 0;
    if (i % 3 == 0) tenant.config.choreo.migration_cost_per_task_s = 0.0;

    switch (i % 3) {
      case 0: {
        // Hand-built hazards (duplicates, fat, chat) via a vector stream.
        Rng rng(spec.seed * 300 + i);
        w.vectors.push_back(draw_apps(rng, spec.apps_per_tenant));
        w.owned.push_back(
            std::make_unique<workload::VectorArrivalStream>(w.vectors.back()));
        tenant.stream = w.owned.back().get();
        break;
      }
      case 1: {
        // Poisson-generated stream.
        workload::GeneratorArrivalStream::Config cfg;
        cfg.gen.min_tasks = 3;
        cfg.gen.max_tasks = 5;
        cfg.gen.max_cpu = 2.0;
        cfg.gen.median_transfer_bytes = 300e6;
        cfg.mean_gap_s = 40.0;
        cfg.max_apps = spec.apps_per_tenant;
        w.owned.push_back(std::make_unique<workload::GeneratorArrivalStream>(
            spec.seed * 100 + i, cfg));
        tenant.stream = w.owned.back().get();
        break;
      }
      default: {
        // Bursty: the same generated payloads under an MMPP arrival process
        // (calm / 6x burst episodes).
        workload::GeneratorArrivalStream::Config cfg;
        cfg.gen.min_tasks = 3;
        cfg.gen.max_tasks = 4;
        cfg.gen.median_transfer_bytes = 250e6;
        cfg.max_apps = spec.apps_per_tenant;
        w.owned.push_back(std::make_unique<workload::GeneratorArrivalStream>(
            spec.seed * 100 + i, cfg));
        workload::ArrivalStream* inner = w.owned.back().get();
        w.owned.push_back(std::make_unique<workload::MmppArrivalStream>(
            *inner, spec.seed * 200 + i, workload::MmppArrivalStream::Config{}));
        tenant.stream = w.owned.back().get();
        break;
      }
    }
    w.tenants.push_back(std::move(tenant));
  }
  return w;
}

/// What one run of a world leaves: the logs, the per-tenant stats, and the
/// cloud's shared counter's next value.
struct WorldRun {
  MultiTenantLog log;
  std::vector<SessionRuntime::Stats> stats;
  std::uint64_t final_epoch = 0;
};

WorldRun run_oracle(const WorldSpec& spec) {
  World w = build_world(spec);
  MultiTenantSession session(*w.cloud, std::move(w.tenants));
  WorldRun out;
  out.log = session.run();
  out.stats = session.tenant_stats();
  out.final_epoch = w.cloud->next_epoch();
  return out;
}

WorldRun run_sharded(const WorldSpec& spec, unsigned threads) {
  World w = build_world(spec);
  ShardedOptions opts;
  opts.threads = threads;
  ShardedSession session(*w.cloud, std::move(w.tenants), opts);
  WorldRun out;
  out.log = session.run();
  out.stats = session.tenant_stats();
  out.final_epoch = w.cloud->next_epoch();
  return out;
}

/// The orders, besides the oracle's one-after-another, in which the tenants
/// of one world are run for the order-independence check.
enum class Order { Reverse, Interleave };

/// Runs a world's tenants as bare SessionRuntimes in `order`: Reverse runs
/// each to completion from the last tenant to the first; Interleave starts
/// all of them and then always steps the tenant with the earliest live
/// event, ties to the lowest index (the loop bench/e2e drives its sessions
/// with).
WorldRun run_in_order(const WorldSpec& spec, Order order) {
  World w = build_world(spec);
  const std::size_t n = w.tenants.size();
  std::vector<std::unique_ptr<SessionRuntime>> runtimes;
  for (std::size_t i = 0; i < n; ++i) {
    RuntimeOptions options;
    options.tenant = static_cast<std::uint32_t>(i);
    runtimes.push_back(std::make_unique<SessionRuntime>(
        *w.cloud, w.tenants[i].vms, w.tenants[i].config, std::move(options)));
  }
  std::vector<SessionLog> logs(n);
  if (order == Order::Reverse) {
    for (std::size_t i = n; i-- > 0;) logs[i] = runtimes[i]->run(*w.tenants[i].stream);
  } else {
    for (std::size_t i = 0; i < n; ++i) runtimes[i]->start(*w.tenants[i].stream);
    while (true) {
      const std::size_t best = util::earliest_index(n, [&](std::size_t i) {
        const std::optional<SessionRuntime::PendingEvent> next = runtimes[i]->peek_event();
        return next ? next->time_s : std::numeric_limits<double>::infinity();
      });
      if (best == n) break;
      runtimes[best]->step();
    }
    for (std::size_t i = 0; i < n; ++i) logs[i] = runtimes[i]->finish();
  }
  WorldRun out;
  out.log = merge_tenant_logs(std::move(logs));
  for (const auto& rt : runtimes) out.stats.push_back(rt->stats());
  out.final_epoch = w.cloud->next_epoch();
  return out;
}

/// Corpus coverage: the differential only means something if the scenarios
/// actually hit queueing, rejection, and migration.
struct Coverage {
  std::size_t deferred = 0;
  std::size_t rejected = 0;
  std::size_t adopted = 0;
  std::size_t migrated = 0;

  void absorb(const MultiTenantLog& log) {
    for (const SessionEvent& e : log.aggregate.events) {
      if (e.kind == SessionEventKind::Deferred) ++deferred;
      if (e.kind == SessionEventKind::Rejected) ++rejected;
      if (e.kind == SessionEventKind::Reevaluation && e.adopted) ++adopted;
    }
    migrated += log.aggregate.tasks_migrated;
  }
};

void check_spec(const WorldSpec& spec, const std::vector<unsigned>& thread_counts,
                const std::string& label, Coverage* coverage = nullptr) {
  const WorldRun oracle = run_oracle(spec);
  if (coverage != nullptr) coverage->absorb(oracle.log);
  for (const unsigned threads : thread_counts) {
    const std::string tag = label + " threads=" + std::to_string(threads);
    const WorldRun got = run_sharded(spec, threads);
    expect_multi_identical(oracle.log, got.log, tag);
    expect_stats_identical(oracle.stats, got.stats, tag);
    EXPECT_EQ(oracle.final_epoch, got.final_epoch) << tag;
  }
}

/// The randomized corpus: tenant counts sweep 1..13, and the thread counts
/// rotate with the seed so 1..8 are covered across the corpus without
/// running every count on every seed.
struct CorpusEntry {
  WorldSpec spec;
  std::vector<unsigned> threads;
};

std::vector<CorpusEntry> corpus() {
  const std::vector<std::vector<unsigned>> rotations = {
      {1, 2, 8},
      {8, 2, 4},
      {1, 3, 4},
      {2, 6, 8},
  };
  const std::size_t tenant_counts[] = {1, 2, 3, 5, 8, 13};
  std::vector<CorpusEntry> out;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    CorpusEntry e;
    e.spec.seed = seed;
    e.spec.tenants = tenant_counts[(seed - 1) % 6];
    e.spec.vms_per_tenant = 4 + seed % 3;
    e.spec.apps_per_tenant = 4 + seed % 3;
    e.threads = rotations[seed % rotations.size()];
    out.push_back(e);
  }
  // With the measured view on, every epoch seeds real probe noise, so a
  // tenant whose cycles were keyed by another's progress would measure a
  // different matrix and place differently. Small sizes: probing is
  // expensive.
  for (std::uint64_t seed = 30; seed <= 32; ++seed) {
    CorpusEntry e;
    e.spec.seed = seed;
    e.spec.tenants = 2 + seed % 2;
    e.spec.vms_per_tenant = 4;
    e.spec.apps_per_tenant = 3;
    e.spec.use_measured_view = true;
    e.threads = {2, 1, 3};
    out.push_back(e);
  }
  return out;
}

std::string label_of(const WorldSpec& spec) {
  return (spec.use_measured_view ? "measured seed " : "corpus seed ") +
         std::to_string(spec.seed);
}

TEST(ShardedDifferential, RandomizedCorpus) {
  Coverage cov;
  for (const CorpusEntry& e : corpus()) {
    if (e.spec.use_measured_view) continue;
    check_spec(e.spec, e.threads, label_of(e.spec), &cov);
  }
  // The corpus must exercise the paths a scheduling bug would corrupt.
  EXPECT_GT(cov.deferred, 0u);
  EXPECT_GT(cov.rejected, 0u);
  EXPECT_GT(cov.adopted, 0u);
  EXPECT_GT(cov.migrated, 0u);
}

TEST(ShardedDifferential, MeasuredViewDrawsSharedEpochs) {
  // The measured-view entries of the corpus: the sharded run and the
  // oracle must draw the same tenant-local epochs, because every epoch
  // seeds real probe noise. A slip shows up as a different measured
  // matrix, different placements, different everything.
  for (const CorpusEntry& e : corpus()) {
    if (!e.spec.use_measured_view) continue;
    check_spec(e.spec, e.threads, label_of(e.spec));
  }
}

TEST(ShardedDifferential, TenantLogsDoNotDependOnRunOrder) {
  // Each tenant's log is a function of its own spec alone: running the
  // tenants one after another, in reverse, or interleaved on one clock
  // gives every tenant the same log, and none of them draws from the
  // cloud's shared epoch counter.
  const std::uint64_t untouched = cloud::Cloud(cloud::ec2_2013(), 1).next_epoch();
  for (const CorpusEntry& e : corpus()) {
    const std::string label = label_of(e.spec);
    const WorldRun sequential = run_oracle(e.spec);
    EXPECT_EQ(sequential.final_epoch, untouched) << label;
    for (const Order order : {Order::Reverse, Order::Interleave}) {
      const std::string tag = label + (order == Order::Reverse ? " reverse" : " interleave");
      const WorldRun got = run_in_order(e.spec, order);
      expect_multi_identical(sequential.log, got.log, tag);
      expect_stats_identical(sequential.stats, got.stats, tag);
      EXPECT_EQ(got.final_epoch, untouched) << tag;
    }
    if (!e.spec.use_measured_view) continue;
    // Every measured tenant probed and accounted its own cycles.
    for (const SessionLog& log : sequential.log.tenants) {
      EXPECT_GT(log.pairs_probed, 0u) << label;
      EXPECT_GT(log.measurement_wall_s, 0.0) << label;
    }
  }
}

TEST(ShardedDifferential, ManyTenantsWideGrid) {
  // The upper corner: 64 tenants. One seed, tiny per-tenant work, several
  // tenants per worker at every thread count.
  WorldSpec spec;
  spec.seed = 77;
  spec.tenants = 64;
  spec.vms_per_tenant = 4;
  spec.apps_per_tenant = 2;
  check_spec(spec, {8, 5}, "wide");
}

TEST(ShardedDifferential, RepeatedRunsAreBitIdentical) {
  // Same seed, same thread count, run twice: thread scheduling must
  // not leak into the output (this is the determinism half of the pin; the
  // oracle half is covered above).
  WorldSpec spec;
  spec.seed = 9;
  spec.tenants = 6;
  spec.vms_per_tenant = 4;
  spec.apps_per_tenant = 5;
  const WorldRun a = run_sharded(spec, 4);
  const WorldRun b = run_sharded(spec, 4);
  expect_multi_identical(a.log, b.log, "repeat");
  expect_stats_identical(a.stats, b.stats, "repeat");
}

}  // namespace
}  // namespace choreo::core
