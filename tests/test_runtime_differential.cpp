// Differential pin for the control-plane refactor: the discrete-event
// SessionRuntime over a materialized workload must reproduce the historical
// hand-rolled merge loop (kept verbatim as run_session_reference)
// bit-identically — every event, every outcome, every accounting double —
// over a randomized single-tenant corpus that exercises simultaneous
// arrivals, deferral and FIFO retries, rejection, instant (zero-network)
// completions, adopted and rejected re-evaluations, and both the measured
// and ground-truth view paths.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/runtime.h"
#include "oracles/reference_session.h"
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
    EXPECT_EQ(a.time_s, b.time_s) << label << " event " << i;
    EXPECT_EQ(a.kind, b.kind) << label << " event " << i;
    EXPECT_EQ(a.app, b.app) << label << " event " << i;
    EXPECT_EQ(a.tasks_migrated, b.tasks_migrated) << label << " event " << i;
    EXPECT_EQ(a.adopted, b.adopted) << label << " event " << i;
    EXPECT_EQ(ref.detail(a), got.detail(b)) << label << " event " << i;
  }
  ASSERT_EQ(ref.apps.size(), got.apps.size()) << label;
  for (std::size_t i = 0; i < ref.apps.size(); ++i) {
    const AppOutcome& a = ref.apps[i];
    const AppOutcome& b = got.apps[i];
    EXPECT_EQ(a.name, b.name) << label << " app " << i;
    EXPECT_EQ(a.arrival_s, b.arrival_s) << label << " app " << i;
    EXPECT_EQ(a.placed_s, b.placed_s) << label << " app " << i;
    EXPECT_EQ(a.finished_s, b.finished_s) << label << " app " << i;
    EXPECT_EQ(a.rejected, b.rejected) << label << " app " << i;
    EXPECT_EQ(a.placement.machine_of_task, b.placement.machine_of_task)
        << label << " app " << i;
  }
  EXPECT_EQ(ref.reevaluations, got.reevaluations) << label;
  EXPECT_EQ(ref.reevaluations_adopted, got.reevaluations_adopted) << label;
  EXPECT_EQ(ref.tasks_migrated, got.tasks_migrated) << label;
  EXPECT_EQ(ref.rejected, got.rejected) << label;
  EXPECT_EQ(ref.total_runtime_s, got.total_runtime_s) << label;
  EXPECT_EQ(ref.measurement_wall_s, got.measurement_wall_s) << label;
  EXPECT_EQ(ref.pairs_probed, got.pairs_probed) << label;
}

/// Draws one randomized session workload: generated apps with a mix of
/// spread-out, duplicated (same-instant), and bursty arrival times, plus
/// occasional instant-completion chat apps and oversized apps that defer or
/// reject.
std::vector<place::Application> draw_workload(Rng& rng, std::size_t count) {
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
      // Chat app: tiny traffic, co-locatable — estimated completion ~0, so
      // its departure shares the arrival instant (the trickiest tie).
      app.name = "chat" + std::to_string(i);
      app.cpu_demand = {0.5, 0.5};
      app.traffic_bytes = DoubleMatrix(2, 2, 0.0);
      app.traffic_bytes(0, 1) = 1e3;
    } else if (flavor < 0.45) {
      // Fat app: saturates CPU (and runs for minutes) so later arrivals
      // defer or reject.
      app.name = "fat" + std::to_string(i);
      app.cpu_demand = {4.0, 4.0, 4.0};
      app.traffic_bytes = DoubleMatrix(3, 3, 0.0);
      app.traffic_bytes(0, 1) = gigabytes(rng.uniform(3.0, 8.0));
      app.traffic_bytes(1, 2) = gigabytes(rng.uniform(1.0, 4.0));
    } else {
      app = workload::generate_app(rng, gen);
      app.name += std::to_string(i);
    }
    // Arrival pattern: 25% exact duplicates of the previous instant, the
    // rest spread by random gaps (occasionally long enough to idle the
    // cluster across a re-evaluation deadline).
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

struct Scenario {
  std::uint64_t seed = 0;
  std::size_t vms = 6;
  std::size_t apps = 6;
  bool queue_when_full = true;
  bool use_measured_view = false;
  double reevaluate_period_s = 45.0;
  double migration_cost_per_task_s = 20.0;
};

/// Corpus coverage: the differential only means something if the random
/// scenarios actually hit the interesting control-plane paths.
struct Coverage {
  std::size_t deferred = 0;
  std::size_t rejected = 0;
  std::size_t reevaluations = 0;
  std::size_t adopted = 0;
  std::size_t instant_finishes = 0;  ///< departure at the placement instant

  void absorb(const SessionLog& log) {
    for (const SessionEvent& e : log.events) {
      if (e.kind == SessionEventKind::Deferred) ++deferred;
      if (e.kind == SessionEventKind::Rejected) ++rejected;
      if (e.kind == SessionEventKind::Reevaluation) {
        ++reevaluations;
        if (e.adopted) ++adopted;
      }
    }
    for (const AppOutcome& a : log.apps) {
      if (a.finished_s >= 0.0 && a.finished_s == a.placed_s) ++instant_finishes;
    }
  }
};

void run_scenario(const Scenario& sc, const std::string& label,
                  Coverage* coverage = nullptr) {
  Rng rng(sc.seed);
  const std::vector<place::Application> apps = draw_workload(rng, sc.apps);

  ControllerConfig config;
  config.queue_when_full = sc.queue_when_full;
  config.choreo.use_measured_view = sc.use_measured_view;
  config.choreo.reevaluate_period_s = sc.reevaluate_period_s;
  config.choreo.migration_cost_per_task_s = sc.migration_cost_per_task_s;
  config.choreo.plan.train.bursts = 3;
  config.choreo.plan.train.burst_length = 60;

  // Two identical clouds (same profile, seed, allocations): the reference
  // and the runtime must see indistinguishable worlds.
  cloud::Cloud cloud_ref(cloud::ec2_2013(), sc.seed * 31 + 7);
  cloud::Cloud cloud_run(cloud::ec2_2013(), sc.seed * 31 + 7);
  const auto vms_ref = cloud_ref.allocate_vms(sc.vms);
  const auto vms_run = cloud_run.allocate_vms(sc.vms);

  const SessionLog ref = run_session_reference(cloud_ref, vms_ref, config, apps);
  workload::VectorArrivalStream stream(apps);
  const SessionLog got = SessionRuntime(cloud_run, vms_run, config).run(stream);
  expect_logs_identical(ref, got, label);
  if (coverage != nullptr) coverage->absorb(ref);
}

TEST(RuntimeDifferential, RandomizedCorpusGroundTruthView) {
  Coverage cov;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Scenario sc;
    sc.seed = seed;
    sc.vms = 4 + seed % 3;
    sc.apps = 5 + seed % 4;
    sc.queue_when_full = (seed % 2) == 0;
    sc.reevaluate_period_s = (seed % 3 == 0) ? 20.0 : 45.0;
    run_scenario(sc, "truth seed " + std::to_string(seed), &cov);
  }
  // The corpus must exercise the paths the refactor could plausibly break.
  EXPECT_GT(cov.deferred, 0u);
  EXPECT_GT(cov.rejected, 0u);
  EXPECT_GT(cov.reevaluations, 0u);
  EXPECT_GT(cov.instant_finishes, 0u);
}

TEST(RuntimeDifferential, RandomizedCorpusMeasuredView) {
  // The measured path additionally pins the epoch sequence: one incremental
  // refresh per arrival plus one per re-evaluation, in the same order.
  for (std::uint64_t seed = 20; seed <= 25; ++seed) {
    Scenario sc;
    sc.seed = seed;
    sc.vms = 5;
    sc.apps = 5;
    sc.use_measured_view = true;
    sc.queue_when_full = (seed % 2) == 0;
    sc.reevaluate_period_s = 40.0;
    run_scenario(sc, "measured seed " + std::to_string(seed));
  }
}

TEST(RuntimeDifferential, EagerMigrationsAndChurn) {
  // Zero migration cost makes every positive-gain re-evaluation migrate, so
  // departure rescheduling and the post-migration retry path stay hot.
  Coverage cov;
  for (std::uint64_t seed = 40; seed <= 45; ++seed) {
    Scenario sc;
    sc.seed = seed;
    sc.vms = 4 + seed % 2;
    sc.apps = 7;
    sc.queue_when_full = true;
    sc.reevaluate_period_s = 15.0;
    sc.migration_cost_per_task_s = 0.0;
    run_scenario(sc, "eager seed " + std::to_string(seed), &cov);
  }
  EXPECT_GT(cov.adopted, 0u);
  EXPECT_GT(cov.deferred, 0u);
}

TEST(RuntimeDifferential, SimultaneousArrivalBatches) {
  // Whole workload arrives at two instants: stresses same-instant ordering
  // (measure/place interleaving, deferred FIFO, instant departures).
  for (std::uint64_t seed = 60; seed <= 63; ++seed) {
    Rng rng(seed);
    std::vector<place::Application> apps = draw_workload(rng, 8);
    for (std::size_t i = 0; i < apps.size(); ++i) {
      apps[i].arrival_s = (i < 4) ? 0.0 : 120.0;
    }
    ControllerConfig config;
    config.choreo.use_measured_view = false;
    config.choreo.reevaluate_period_s = 30.0;

    cloud::Cloud cloud_ref(cloud::ec2_2013(), seed);
    cloud::Cloud cloud_run(cloud::ec2_2013(), seed);
    const auto vms_ref = cloud_ref.allocate_vms(6);
    const auto vms_run = cloud_run.allocate_vms(6);
    const SessionLog ref = run_session_reference(cloud_ref, vms_ref, config, apps);
    workload::VectorArrivalStream stream(apps);
    expect_logs_identical(ref, SessionRuntime(cloud_run, vms_run, config).run(stream),
                          "batch seed " + std::to_string(seed));
  }
}

}  // namespace
}  // namespace choreo::core
