// Serving-plane unit and differential tests: the epoch-swapped
// PlacementService (snapshot immutability, scratch reuse, read path equal to
// the placement plane it serves), the batched joint planner (combine /
// split round trip, greedy/ILP routing, infeasibility), and the runtime
// wiring pin — the batched arrival path disabled (and enabled with
// max_batch == 1) is bit-identical to the historical FIFO drain over a
// randomized queueing corpus.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cloud/cloud.h"
#include "cloud/profile.h"
#include "core/runtime.h"
#include "place/greedy.h"
#include "place/rate_model.h"
#include "serve/batch.h"
#include "serve/service.h"
#include "util/rng.h"
#include "util/units.h"
#include "workload/generator.h"
#include "workload/stream.h"

namespace choreo::serve {
namespace {

using units::gigabytes;
using units::mbps;

place::ClusterView small_view(Rng& rng, std::size_t machines, double cores = 4.0) {
  place::ClusterView view;
  view.rate_bps = DoubleMatrix(machines, machines, 0.0);
  for (std::size_t i = 0; i < machines; ++i) {
    for (std::size_t j = 0; j < machines; ++j) {
      if (i != j) view.rate_bps(i, j) = rng.uniform(mbps(300), mbps(1100));
    }
  }
  view.cross_traffic = DoubleMatrix(machines, machines, 0.0);
  for (std::size_t i = 0; i < machines; ++i) {
    for (std::size_t j = 0; j < machines; ++j) {
      if (i != j && rng.chance(0.3)) view.cross_traffic(i, j) = rng.uniform(0.0, 2.0);
    }
  }
  view.colocation_group.resize(machines);
  for (std::size_t m = 0; m < machines; ++m) view.colocation_group[m] = static_cast<int>(m);
  view.cores.assign(machines, cores);
  return view;
}

place::Application gen_app(Rng& rng, std::size_t min_tasks = 3, std::size_t max_tasks = 6) {
  workload::GeneratorConfig gen;
  gen.min_tasks = min_tasks;
  gen.max_tasks = max_tasks;
  gen.max_cpu = 1.5;
  return workload::generate_app(rng, gen);
}

TEST(Service, EpochStartsAtOneAndBumpsOnEveryPublish) {
  Rng rng(1);
  PlacementService service(small_view(rng, 5));
  EXPECT_EQ(service.epoch(), 1u);

  Rng rng2(2);
  service.publish_view(small_view(rng2, 5));
  EXPECT_EQ(service.epoch(), 2u);

  Scratch scratch;
  const place::Application app = gen_app(rng);
  const PlacementService::Result r = service.place(app, scratch);
  service.commit(app, r.placement);
  EXPECT_EQ(service.epoch(), 3u);
  service.release(app, r.placement);
  EXPECT_EQ(service.epoch(), 4u);
}

TEST(Service, PlaceEqualsDirectGreedyOnTheSameState) {
  Rng rng(7);
  const place::ClusterView view = small_view(rng, 8);
  PlacementService service(view, place::RateModel::Hose);
  place::ClusterState state(view);
  place::GreedyPlacer greedy(place::RateModel::Hose);

  Scratch scratch;
  for (int a = 0; a < 4; ++a) {
    const place::Application app = gen_app(rng);
    const PlacementService::Result r = service.place(app, scratch);
    const place::Placement direct = greedy.place(app, state);
    EXPECT_EQ(r.placement.machine_of_task, direct.machine_of_task);
    // Each commit below publishes a new epoch; queries see the latest one.
    EXPECT_EQ(r.epoch, static_cast<std::uint64_t>(a) + 1);
    // Commit on both sides so later queries see identical residuals.
    service.commit(app, r.placement);
    state.commit(app, direct);
  }
}

TEST(Service, ScratchRefreshesOncePerEpochNotPerQuery) {
  Rng rng(11);
  PlacementService service(small_view(rng, 6));
  Scratch scratch;
  EXPECT_EQ(scratch.refreshes(), 0u);
  EXPECT_EQ(scratch.epoch(), 0u);

  const place::Application app = gen_app(rng);
  service.place(app, scratch);
  service.place(app, scratch);
  service.place(app, scratch);
  EXPECT_EQ(scratch.refreshes(), 1u);
  EXPECT_EQ(scratch.epoch(), 1u);

  Rng rng2(12);
  service.publish_view(small_view(rng2, 6));
  service.place(app, scratch);
  service.place(app, scratch);
  EXPECT_EQ(scratch.refreshes(), 2u);
  EXPECT_EQ(scratch.epoch(), 2u);
}

TEST(Service, SnapshotsAreImmutableAfterNewerEpochsPublish) {
  Rng rng(13);
  PlacementService service(small_view(rng, 6));
  const std::shared_ptr<const ClusterSnapshot> old_snap = service.snapshot();

  Scratch scratch;
  // Two 3-core tasks on 4-core machines cannot colocate, so the commit
  // leaves inter-machine transfers behind.
  place::Application app;
  app.cpu_demand = {3.0, 3.0};
  app.traffic_bytes = DoubleMatrix(2, 2, 0.0);
  app.traffic_bytes(0, 1) = 1e9;
  const PlacementService::Result r = service.place(app, scratch);
  service.commit(app, r.placement);

  // The old snapshot still reads as the unoccupied epoch-1 world; the new
  // one carries the committed transfers.
  EXPECT_EQ(old_snap->epoch, 1u);
  for (std::size_t m = 0; m < old_snap->state.machine_count(); ++m) {
    EXPECT_EQ(old_snap->state.transfers_out_of(m), 0.0);
  }
  const std::shared_ptr<const ClusterSnapshot> new_snap = service.snapshot();
  double committed_transfers = 0.0;
  for (std::size_t m = 0; m < new_snap->state.machine_count(); ++m) {
    committed_transfers += new_snap->state.transfers_out_of(m);
  }
  EXPECT_GT(committed_transfers, 0.0);
}

TEST(Service, PublishViewRejectsADifferentFleet) {
  Rng rng(17);
  PlacementService service(small_view(rng, 6));
  Rng rng2(18);
  EXPECT_THROW(service.publish_view(small_view(rng2, 7)), PreconditionError);
}

TEST(Service, InfeasibleQueryThrowsAndLeavesTheArenaServing) {
  Rng rng(19);
  PlacementService service(small_view(rng, 4, /*cores=*/1.0));
  Scratch scratch;

  place::Application too_big;
  too_big.cpu_demand = {2.0, 2.0};
  too_big.traffic_bytes = DoubleMatrix(2, 2, 0.0);
  too_big.traffic_bytes(0, 1) = 1e9;
  EXPECT_THROW(service.place(too_big, scratch), place::PlacementError);

  place::Application fits;
  fits.cpu_demand = {1.0, 1.0};
  fits.traffic_bytes = DoubleMatrix(2, 2, 0.0);
  fits.traffic_bytes(0, 1) = 1e9;
  const PlacementService::Result r = service.place(fits, scratch);
  EXPECT_TRUE(r.placement.complete());
  EXPECT_EQ(scratch.refreshes(), 1u);
}

TEST(Batch, SplitPlacementRoundTripsTaskOffsets) {
  Rng rng(23);
  std::vector<place::Application> apps = {gen_app(rng, 3, 3), gen_app(rng, 4, 4),
                                          gen_app(rng, 5, 5)};
  std::vector<const place::Application*> ptrs;
  for (const place::Application& a : apps) ptrs.push_back(&a);

  std::size_t total = 0;
  for (const place::Application* a : ptrs) total += a->task_count();
  place::Placement joint;
  for (std::size_t t = 0; t < total; ++t) joint.machine_of_task.push_back(t % 5);

  const std::vector<place::Placement> parts = split_placement(ptrs, joint);
  ASSERT_EQ(parts.size(), ptrs.size());
  std::size_t offset = 0;
  for (std::size_t a = 0; a < ptrs.size(); ++a) {
    ASSERT_EQ(parts[a].machine_of_task.size(), ptrs[a]->task_count());
    EXPECT_EQ(parts[a].machine_of_task,
              std::vector<std::size_t>(joint.machine_of_task.begin() + offset,
                                       joint.machine_of_task.begin() + offset +
                                           ptrs[a]->task_count()));
    offset += ptrs[a]->task_count();
  }
  EXPECT_EQ(offset, total);
}

TEST(Batch, PlanEqualsOneJointGreedyPlacement) {
  Rng rng(29);
  const place::ClusterView view = small_view(rng, 8);
  place::ClusterState state(view);
  std::vector<place::Application> apps = {gen_app(rng, 3, 4), gen_app(rng, 3, 4)};
  std::vector<const place::Application*> ptrs;
  for (const place::Application& a : apps) ptrs.push_back(&a);

  BatchArrivalOptions opts;
  opts.enabled = true;
  opts.max_batch = 2;
  const BatchPlan plan = plan_batch(ptrs, state, place::RateModel::Hose, opts);
  EXPECT_FALSE(plan.used_ilp);

  place::GreedyPlacer greedy(place::RateModel::Hose);
  const place::Placement joint = greedy.place(place::combine(apps), state);
  EXPECT_EQ(plan.joint.machine_of_task, joint.machine_of_task);

  // The split placements tile the joint one.
  std::size_t offset = 0;
  for (std::size_t a = 0; a < apps.size(); ++a) {
    ASSERT_EQ(plan.placements[a].machine_of_task.size(), apps[a].task_count());
    for (std::size_t t = 0; t < apps[a].task_count(); ++t) {
      EXPECT_EQ(plan.placements[a].machine_of_task[t],
                joint.machine_of_task[offset + t]);
    }
    offset += apps[a].task_count();
  }
}

TEST(Batch, IlpRouteTakenOnlyWithinTheTaskLimit) {
  Rng rng(31);
  const place::ClusterView view = small_view(rng, 4);
  place::ClusterState state(view);
  // Tiny two-task apps keep the joint ILP solvable instantly.
  place::Application a1, a2;
  a1.cpu_demand = {1.0, 1.0};
  a1.traffic_bytes = DoubleMatrix(2, 2, 0.0);
  a1.traffic_bytes(0, 1) = 5e8;
  a2 = a1;
  std::vector<const place::Application*> ptrs = {&a1, &a2};

  BatchArrivalOptions opts;
  opts.enabled = true;
  opts.max_batch = 2;
  opts.ilp_task_limit = 4;
  const BatchPlan via_ilp = plan_batch(ptrs, state, place::RateModel::Hose, opts);
  EXPECT_TRUE(via_ilp.used_ilp);
  EXPECT_TRUE(via_ilp.joint.complete());

  opts.ilp_task_limit = 3;  // joint has 4 tasks: over the limit -> greedy
  const BatchPlan via_greedy = plan_batch(ptrs, state, place::RateModel::Hose, opts);
  EXPECT_FALSE(via_greedy.used_ilp);
}

TEST(Batch, InfeasibleJointApplicationThrows) {
  Rng rng(37);
  const place::ClusterView view = small_view(rng, 3, /*cores=*/1.0);
  place::ClusterState state(view);
  place::Application big;
  big.cpu_demand = {1.0, 1.0};
  big.traffic_bytes = DoubleMatrix(2, 2, 0.0);
  big.traffic_bytes(0, 1) = 1e9;
  std::vector<const place::Application*> ptrs = {&big, &big};
  BatchArrivalOptions opts;
  opts.enabled = true;
  opts.max_batch = 2;
  // Four tasks of 1.0 core on three 1-core machines cannot fit.
  EXPECT_THROW(plan_batch(ptrs, state, place::RateModel::Hose, opts),
               place::PlacementError);
}

// ---- Runtime wiring pin -----------------------------------------------

void expect_logs_identical(const core::SessionLog& ref, const core::SessionLog& got,
                           const std::string& label) {
  ASSERT_EQ(ref.events.size(), got.events.size()) << label;
  for (std::size_t i = 0; i < ref.events.size(); ++i) {
    EXPECT_EQ(ref.events[i].time_s, got.events[i].time_s) << label << " event " << i;
    EXPECT_EQ(ref.events[i].kind, got.events[i].kind) << label << " event " << i;
    EXPECT_EQ(ref.events[i].app, got.events[i].app) << label << " event " << i;
  }
  ASSERT_EQ(ref.apps.size(), got.apps.size()) << label;
  for (std::size_t i = 0; i < ref.apps.size(); ++i) {
    EXPECT_EQ(ref.apps[i].placed_s, got.apps[i].placed_s) << label << " app " << i;
    EXPECT_EQ(ref.apps[i].finished_s, got.apps[i].finished_s) << label << " app " << i;
    EXPECT_EQ(ref.apps[i].placement.machine_of_task,
              got.apps[i].placement.machine_of_task)
        << label << " app " << i;
  }
  EXPECT_EQ(ref.total_runtime_s, got.total_runtime_s) << label;
  EXPECT_EQ(ref.rejected, got.rejected) << label;
}

/// A queue-heavy workload: fat apps that saturate the small fleet so
/// arrivals defer and the retry drain (the only path batching touches)
/// actually runs.
std::vector<place::Application> queueing_workload(Rng& rng, std::size_t count) {
  std::vector<place::Application> apps;
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    place::Application app;
    if (rng.chance(0.5)) {
      app.name = "fat" + std::to_string(i);
      app.cpu_demand = {4.0, 4.0, 4.0};
      app.traffic_bytes = DoubleMatrix(3, 3, 0.0);
      app.traffic_bytes(0, 1) = gigabytes(rng.uniform(2.0, 6.0));
      app.traffic_bytes(1, 2) = gigabytes(rng.uniform(1.0, 3.0));
    } else {
      workload::GeneratorConfig gen;
      gen.min_tasks = 3;
      gen.max_tasks = 4;
      gen.min_cpu = 0.5;
      gen.max_cpu = 2.0;
      app = workload::generate_app(rng, gen);
      app.name += std::to_string(i);
    }
    if (i == 0 || !rng.chance(0.3)) t += rng.uniform(1.0, 30.0);
    app.arrival_s = t;
    apps.push_back(std::move(app));
  }
  return apps;
}

core::SessionLog run_with_batch(const std::vector<place::Application>& apps,
                                std::uint64_t cloud_seed,
                                const BatchArrivalOptions& batch) {
  core::ControllerConfig config;
  config.choreo.use_measured_view = false;
  config.choreo.reevaluate_period_s = 60.0;
  config.choreo.plan.train.bursts = 3;
  config.choreo.plan.train.burst_length = 60;
  config.batch = batch;
  cloud::Cloud cloud(cloud::ec2_2013(), cloud_seed);
  const auto vms = cloud.allocate_vms(5);
  workload::VectorArrivalStream stream(apps);
  return core::SessionRuntime(cloud, vms, config).run(stream);
}

TEST(BatchRuntime, DisabledAndMaxBatchOneAreBitIdenticalToTheFifoDrain) {
  std::size_t drained_by_retry = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    const std::vector<place::Application> apps = queueing_workload(rng, 7);

    const core::SessionLog base = run_with_batch(apps, seed * 31 + 7, {});
    // A deferred app only ever leaves the queue through a retry drain.
    for (const core::SessionEvent& e : base.events) {
      if (e.kind == core::SessionEventKind::Deferred && base.apps[e.app].placed_s >= 0.0) {
        ++drained_by_retry;
      }
    }

    BatchArrivalOptions enabled_k1;
    enabled_k1.enabled = true;
    enabled_k1.max_batch = 1;
    const core::SessionLog k1 = run_with_batch(apps, seed * 31 + 7, enabled_k1);
    expect_logs_identical(base, k1, "max_batch=1 seed " + std::to_string(seed));

    BatchArrivalOptions disabled_k4;
    disabled_k4.enabled = false;
    disabled_k4.max_batch = 4;
    const core::SessionLog off = run_with_batch(apps, seed * 31 + 7, disabled_k4);
    expect_logs_identical(base, off, "disabled seed " + std::to_string(seed));
  }
  // The equivalence means nothing on a corpus whose retries never place a
  // queued app.
  EXPECT_GT(drained_by_retry, 0u);
}

TEST(BatchRuntime, BatchedDrainProducesAValidSession) {
  std::size_t batched_sessions_with_queueing = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    const std::vector<place::Application> apps = queueing_workload(rng, 7);

    BatchArrivalOptions batch;
    batch.enabled = true;
    batch.max_batch = 4;
    const core::SessionLog log = run_with_batch(apps, seed * 31 + 7, batch);

    // Structural invariants: every app either ran to completion through the
    // batched drain or was never placed; placements are complete; times are
    // ordered.
    ASSERT_EQ(log.apps.size(), apps.size());
    bool saw_deferred = false;
    for (const core::SessionEvent& e : log.events) {
      if (e.kind == core::SessionEventKind::Deferred) saw_deferred = true;
    }
    for (const core::AppOutcome& a : log.apps) {
      if (a.placed_s >= 0.0) {
        EXPECT_TRUE(a.placement.complete());
        EXPECT_GE(a.placed_s, a.arrival_s);
        EXPECT_GE(a.finished_s, a.placed_s);
      }
    }
    if (saw_deferred) ++batched_sessions_with_queueing;
  }
  // The corpus must actually exercise the batched retry drain.
  EXPECT_GT(batched_sessions_with_queueing, 0u);
}

TEST(BatchRuntime, InfeasibleBatchStepsDownOneSizeAtATime) {
  // Crafted so joint feasibility is non-monotone in the halving stride:
  // 2 VMs x 4 cores run a hog (2 tasks x 4.0) while three 3.0-core apps
  // queue behind it. At the hog's departure the drain must attempt k = 3
  // (9.0 cores on 8 — infeasible), then k = 2 (one 3.0 task per VM — fits).
  // The old `k /= 2` halving jumped from 3 straight past 2 to the single-app
  // path and never discovered the feasible pair.
  place::Application hog;
  hog.name = "hog";
  hog.cpu_demand = {4.0, 4.0};
  hog.traffic_bytes = DoubleMatrix(2, 2, 0.0);
  hog.traffic_bytes(0, 1) = gigabytes(20.0);  // keeps the fleet busy a while
  hog.arrival_s = 0.0;

  std::vector<place::Application> apps{hog};
  for (int i = 0; i < 3; ++i) {
    place::Application waiter;
    waiter.name = "waiter" + std::to_string(i);
    waiter.cpu_demand = {3.0};
    waiter.traffic_bytes = DoubleMatrix(1, 1, 0.0);
    waiter.arrival_s = 1.0 + i;
    apps.push_back(std::move(waiter));
  }

  core::ControllerConfig config;
  config.choreo.use_measured_view = false;
  config.batch.enabled = true;
  config.batch.max_batch = 3;

  cloud::Cloud cloud(cloud::ec2_2013(), 5);
  const auto vms = cloud.allocate_vms(2);
  core::SessionRuntime runtime(cloud, vms, config);
  workload::VectorArrivalStream stream(apps);
  const core::SessionLog log = runtime.run(stream);

  const std::vector<std::size_t> expected{3, 2};
  EXPECT_EQ(runtime.stats().batch_attempts, expected);
  // The pair the step-down discovered really got placed together; the third
  // waiter followed once the pair's capacity freed.
  for (const core::AppOutcome& a : log.apps) {
    EXPECT_GE(a.finished_s, 0.0) << a.name;
  }
}

}  // namespace
}  // namespace choreo::serve
