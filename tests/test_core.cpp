#include <gtest/gtest.h>

#include "core/choreo.h"
#include "core/profiler.h"
#include "place/baselines.h"
#include "util/units.h"
#include "workload/generator.h"

namespace choreo::core {
namespace {

using units::megabytes;

TEST(Profiler, AccumulatesTrafficMatrix) {
  Profiler prof(3);
  prof.observe({0, 1, 100.0, 10.0});
  prof.observe({0, 1, 50.0, 20.0});
  prof.observe({2, 0, 25.0, 30.0});
  EXPECT_EQ(prof.records_seen(), 3u);
  EXPECT_DOUBLE_EQ(prof.traffic_matrix()(0, 1), 150.0);
  EXPECT_DOUBLE_EQ(prof.traffic_matrix()(2, 0), 25.0);
  EXPECT_DOUBLE_EQ(prof.traffic_matrix()(1, 0), 0.0);
}

TEST(Profiler, RejectsBadRecords) {
  Profiler prof(2);
  EXPECT_THROW(prof.observe({0, 0, 1.0, 0.0}), PreconditionError);  // self flow
  EXPECT_THROW(prof.observe({0, 5, 1.0, 0.0}), PreconditionError);  // bad task
  EXPECT_THROW(prof.observe({0, 1, -1.0, 0.0}), PreconditionError);
}

TEST(Profiler, ToApplicationCarriesMatrix) {
  Profiler prof(2);
  prof.observe({0, 1, megabytes(10), 0.0});
  const place::Application app = prof.to_application({1.0, 2.0}, "svc");
  EXPECT_EQ(app.name, "svc");
  EXPECT_DOUBLE_EQ(app.traffic_bytes(0, 1), megabytes(10));
  EXPECT_THROW(prof.to_application({1.0}, "bad"), PreconditionError);
}

TEST(Profiler, HourlyTotalsAndPrediction) {
  Profiler prof(2);
  // Two days of hourly traffic: diurnal square wave.
  for (int h = 0; h < 48; ++h) {
    const double bytes = (h % 24 < 12) ? 100.0 : 200.0;
    prof.observe({0, 1, bytes, h * 3600.0 + 10.0});
  }
  const auto hourly = prof.hourly_totals();
  ASSERT_EQ(hourly.size(), 48u);
  EXPECT_DOUBLE_EQ(hourly[0], 100.0);
  EXPECT_DOUBLE_EQ(hourly[13], 200.0);
  // Next hour (h=48, hour-of-day 0): prev = 200 (h47), tod = 100 -> 150.
  EXPECT_DOUBLE_EQ(prof.predict_next_hour_bytes(), 150.0);
}

TEST(Profiler, PredictionFallsBackWithShortHistory) {
  Profiler prof(2);
  prof.observe({0, 1, 70.0, 100.0});
  EXPECT_DOUBLE_EQ(prof.predict_next_hour_bytes(), 70.0);
}

class ChoreoEndToEnd : public ::testing::Test {
 protected:
  ChoreoEndToEnd() : cloud_(cloud::ec2_2013(), 71), vms_(cloud_.allocate_vms(8)) {
    config_.plan.train.bursts = 5;       // keep tests fast
    config_.plan.train.burst_length = 100;
  }

  cloud::Cloud cloud_;
  std::vector<cloud::VmId> vms_;
  ChoreoConfig config_;
};

TEST_F(ChoreoEndToEnd, MeasureThenPlaceThenExecute) {
  Choreo choreo(cloud_, vms_, config_);
  EXPECT_THROW(choreo.view(), PreconditionError);  // must measure first

  const double wall = choreo.measure_network(1);
  EXPECT_GT(wall, 0.0);
  EXPECT_LT(wall, 180.0);  // §4.1: under three minutes

  Rng rng(5);
  workload::GeneratorConfig gen;
  gen.max_tasks = 6;
  const place::Application app = workload::generate_app(rng, gen);
  const auto handle = choreo.place_application(app);
  const place::Placement& p = choreo.placement_of(handle);
  EXPECT_TRUE(p.complete());

  const auto transfers = choreo.transfers_for(app, p, 0.0);
  ASSERT_FALSE(transfers.empty());
  const auto result = cloud_.execute(transfers, 2);
  EXPECT_GT(result.makespan_s, 0.0);

  choreo.remove_application(handle);
  EXPECT_TRUE(choreo.running().empty());
}

TEST_F(ChoreoEndToEnd, CommittedAppsOccupyCpu) {
  Choreo choreo(cloud_, vms_, config_);
  choreo.measure_network(1);
  place::Application app;
  app.cpu_demand = {4.0, 4.0};
  app.traffic_bytes = DoubleMatrix(2, 2, 0.0);
  app.traffic_bytes(0, 1) = megabytes(100);
  choreo.place_application(app);
  double total_free = 0.0;
  for (std::size_t m = 0; m < vms_.size(); ++m) total_free += choreo.state().free_cores(m);
  EXPECT_DOUBLE_EQ(total_free, 8.0 * 4.0 - 8.0);
}

TEST_F(ChoreoEndToEnd, BaselinePlacerInjection) {
  Choreo choreo(cloud_, vms_, config_);
  choreo.measure_network(1);
  place::RandomPlacer random(3);
  place::Application app;
  app.cpu_demand = {1.0, 1.0, 1.0};
  app.traffic_bytes = DoubleMatrix(3, 3, 0.0);
  app.traffic_bytes(0, 1) = megabytes(10);
  const auto handle = choreo.place_application(app, random);
  EXPECT_TRUE(choreo.placement_of(handle).complete());
}

TEST_F(ChoreoEndToEnd, ReevaluateMigratesWhenNetworkShifts) {
  // Use ground truth views so the test is about migration logic, not noise.
  config_.use_measured_view = false;
  config_.migration_cost_per_task_s = 0.0;  // migration is free: any gain wins
  Choreo choreo(cloud_, vms_, config_);
  choreo.measure_network(1);

  // Fill the cluster with two chatty apps placed by a *bad* placer.
  place::RoundRobinPlacer rr;
  Rng rng(13);
  workload::GeneratorConfig gen;
  gen.max_tasks = 5;
  const place::Application a1 = workload::generate_app(rng, gen);
  const place::Application a2 = workload::generate_app(rng, gen);
  choreo.place_application(a1, rr);
  choreo.place_application(a2, rr);

  const auto report = choreo.reevaluate(2);
  EXPECT_EQ(report.apps_considered, 2u);
  // Greedy re-placement of a round-robin layout should find improvement.
  EXPECT_GT(report.tasks_migrated, 0u);
  EXPECT_EQ(report.tasks_migrated, report.tasks_to_move);  // adopted: equal
  EXPECT_TRUE(report.adopted);
  EXPECT_GT(report.estimated_gain_s, 0.0);
}

TEST_F(ChoreoEndToEnd, ReevaluateRespectsMigrationCost) {
  config_.use_measured_view = false;
  config_.migration_cost_per_task_s = 1e9;  // prohibitively expensive
  Choreo choreo(cloud_, vms_, config_);
  choreo.measure_network(1);
  place::RoundRobinPlacer rr;
  Rng rng(13);
  workload::GeneratorConfig gen;
  gen.max_tasks = 5;
  choreo.place_application(workload::generate_app(rng, gen), rr);
  const auto report = choreo.reevaluate(2);
  EXPECT_FALSE(report.adopted);
  // The candidate plan wanted to move tasks, but none actually migrated —
  // tasks_migrated counts real migrations only, tasks_to_move the proposal.
  EXPECT_GT(report.tasks_to_move, 0u);
  EXPECT_EQ(report.tasks_migrated, 0u);
}

TEST_F(ChoreoEndToEnd, IncrementalRefreshProbesFewerPairs) {
  config_.refresh.max_age_epochs = 50;        // nothing goes stale here
  config_.refresh.volatility_threshold = 1e9; // ignore volatility here
  Choreo choreo(cloud_, vms_, config_);

  choreo.measure_network(1);
  const auto first = choreo.last_measure();
  EXPECT_FALSE(first.incremental);
  EXPECT_EQ(first.pairs_probed, vms_.size() * (vms_.size() - 1));
  EXPECT_EQ(first.rounds, vms_.size() - 1);
  EXPECT_GT(first.wall_time_s, 0.0);

  choreo.measure_network(2);
  const auto second = choreo.last_measure();
  EXPECT_TRUE(second.incremental);
  EXPECT_LT(second.pairs_probed, first.pairs_probed);
  EXPECT_LE(second.wall_time_s, first.wall_time_s);
  // The carried-over estimates are visible to placers via pair_epoch.
  EXPECT_EQ(choreo.view().view_epoch, 2u);
  EXPECT_EQ(choreo.view().freshness(0, 1), 1u);
}

TEST_F(ChoreoEndToEnd, SequentialArrivalsShareTheCluster) {
  Choreo choreo(cloud_, vms_, config_);
  choreo.measure_network(1);
  Rng rng(17);
  workload::GeneratorConfig gen;
  gen.max_tasks = 4;
  gen.max_cpu = 1.0;
  std::vector<Choreo::AppHandle> handles;
  for (int i = 0; i < 3; ++i) {
    handles.push_back(choreo.place_application(workload::generate_app(rng, gen)));
  }
  EXPECT_EQ(choreo.running().size(), 3u);
  for (const auto h : handles) choreo.remove_application(h);
  EXPECT_EQ(choreo.running().size(), 0u);
}

}  // namespace
}  // namespace choreo::core
