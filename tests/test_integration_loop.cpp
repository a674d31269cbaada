// Closed-loop integration: the full §2 life cycle on one emulated cloud —
// run an application, collect sFlow samples from the run, profile them,
// re-place with Choreo, and verify the re-placement matches what perfect
// knowledge would produce. Also exercises the whole pipeline on Rackspace,
// where spatial variation is absent and co-location is the only lever.

#include <gtest/gtest.h>

#include "core/choreo.h"
#include "sflow.h"
#include "place/baselines.h"
#include "place/rate_model.h"
#include "util/stats.h"
#include "util/units.h"

namespace choreo {
namespace {

using units::gigabytes;

/// A 4-task analytics job: heavy shuffle 0->1, 0->2, light control traffic.
place::Application analytics_app() {
  place::Application app;
  app.name = "analytics";
  app.cpu_demand = {2.0, 2.0, 2.0, 1.0};
  app.traffic_bytes = DoubleMatrix(4, 4, 0.0);
  app.traffic_bytes(0, 1) = gigabytes(6);
  app.traffic_bytes(0, 2) = gigabytes(4);
  app.traffic_bytes(3, 0) = gigabytes(0.2);
  return app;
}

TEST(ClosedLoop, SflowProfileReproducesPlacement) {
  cloud::Cloud cloud(cloud::ec2_2013(), 2718);
  const auto vms = cloud.allocate_vms(8);
  core::ChoreoConfig config;
  config.plan.train.bursts = 5;
  config.plan.train.burst_length = 100;
  core::Choreo choreo(cloud, vms, config);
  choreo.measure_network(1);

  // Production run of the app placed by whatever the ops team did (random).
  const place::Application truth_app = analytics_app();
  place::RandomPlacer random(9);
  place::ClusterState scratch(choreo.view());
  const place::Placement prod_placement = random.place(truth_app, scratch);
  const auto transfers = choreo.transfers_for(truth_app, prod_placement, 0.0);
  const auto exec = cloud.execute(transfers, 2);

  // The sFlow agent watches the run (we reconstruct task endpoints the way a
  // collector maps VM flows back to tasks).
  std::vector<core::ObservedTransfer> observed;
  std::size_t t_idx = 0;
  for (std::size_t i = 0; i < truth_app.task_count(); ++i) {
    for (std::size_t j = 0; j < truth_app.task_count(); ++j) {
      const double b = truth_app.traffic_bytes(i, j);
      if (b <= 0.0) continue;
      observed.push_back({i, j, b, 0.0, exec.completion_s[t_idx]});
      ++t_idx;
    }
  }
  Rng rng(5);
  core::SflowConfig sflow;
  sflow.sampling_rate = 512;
  const core::Profiler prof =
      core::profile_from_sflow(truth_app.task_count(), observed, sflow, rng);

  // Place from the sampled profile and from the true matrix: the decisions
  // must agree (sampling noise is far below the decision margins).
  const place::Application profiled =
      prof.to_application(truth_app.cpu_demand, "analytics-profiled");
  place::GreedyPlacer greedy(place::RateModel::Hose);
  place::ClusterState s1(choreo.view());
  place::ClusterState s2(choreo.view());
  const place::Placement from_profile = greedy.place(profiled, s1);
  const place::Placement from_truth = greedy.place(truth_app, s2);
  EXPECT_EQ(from_profile.machine_of_task, from_truth.machine_of_task);

  // And the Choreo placement beats the production (random) placement.
  const double t_prod =
      cloud.execute(choreo.transfers_for(truth_app, prod_placement, 0.0), 3).makespan_s;
  const double t_choreo =
      cloud.execute(choreo.transfers_for(truth_app, from_profile, 0.0), 3).makespan_s;
  EXPECT_LE(t_choreo, t_prod * 1.001);
}

TEST(ClosedLoop, RackspaceColocationIsTheOnlyLever) {
  // On Rackspace every fabric path is ~300 Mbit/s (Fig 2(b)): for a single
  // application the only thing Choreo can exploit is co-location, so its
  // placement should put the chatty pair together whenever CPU allows.
  cloud::Cloud cloud(cloud::rackspace(), 31415);
  const auto vms = cloud.allocate_vms(8);
  core::ChoreoConfig config;
  config.plan.train.bursts = 10;
  config.plan.train.burst_length = 2000;  // the §4.1 Rackspace calibration
  core::Choreo choreo(cloud, vms, config);
  choreo.measure_network(1);

  place::Application app;
  app.cpu_demand = {1.0, 1.0, 1.0};
  app.traffic_bytes = DoubleMatrix(3, 3, 0.0);
  app.traffic_bytes(0, 1) = gigabytes(5);
  app.traffic_bytes(1, 2) = gigabytes(0.1);

  const auto handle = choreo.place_application(app);
  const place::Placement& p = choreo.placement_of(handle);
  EXPECT_EQ(p.machine_of_task[0], p.machine_of_task[1]);

  // Executing confirms: the heavy transfer costs nothing, the light one
  // drains at ~300 Mbit/s.
  const auto result = cloud.execute(choreo.transfers_for(app, p, 0.0), 2);
  EXPECT_LT(result.makespan_s, gigabytes(0.1) * 8.0 / units::mbps(250));
}

TEST(ClosedLoop, MeasuredViewCloseToTruthView) {
  cloud::Cloud cloud(cloud::ec2_2013(), 161);
  const auto vms = cloud.allocate_vms(6);
  measure::MeasurementPlan plan;
  plan.train.bursts = 10;
  plan.train.burst_length = 200;
  const place::ClusterView measured = measure::measured_cluster_view(cloud, vms, plan, 1);
  const place::ClusterView truth = measure::true_cluster_view(cloud, vms, 1);
  std::vector<double> errors;
  for (std::size_t i = 0; i < vms.size(); ++i) {
    for (std::size_t j = 0; j < vms.size(); ++j) {
      if (i == j || truth.colocated(i, j)) continue;
      errors.push_back(relative_error(measured.rate_bps(i, j), truth.rate_bps(i, j)));
    }
  }
  ASSERT_FALSE(errors.empty());
  // §4.1: mean error ~9% on EC2.
  EXPECT_LT(mean(errors), 0.15);
  // Hop data consistent between the two views.
  for (std::size_t i = 0; i < vms.size(); ++i) {
    for (std::size_t j = 0; j < vms.size(); ++j) {
      if (i != j) {
        EXPECT_DOUBLE_EQ(measured.hops(i, j), truth.hops(i, j));
      }
    }
  }
}

}  // namespace
}  // namespace choreo
