// Smoke test for the build-and-verify harness: default-constructed
// ChoreoConfig, one full measure -> profile -> place cycle (§2) on a tiny
// 4-VM topology. If this fails, the library skeleton itself is broken —
// every other test file assumes the pieces exercised here.

#include <gtest/gtest.h>

#include "cloud/cloud.h"
#include "core/choreo.h"
#include "core/profiler.h"
#include "util/units.h"

namespace choreo {
namespace {

TEST(Smoke, DefaultConfigMeasureAndPlaceOnTinyTopology) {
  // Defaults must be usable as-is: the §4.1 EC2 calibration (10 bursts of
  // 200 packets), hose rate model, 600 s re-evaluation period.
  core::ChoreoConfig config;
  EXPECT_EQ(config.plan.train.bursts, 10u);
  EXPECT_EQ(config.plan.train.burst_length, 200u);
  EXPECT_EQ(config.rate_model, place::RateModel::Hose);
  EXPECT_GT(config.reevaluate_period_s, 0.0);
  EXPECT_TRUE(config.use_measured_view);

  cloud::Cloud cloud(cloud::ec2_2013(), /*seed=*/1234);
  const std::vector<cloud::VmId> vms = cloud.allocate_vms(4);
  core::Choreo choreo(cloud, vms, config);

  // Measurement phase: packet trains over all 4*3 ordered pairs. The paper
  // quotes "less than three minutes for a ten-node topology", so a 4-VM
  // fleet must come in well under that, and must not be free.
  const double wall_s = choreo.measure_network(/*epoch=*/1);
  EXPECT_GT(wall_s, 0.0);
  EXPECT_LT(wall_s, 180.0);
  EXPECT_EQ(choreo.view().machine_count(), vms.size());

  // Profile a toy 3-task app (one heavy pair, one light edge) and place it.
  core::Profiler profiler(/*task_count=*/3);
  profiler.observe({0, 1, units::gigabytes(1.0)});
  profiler.observe({1, 2, units::megabytes(100)});
  // CPU demands of 3 cores each keep any two tasks from sharing a 4-core
  // VM, so at least one transfer must cross the network.
  const place::Application app = profiler.to_application({3.0, 3.0, 3.0}, "smoke-app");

  const auto handle = choreo.place_application(app);
  const place::Placement& placement = choreo.placement_of(handle);
  ASSERT_EQ(placement.machine_of_task.size(), app.task_count());
  for (std::size_t m : placement.machine_of_task) {
    EXPECT_LT(m, vms.size());
  }

  // The placement converts into executable transfers and the cloud finishes
  // them in finite time.
  const auto transfers = choreo.transfers_for(app, placement, /*start_s=*/0.0);
  EXPECT_EQ(transfers.size(), 2u);  // the two non-zero traffic-matrix entries
  const auto exec = cloud.execute(transfers, /*epoch=*/2);
  EXPECT_GT(exec.makespan_s, 0.0);

  choreo.remove_application(handle);
  EXPECT_TRUE(choreo.running().empty());
}

}  // namespace
}  // namespace choreo
