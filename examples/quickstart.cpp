// Quickstart: the complete Choreo loop in ~60 lines.
//
//   1. rent VMs on an (emulated) cloud,
//   2. measure the network with packet trains + traceroute,
//   3. profile an application into a traffic matrix,
//   4. place it with the greedy network-aware algorithm,
//   5. run the transfers and compare against a random placement.
//
// Build:  cmake -B build -G Ninja && cmake --build build
// Run:    ./build/examples/quickstart

#include <iostream>

#include "cloud/cloud.h"
#include "core/choreo.h"
#include "core/profiler.h"
#include "place/baselines.h"
#include "util/table.h"
#include "util/units.h"

int main() {
  using namespace choreo;

  // 1. A tenant rents 8 VMs on an EC2-like cloud.
  cloud::Cloud cloud(cloud::ec2_2013(), /*seed=*/7);
  const std::vector<cloud::VmId> vms = cloud.allocate_vms(8);

  // 2. Choreo measures the inter-VM network (§3): packet trains on every
  //    ordered pair, co-location from traceroute.
  core::ChoreoConfig config;
  config.plan.train.bursts = 10;      // the §4.1 EC2 calibration
  config.plan.train.burst_length = 200;
  core::Choreo choreo(cloud, vms, config);
  const double measure_wall = choreo.measure_network(/*epoch=*/1);
  std::cout << "measured " << vms.size() * (vms.size() - 1) << " paths; would take "
            << fmt(measure_wall, 0) << " s of wall clock on a real cloud\n";

  // 3. Profile the application from (synthetic) sFlow records: task 0
  //    shuffles heavily to tasks 1 and 2, tasks 3-4 chat lightly.
  core::Profiler profiler(/*task_count=*/5);
  profiler.observe({0, 1, units::gigabytes(2.0)});
  profiler.observe({0, 2, units::gigabytes(1.5)});
  profiler.observe({1, 2, units::megabytes(300)});
  profiler.observe({3, 4, units::megabytes(50)});
  // CPU demands sum to 10 cores, so the app cannot collapse onto one 4-core
  // machine: Choreo must co-locate the chattiest pair and pick fast paths
  // for the rest.
  const place::Application app =
      profiler.to_application({3.0, 2.0, 2.0, 1.5, 1.5}, "quickstart-app");

  // 4. Place it with Choreo's greedy algorithm (Algorithm 1)...
  const auto handle = choreo.place_application(app);
  const place::Placement& placement = choreo.placement_of(handle);

  Table t({"task", "machine (VM index)"});
  for (std::size_t i = 0; i < app.task_count(); ++i) {
    t.add_row({std::to_string(i), std::to_string(placement.machine_of_task[i])});
  }
  std::cout << t.to_string();

  // 5. ...run the real transfers, and compare with a random placement.
  const double t_choreo =
      cloud.execute(choreo.transfers_for(app, placement, 0.0), /*epoch=*/2).makespan_s;

  place::RandomPlacer random(42);
  place::ClusterState fresh(choreo.view());
  const place::Placement random_placement = random.place(app, fresh);
  const double t_random =
      cloud.execute(choreo.transfers_for(app, random_placement, 0.0), 2).makespan_s;

  std::cout << "completion: choreo " << fmt(t_choreo, 2) << " s, random "
            << fmt(t_random, 2) << " s";
  if (t_random > 0.0) {
    std::cout << "  (speed-up " << fmt((t_random - t_choreo) / t_random * 100.0, 1)
              << "%)";
  }
  std::cout << "\n";
  return 0;
}
