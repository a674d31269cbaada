#include <gtest/gtest.h>

#include "place/baselines.h"
#include "place/engine.h"
#include "place/greedy.h"
#include "place/ilp.h"
#include "place/rate_model.h"
#include "util/units.h"

namespace choreo::place {
namespace {

using units::gbps;
using units::mbps;

/// A small uniform cluster: M machines, all pairs at `rate`, 4 cores each.
ClusterView uniform_view(std::size_t machines, double rate = gbps(1), double cores = 4.0) {
  ClusterView view;
  view.rate_bps = DoubleMatrix(machines, machines, rate);
  view.cross_traffic = DoubleMatrix(machines, machines, 0.0);
  view.cores.assign(machines, cores);
  view.colocation_group.resize(machines);
  for (std::size_t m = 0; m < machines; ++m) view.colocation_group[m] = static_cast<int>(m);
  return view;
}

Application two_task_app(double bytes, double cpu = 1.0) {
  Application app;
  app.name = "pair";
  app.cpu_demand = {cpu, cpu};
  app.traffic_bytes = DoubleMatrix(2, 2, 0.0);
  app.traffic_bytes(0, 1) = bytes;
  return app;
}

TEST(App, CombineBlockDiagonal) {
  const Application a = two_task_app(100.0);
  const Application b = two_task_app(200.0);
  const Application c = combine({a, b});
  EXPECT_EQ(c.task_count(), 4u);
  EXPECT_DOUBLE_EQ(c.traffic_bytes(0, 1), 100.0);
  EXPECT_DOUBLE_EQ(c.traffic_bytes(2, 3), 200.0);
  EXPECT_DOUBLE_EQ(c.traffic_bytes(0, 3), 0.0);
}

TEST(App, SortedTransfersDescending) {
  Application app;
  app.cpu_demand = {1, 1, 1};
  app.traffic_bytes = DoubleMatrix(3, 3, 0.0);
  app.traffic_bytes(0, 1) = 10.0;
  app.traffic_bytes(1, 2) = 30.0;
  app.traffic_bytes(2, 0) = 20.0;
  const auto transfers = sorted_transfers(app);
  ASSERT_EQ(transfers.size(), 3u);
  EXPECT_DOUBLE_EQ(transfers[0].bytes, 30.0);
  EXPECT_DOUBLE_EQ(transfers[2].bytes, 10.0);
}

TEST(App, ValidateRejectsBadShapes) {
  Application app;
  app.cpu_demand = {1.0};
  app.traffic_bytes = DoubleMatrix(2, 2, 0.0);
  EXPECT_THROW(app.validate(), PreconditionError);
  app.cpu_demand = {1.0, 1.0};
  app.traffic_bytes(0, 0) = 5.0;  // self traffic
  EXPECT_THROW(app.validate(), PreconditionError);
}

TEST(ClusterState, CommitAndReleaseRoundTrip) {
  ClusterState state(uniform_view(3));
  const Application app = two_task_app(units::megabytes(10), 2.0);
  Placement p;
  p.machine_of_task = {0, 1};
  state.commit(app, p);
  EXPECT_DOUBLE_EQ(state.free_cores(0), 2.0);
  EXPECT_DOUBLE_EQ(state.transfers_on_path(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(state.transfers_out_of(0), 1.0);
  state.release(app, p);
  EXPECT_DOUBLE_EQ(state.free_cores(0), 4.0);
  EXPECT_DOUBLE_EQ(state.transfers_on_path(0, 1), 0.0);
}

TEST(ClusterState, IntraMachinePlacementUsesNoNetwork) {
  ClusterState state(uniform_view(3));
  const Application app = two_task_app(units::megabytes(10));
  Placement p;
  p.machine_of_task = {1, 1};
  state.commit(app, p);
  EXPECT_DOUBLE_EQ(state.transfers_on_path(1, 1), 0.0);
  EXPECT_DOUBLE_EQ(state.transfers_out_of(1), 0.0);
}

TEST(RateModelFn, IntraMachineIsInfinite) {
  ClusterState state(uniform_view(2));
  EXPECT_DOUBLE_EQ(state.engine().rate_bps(0, 0, RateModel::Pipe), kIntraMachineRate);
}

TEST(RateModelFn, PipeDividesByPathLoad) {
  ClusterView view = uniform_view(2);
  EXPECT_DOUBLE_EQ(transfer_rate_bps(view, 0, 1, RateModel::Pipe, 0, 0), gbps(1));
  EXPECT_DOUBLE_EQ(transfer_rate_bps(view, 0, 1, RateModel::Pipe, 1, 0), gbps(0.5));
  EXPECT_DOUBLE_EQ(transfer_rate_bps(view, 0, 1, RateModel::Pipe, 3, 0), gbps(0.25));
}

TEST(RateModelFn, HoseDividesBySourceLoad) {
  ClusterView view = uniform_view(3);
  // One transfer already out of machine 0 (to anywhere): a new one halves.
  EXPECT_DOUBLE_EQ(transfer_rate_bps(view, 0, 1, RateModel::Hose, 0, 1), gbps(0.5));
  // Pipe would not see it (different path).
  EXPECT_DOUBLE_EQ(transfer_rate_bps(view, 0, 1, RateModel::Pipe, 0, 1), gbps(1));
}

TEST(RateModelFn, CrossTrafficReducesRate) {
  ClusterView view = uniform_view(2);
  view.cross_traffic(0, 1) = 1.0;  // measured: one background connection
  // Path capacity = R*(c+1) = 2G; a new transfer shares with c+1 => 1G...
  // with zero own transfers the new one sees capacity/(c+1) = 1G.
  EXPECT_DOUBLE_EQ(transfer_rate_bps(view, 0, 1, RateModel::Pipe, 0, 0), gbps(1));
  // With one own transfer placed: capacity/(c+2).
  EXPECT_NEAR(transfer_rate_bps(view, 0, 1, RateModel::Pipe, 1, 0), 2e9 / 3.0, 1.0);
}

TEST(RateModelFn, ColocatedPairUsesVswitchPath) {
  ClusterView view = uniform_view(3);
  view.colocation_group = {0, 0, 1};  // machines 0,1 share a host
  view.rate_bps(0, 1) = gbps(4);
  view.rate_bps(1, 0) = gbps(4);
  EXPECT_DOUBLE_EQ(transfer_rate_bps(view, 0, 1, RateModel::Hose, 0, 5), gbps(4));
  // Hose of machine 0 ignores the colocated peer's 4G path.
  EXPECT_DOUBLE_EQ(view.hose_bps(0), gbps(1));
}

TEST(Completion, PipeAndHoseDiffer) {
  ClusterView view = uniform_view(3);
  Application app;
  app.cpu_demand = {1, 1, 1};
  app.traffic_bytes = DoubleMatrix(3, 3, 0.0);
  app.traffic_bytes(0, 1) = units::gigabytes(1);
  app.traffic_bytes(0, 2) = units::gigabytes(1);
  Placement p;
  p.machine_of_task = {0, 1, 2};
  // Pipe: two independent 1G paths, 8s each -> 8s.
  EXPECT_NEAR(estimate_completion_s(app, p, view, RateModel::Pipe), 8.0, 1e-9);
  // Hose: both share machine 0's 1G hose -> 16s.
  EXPECT_NEAR(estimate_completion_s(app, p, view, RateModel::Hose), 16.0, 1e-9);
}

TEST(Completion, IntraMachineTransfersAreFree) {
  ClusterView view = uniform_view(2);
  Application app = two_task_app(units::gigabytes(10));
  Placement p;
  p.machine_of_task = {0, 0};
  EXPECT_DOUBLE_EQ(estimate_completion_s(app, p, view, RateModel::Hose), 0.0);
}

TEST(Greedy, CoLocatesHeavyPairWhenCpuAllows) {
  ClusterState state(uniform_view(3));
  const Application app = two_task_app(units::gigabytes(5), 1.0);
  GreedyPlacer greedy(RateModel::Hose);
  const Placement p = greedy.place(app, state);
  EXPECT_EQ(p.machine_of_task[0], p.machine_of_task[1]);
}

TEST(Greedy, SplitsPairWhenCpuForbidsColocation) {
  ClusterState state(uniform_view(3, gbps(1), 4.0));
  const Application app = two_task_app(units::gigabytes(5), 3.0);  // 6 > 4 cores
  GreedyPlacer greedy(RateModel::Hose);
  const Placement p = greedy.place(app, state);
  EXPECT_NE(p.machine_of_task[0], p.machine_of_task[1]);
}

TEST(Greedy, PrefersFastPath) {
  ClusterView view = uniform_view(3, mbps(500));
  view.rate_bps(1, 2) = gbps(2);  // one fast path
  ClusterState state(view);
  Application app = two_task_app(units::gigabytes(5), 3.0);  // cannot co-locate
  GreedyPlacer greedy(RateModel::Hose);
  const Placement p = greedy.place(app, state);
  EXPECT_EQ(p.machine_of_task[0], 1u);
  EXPECT_EQ(p.machine_of_task[1], 2u);
}

TEST(Greedy, PlacesIsolatedTasks) {
  ClusterState state(uniform_view(2));
  Application app;
  app.cpu_demand = {2.0, 2.0, 2.0};
  app.traffic_bytes = DoubleMatrix(3, 3, 0.0);  // no transfers at all
  GreedyPlacer greedy;
  const Placement p = greedy.place(app, state);
  EXPECT_TRUE(p.complete());
  // CPU must be respected: 6 cores over 2 machines of 4.
  std::vector<double> used(2, 0.0);
  for (std::size_t t = 0; t < 3; ++t) used[p.machine_of_task[t]] += 2.0;
  EXPECT_LE(used[0], 4.0);
  EXPECT_LE(used[1], 4.0);
}

TEST(Greedy, ThrowsWhenClusterFull) {
  ClusterState state(uniform_view(2, gbps(1), 1.0));
  const Application app = two_task_app(1e9, 1.5);  // no machine fits 1.5 cores
  GreedyPlacer greedy;
  EXPECT_THROW(greedy.place(app, state), PlacementError);
}

TEST(Greedy, Fig9CounterExampleIsSuboptimal) {
  // Fig 9's structure: the greedy algorithm grabs the fastest (rate-10) path
  // for the heaviest pair (J1,J2), which strands J2 on a machine whose only
  // remaining path has rate 1 — the J2->J4 transfer then dominates. The
  // optimal placement sacrifices the heaviest transfer onto the rate-9 path
  // so that every transfer gets a decent rate.
  // Machines: X=0, A=1, B=2, M=3, N=4; transfers: J1->J2 100 MB,
  // J1->J3 50 MB, J2->J4 50 MB; one task per machine (1 core).
  ClusterView view = uniform_view(5, mbps(0.2), 1.0);
  auto set_pair = [&](std::size_t a, std::size_t b, double rate) {
    view.rate_bps(a, b) = rate;
    view.rate_bps(b, a) = rate;
  };
  set_pair(0, 1, mbps(10));  // X-A: the bait
  set_pair(0, 2, mbps(9));   // X-B: what the optimum uses for J1->J2
  set_pair(2, 3, mbps(8));   // B-M: good egress for J2->J4 in the optimum
  set_pair(1, 4, mbps(1));   // A-N: the trap greedy forces J2->J4 onto

  Application app;
  app.cpu_demand = {1, 1, 1, 1};  // J1..J4, one per machine (cores=1)
  app.traffic_bytes = DoubleMatrix(4, 4, 0.0);
  app.traffic_bytes(0, 1) = units::megabytes(100);  // J1->J2
  app.traffic_bytes(0, 2) = units::megabytes(50);   // J1->J3
  app.traffic_bytes(1, 3) = units::megabytes(50);   // J2->J4

  GreedyPlacer greedy(RateModel::Pipe);
  ClusterState state(view);
  const Placement pg = greedy.place(app, state);
  const double greedy_time = estimate_completion_s(app, pg, view, RateModel::Pipe);

  BruteForcePlacer optimal(RateModel::Pipe);
  const Placement po = optimal.place(app, state);
  const double optimal_time = estimate_completion_s(app, po, view, RateModel::Pipe);

  // The paper's point: greedy is strictly worse here, but still valid.
  EXPECT_GT(greedy_time, optimal_time * 1.01);
  EXPECT_TRUE(pg.complete());
}

TEST(Baselines, RandomRespectsCpu) {
  ClusterState state(uniform_view(3, gbps(1), 2.0));
  Application app;
  app.cpu_demand = {2.0, 2.0, 2.0};
  app.traffic_bytes = DoubleMatrix(3, 3, 0.0);
  app.traffic_bytes(0, 1) = 1e6;
  RandomPlacer random(5);
  const Placement p = random.place(app, state);
  // Each machine has 2 cores: all three tasks land on distinct machines.
  std::set<std::size_t> used(p.machine_of_task.begin(), p.machine_of_task.end());
  EXPECT_EQ(used.size(), 3u);
}

TEST(Baselines, RoundRobinRotates) {
  ClusterState state(uniform_view(4));
  Application app;
  app.cpu_demand = {1.0, 1.0, 1.0, 1.0};
  app.traffic_bytes = DoubleMatrix(4, 4, 0.0);
  app.traffic_bytes(0, 1) = 1.0;
  RoundRobinPlacer rr;
  const Placement p = rr.place(app, state);
  EXPECT_EQ(p.machine_of_task, (std::vector<std::size_t>{0, 1, 2, 3}));
  // Next application continues the rotation.
  const Placement p2 = rr.place(app, state);
  EXPECT_EQ(p2.machine_of_task[0], 0u);  // wrapped around (4 mod 4)
}

TEST(Baselines, MinMachinesPacks) {
  ClusterState state(uniform_view(4));
  Application app;
  app.cpu_demand = {1.0, 1.0, 1.0, 1.0};
  app.traffic_bytes = DoubleMatrix(4, 4, 0.0);
  app.traffic_bytes(0, 1) = 1.0;
  MinMachinesPlacer mm;
  const Placement p = mm.place(app, state);
  // 4 tasks x 1 core pack onto one 4-core machine.
  std::set<std::size_t> used(p.machine_of_task.begin(), p.machine_of_task.end());
  EXPECT_EQ(used.size(), 1u);
}

TEST(Baselines, MinMachinesSpillsWhenFull) {
  ClusterState state(uniform_view(3, gbps(1), 2.0));
  Application app;
  app.cpu_demand = {1.0, 1.0, 1.0};
  app.traffic_bytes = DoubleMatrix(3, 3, 0.0);
  app.traffic_bytes(0, 1) = 1.0;
  MinMachinesPlacer mm;
  const Placement p = mm.place(app, state);
  // Two 1-core tasks pack onto the first 2-core machine; the third spills.
  std::set<std::size_t> used(p.machine_of_task.begin(), p.machine_of_task.end());
  EXPECT_EQ(used.size(), 2u);
  EXPECT_EQ(p.machine_of_task[0], p.machine_of_task[1]);
}

}  // namespace
}  // namespace choreo::place
