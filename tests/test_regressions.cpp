// Regression tests for specific bugs found (and fixed) during development.
// Each test documents the failure mode so it stays fixed.

#include <gtest/gtest.h>

#include "cloud/cloud.h"
#include "core/runtime.h"
#include "lp/simplex.h"
#include "obs/metrics.h"
#include "oracles/multi_tenant_session.h"
#include "oracles/event_train.h"
#include "place/ilp.h"
#include "util/rng.h"
#include "workload/stream.h"

namespace choreo {
namespace {

// --- two-phase simplex: degenerate artificials ------------------------------
//
// Bug: after phase 1, an artificial variable could remain *basic at zero*.
// Phase 2 pivots then pushed it positive again, so solve_lp reported an
// "optimal" solution violating the original equality rows (observed as ILP
// placements where a task was on no machine at all).

TEST(Regression, SimplexDegenerateArtificialsStayOut) {
  using namespace lp;
  // An assignment-like LP with redundant equalities, engineered to leave
  // degenerate artificials: x0+x1 = 1, x2+x3 = 1, coupling rows <= 0 forcing
  // z-style interactions, minimized so phase 2 pivots a lot.
  Model m;
  const auto x0 = m.add_binary(0.0);
  const auto x1 = m.add_binary(0.0);
  const auto x2 = m.add_binary(0.0);
  const auto x3 = m.add_binary(0.0);
  const auto z = m.add_variable(1.0);
  m.add_constraint({{x0, 1.0}, {x1, 1.0}}, Sense::Equal, 1.0);
  m.add_constraint({{x2, 1.0}, {x3, 1.0}}, Sense::Equal, 1.0);
  m.add_constraint({{z, 1.0}, {x0, -5.0}, {x2, -5.0}}, Sense::GreaterEq, 0.0);
  m.add_constraint({{z, 1.0}, {x1, -3.0}, {x3, -3.0}}, Sense::GreaterEq, 0.0);
  const Solution s = solve_ilp(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_TRUE(m.feasible(s.values, 1e-6));
  EXPECT_NEAR(s.values[x0] + s.values[x1], 1.0, 1e-6);
  EXPECT_NEAR(s.values[x2] + s.values[x3], 1.0, 1e-6);
}

TEST(Regression, SimplexRandomEqualityLpsAreFeasible) {
  using namespace lp;
  Rng rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    Model m;
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(3, 7));
    for (std::size_t i = 0; i < n; ++i) m.add_variable(rng.uniform(-3, 3), 0.0, 5.0);
    // A couple of equality rows (these spawn artificials) plus inequalities.
    for (int r = 0; r < 2; ++r) {
      std::vector<Term> terms;
      double magnitude = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double c = rng.uniform(0.0, 2.0);
        terms.push_back({i, c});
        magnitude += c;
      }
      m.add_constraint(std::move(terms), Sense::Equal, rng.uniform(0.5, magnitude));
    }
    for (int r = 0; r < 2; ++r) {
      std::vector<Term> terms;
      for (std::size_t i = 0; i < n; ++i) terms.push_back({i, rng.uniform(0.0, 2.0)});
      m.add_constraint(std::move(terms), Sense::LessEq, rng.uniform(3.0, 15.0));
    }
    const Solution s = solve_lp(m);
    if (s.status != SolveStatus::Optimal) continue;  // infeasible draws are fine
    EXPECT_TRUE(m.feasible(s.values, 1e-5)) << "trial " << trial;
  }
}

// --- ILP placements always assign every task --------------------------------

TEST(Regression, IlpPlacementAlwaysComplete) {
  using namespace place;
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t M = 3;
    ClusterView view;
    view.rate_bps = DoubleMatrix(M, M, 0.0);
    for (std::size_t i = 0; i < M; ++i) {
      for (std::size_t j = 0; j < M; ++j) {
        if (i != j) view.rate_bps(i, j) = rng.uniform(3e8, 1.1e9);
      }
    }
    view.cross_traffic = DoubleMatrix(M, M, 0.0);
    view.cores = {2.0, 2.0, 2.0};
    view.colocation_group = {0, 1, 2};
    Application app;
    app.cpu_demand = {2.0, 2.0, 2.0};
    app.traffic_bytes = DoubleMatrix(3, 3, 0.0);
    app.traffic_bytes(0, 1) = rng.uniform(1e7, 1e9);
    app.traffic_bytes(1, 2) = rng.uniform(1e7, 1e9);
    ClusterState state(view);
    IlpPlacer ilp(RateModel::Hose);
    const Placement p = ilp.place(app, state);
    EXPECT_TRUE(p.complete());
  }
}

// --- token-bucket livelock ---------------------------------------------------
//
// Bug: the wake-up scheduled for "when tokens suffice" could land a float
// ulp short of the packet size, rescheduling with an infinitesimal wait
// forever. The exact configuration that hung: 100 Mbit/s bucket, 8 KB depth,
// 5x200-packet train at 4 Gbit/s line rate.

TEST(Regression, TokenBucketTerminatesOnOriginalHangConfig) {
  using namespace packetsim;
  EventQueue q;
  Receiver sink;
  TokenBucket tb(q, 100e6, 8e3, &sink);
  TrainParams params;
  params.bursts = 5;
  params.burst_length = 200;
  params.line_rate_bps = 4e9;
  send_train(q, tb, params, 1, 0.0);
  // The event count is bounded: if the livelock regressed, this would spin
  // forever (ctest timeout); additionally cap steps defensively.
  std::size_t steps = 0;
  while (q.step()) {
    ASSERT_LT(++steps, 2'000'000u) << "token bucket livelocked";
  }
  EXPECT_EQ(sink.count(), 1000u);
}

TEST(Regression, TokenBucketRateExactUnderLongLoad) {
  using namespace packetsim;
  EventQueue q;
  Receiver sink;
  TokenBucket tb(q, 300e6, 350e3, &sink, 0.5e-3);
  TrainParams params;
  params.bursts = 10;
  params.burst_length = 4000;
  params.line_rate_bps = 1e9;
  send_train(q, tb, params, 1, 0.0);
  q.run();
  ASSERT_EQ(sink.count(), 40000u);
  // Long-run delivery rate must approach the token rate despite per-burst
  // line-rate prefixes.
  const double duration = sink.records().back().time - sink.records().front().time;
  const double rate = 39999.0 * 1500.0 * 8.0 / duration;
  EXPECT_NEAR(rate, 300e6, 30e6);
}

// --- re-evaluation on a full fleet -------------------------------------------
//
// Bug: Choreo::reevaluate re-places every running app from a clean slate with
// the greedy placer. On nearly full fleets that re-plan can find no
// CPU-feasible slot, and its PlacementError escaped SessionRuntime::step,
// ending the session ("greedy: no CPU-feasible path for transfer 0->4" in
// tenant 3 at t = 600 s). The configuration is the shape of the "Known
// crash" recipe of bench/e2e/README.md — 4 tenants x 5 ec2_2013 VMs for
// 0.2 h, 6 250 apps/day each with 4.8 GB median transfers — but not its seed:
// the cloud and stream seeds below are derived the way choreo_bench derives
// them for the first input of --seed=6, found by scanning seeds for one whose
// measured rates lead this MultiTenantSession (each tenant numbering its own
// measurement cycles) to an infeasible re-plan. Measurement noise picks the
// path here; ReplanInfeasibleByCpuKeepsTheCurrentPlan below reaches it by CPU
// demand alone. The re-plan now keeps the current placements and is counted
// as infeasible.

TEST(Regression, InfeasibleReevaluationKeepsTheCurrentPlan) {
  cloud::Cloud cl(cloud::ec2_2013(), 0xa66f3bdc68087d8aull);
  const std::uint64_t stream_seeds[] = {0x1ffc8de49deaae77ull, 0x5e052bb0b3e74b3full,
                                        0x03c886a0385e6f10ull, 0xf9b34ac26bf53307ull};
  workload::TraceConfig trace;
  trace.duration_hours = 0.2;
  trace.apps_per_day = 6250;
  trace.gen.min_tasks = 3;
  trace.gen.max_tasks = 6;
  trace.gen.max_cpu = 2.0;
  trace.gen.median_transfer_bytes = 4.8e9;
  obs::Registry registry;
  std::vector<std::unique_ptr<workload::TraceArrivalStream>> streams;
  std::vector<core::TenantSpec> tenants;
  for (std::size_t i = 0; i < 4; ++i) {
    streams.push_back(std::make_unique<workload::TraceArrivalStream>(stream_seeds[i], trace));
    core::TenantSpec t;
    t.name = "tenant" + std::to_string(i);
    t.vms = cl.allocate_vms(5);
    t.config.choreo.obs.metrics = &registry;
    t.stream = streams.back().get();
    tenants.push_back(std::move(t));
  }
  core::MultiTenantSession session(cl, std::move(tenants));
  core::MultiTenantLog log;
  ASSERT_NO_THROW(log = session.run());
  const obs::MetricsSnapshot snap = registry.snapshot();
  const obs::MetricsSnapshot::CounterValue* infeasible =
      snap.find_counter("place.reeval_infeasible");
  ASSERT_NE(infeasible, nullptr);
  EXPECT_GE(infeasible->value, 1u);
  EXPECT_EQ(snap.find_counter("place.reevals")->value, log.aggregate.reevaluations);
  EXPECT_EQ(log.aggregate.rejected, 0u);
  for (const core::AppOutcome& app : log.aggregate.apps) {
    EXPECT_GE(app.finished_s, app.placed_s) << app.name;
  }
}

// The same path reached by CPU demand alone, whatever the rates: two machines
// of C cores each; the live plan packs app 1 (two half-core tasks) and app 2
// (two (C - 0.5)-core tasks) one task of each per machine, filling both
// exactly. The clean-slate re-plan places app 1 first and, its transfer being
// fastest inside one machine, co-locates it; app 2's tasks then find C - 1
// cores on that machine and cannot share the other one.

TEST(Regression, ReplanInfeasibleByCpuKeepsTheCurrentPlan) {
  cloud::Cloud cl(cloud::ec2_2013(), 3);
  const double cores = cl.machine_cores();
  ASSERT_GT(cores, 1.0);
  obs::Registry registry;
  core::ChoreoConfig config;
  config.use_measured_view = false;  // the rates play no part
  config.obs.metrics = &registry;
  core::Choreo choreo(cl, cl.allocate_vms(2), config);
  choreo.measure_network(1);

  const auto pair_app = [](double cpu) {
    place::Application app;
    app.cpu_demand = {cpu, cpu};
    app.traffic_bytes = DoubleMatrix(2, 2, 0.0);
    app.traffic_bytes(0, 1) = 1e9;
    return app;
  };
  place::Placement split;
  split.machine_of_task = {0, 1};
  const core::Choreo::AppHandle small = choreo.adopt_placement(pair_app(0.5), split);
  const core::Choreo::AppHandle large = choreo.adopt_placement(pair_app(cores - 0.5), split);

  core::Choreo::ReevalReport report;
  ASSERT_NO_THROW(report = choreo.reevaluate(2));
  EXPECT_TRUE(report.infeasible);
  EXPECT_FALSE(report.adopted);
  EXPECT_EQ(report.tasks_migrated, 0u);
  EXPECT_EQ(choreo.placement_of(small).machine_of_task, split.machine_of_task);
  EXPECT_EQ(choreo.placement_of(large).machine_of_task, split.machine_of_task);
  const obs::MetricsSnapshot snap = registry.snapshot();
  ASSERT_NE(snap.find_counter("place.reeval_infeasible"), nullptr);
  EXPECT_EQ(snap.find_counter("place.reeval_infeasible")->value, 1u);
}

}  // namespace
}  // namespace choreo
