#include "flowsim/sim.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "net/topology.h"
#include "util/units.h"

namespace choreo::flowsim {
namespace {

using net::NodeId;
using net::NodeKind;
using net::Topology;

Topology two_hosts(double rate = 1e9) {
  Topology t;
  const NodeId a = t.add_node(NodeKind::Host, "a");
  const NodeId b = t.add_node(NodeKind::Host, "b");
  t.add_duplex_link(a, b, rate, 10e-6);
  return t;
}

TEST(FlowSim, SingleFlowCompletionTime) {
  const Topology t = two_hosts(1e9);
  const net::Router router(t);
  Sim sim(router);
  FlowSpec spec;
  spec.src = 0;
  spec.dst = 1;
  spec.bytes = units::gigabytes(1);  // 8 seconds at 1 Gbit/s
  const FlowId f = sim.add_flow(spec);
  sim.run_to_completion();
  EXPECT_TRUE(sim.flow(f).finished);
  EXPECT_NEAR(sim.flow(f).completion_time, 8.0, 1e-6);
  EXPECT_NEAR(sim.flow(f).bytes_received, 1e9, 1.0);
}

TEST(FlowSim, TwoFlowsShareThenSpeedUp) {
  // Two equal flows on one 1G link: the first half transfers at 500 Mbit/s
  // each; when the smaller one finishes, the bigger accelerates.
  const Topology t = two_hosts(1e9);
  const net::Router router(t);
  Sim sim(router);
  FlowSpec small;
  small.src = 0;
  small.dst = 1;
  small.bytes = 125e6;  // 1 Gbit -> alone 1s, shared 2s
  FlowSpec big = small;
  big.bytes = 250e6;
  const FlowId fs = sim.add_flow(small);
  const FlowId fb = sim.add_flow(big);
  sim.run_to_completion();
  // Shared 500 Mbit/s until small finishes at t=2; big then has 125 MB left
  // at 1 Gbit/s -> 1 more second.
  EXPECT_NEAR(sim.flow(fs).completion_time, 2.0, 1e-6);
  EXPECT_NEAR(sim.flow(fb).completion_time, 3.0, 1e-6);
}

TEST(FlowSim, StaggeredArrival) {
  const Topology t = two_hosts(1e9);
  const net::Router router(t);
  Sim sim(router);
  FlowSpec first;
  first.src = 0;
  first.dst = 1;
  first.bytes = 250e6;  // 2s alone
  FlowSpec second = first;
  second.start_time = 1.0;
  second.bytes = 125e6;
  const FlowId f1 = sim.add_flow(first);
  const FlowId f2 = sim.add_flow(second);
  sim.run_to_completion();
  // f1 alone for 1s (125 MB done), shares 1G for the rest.
  // At t=1: f1 has 125 MB left, f2 has 125 MB; both at 500 Mbit/s -> 2s.
  EXPECT_NEAR(sim.flow(f1).completion_time, 3.0, 1e-6);
  EXPECT_NEAR(sim.flow(f2).completion_time, 3.0, 1e-6);
}

TEST(FlowSim, ExtraResourceHoseCap) {
  const Topology t = two_hosts(10e9);
  const net::Router router(t);
  Sim sim(router);
  const ResourceId hose = sim.add_resource(1e9);
  FlowSpec a;
  a.src = 0;
  a.dst = 1;
  a.bytes = 125e6;
  a.extra_resources = {hose};
  FlowSpec b = a;
  const FlowId fa = sim.add_flow(a);
  const FlowId fb = sim.add_flow(b);
  sim.run_to_completion();
  // Both share the 1G hose despite the 10G link: 2s each (simultaneous).
  EXPECT_NEAR(sim.flow(fa).completion_time, 2.0, 1e-6);
  EXPECT_NEAR(sim.flow(fb).completion_time, 2.0, 1e-6);
}

TEST(FlowSim, RetirementFollowsTheKernelMode) {
  // No opt-in: an Incremental Sim frees a finished finite flow's route and
  // extra resources; a Reference Sim keeps them. Both keep the outcome, and
  // a persistent flow (which never finishes) keeps its storage in either.
  const Topology t = two_hosts(10e9);
  const net::Router router(t);
  for (const KernelMode mode : {KernelMode::Incremental, KernelMode::Reference}) {
    Sim sim(router, 400e9, mode);
    const ResourceId hose = sim.add_resource(1e9);
    FlowSpec finite;
    finite.src = 0;
    finite.dst = 1;
    finite.bytes = 125e6;  // 1 s through the 1G hose
    finite.extra_resources = {hose};
    FlowSpec persistent;
    persistent.src = 0;
    persistent.dst = 1;
    persistent.bytes = kInfiniteBytes;
    const FlowId ff = sim.add_flow(finite);
    const FlowId fp = sim.add_flow(persistent);
    sim.run_to_completion();

    const FlowState& done = sim.flow(ff);
    ASSERT_TRUE(done.finished);
    EXPECT_NEAR(done.completion_time, 1.0, 1e-6);
    EXPECT_NEAR(done.bytes_received, 125e6, 1.0);
    if (mode == KernelMode::Incremental) {
      EXPECT_TRUE(done.route.links.empty());
      EXPECT_TRUE(done.spec.extra_resources.empty());
    } else {
      EXPECT_EQ(done.route.links.size(), 1u);
      EXPECT_EQ(done.spec.extra_resources.size(), 1u);
    }
    EXPECT_EQ(sim.flow(fp).route.links.size(), 1u);
    EXPECT_FALSE(sim.flow(fp).finished);
  }
}

TEST(FlowSim, RateCapRespected) {
  const Topology t = two_hosts(1e9);
  const net::Router router(t);
  Sim sim(router);
  FlowSpec spec;
  spec.src = 0;
  spec.dst = 1;
  spec.bytes = 125e6;
  spec.rate_cap = 100e6;
  const FlowId f = sim.add_flow(spec);
  sim.run_to_completion();
  EXPECT_NEAR(sim.flow(f).completion_time, 10.0, 1e-6);
}

TEST(FlowSim, RateCapDoesNotRedistribute) {
  // rate_cap is applied *after* waterfilling: the capped flow is frozen at
  // min(fair share, cap) but its unused share is NOT handed back to other
  // flows. On a 1G link split two ways, capping A at 100M leaves B at its
  // 500M fair share, not 900M. Cap-aware redistribution is flagged as future
  // work in docs/ARCHITECTURE.md; this test pins the current contract.
  const Topology t = two_hosts(1e9);
  const net::Router router(t);
  Sim sim(router);
  FlowSpec capped;
  capped.src = 0;
  capped.dst = 1;
  capped.bytes = kInfiniteBytes;
  capped.rate_cap = 100e6;
  FlowSpec uncapped = capped;
  uncapped.rate_cap = std::numeric_limits<double>::infinity();
  const FlowId fa = sim.add_flow(capped);
  const FlowId fb = sim.add_flow(uncapped);
  sim.run_until(2.0);
  EXPECT_EQ(sim.flow(fa).rate_bps, 100e6);
  EXPECT_EQ(sim.flow(fb).rate_bps, 0.5e9);
  EXPECT_EQ(sim.flow(fa).bytes_received, 2.0 * 100e6 / 8.0);
  EXPECT_EQ(sim.flow(fb).bytes_received, 2.0 * 0.5e9 / 8.0);
}

TEST(FlowSim, IntraHostFlowUsesUnconstrainedRate) {
  Topology t;
  t.add_node(NodeKind::Host, "a");
  const net::Router router(t);
  Sim sim(router, /*unconstrained_rate=*/8e9);
  FlowSpec spec;
  spec.src = 0;
  spec.dst = 0;
  spec.bytes = 1e9;
  const FlowId f = sim.add_flow(spec);
  sim.run_to_completion();
  EXPECT_NEAR(sim.flow(f).completion_time, 1.0, 1e-6);
}

TEST(FlowSim, PersistentFlowAccumulatesBytes) {
  const Topology t = two_hosts(1e9);
  const net::Router router(t);
  Sim sim(router);
  FlowSpec spec;
  spec.src = 0;
  spec.dst = 1;
  spec.bytes = kInfiniteBytes;
  const FlowId f = sim.add_flow(spec);
  sim.run_until(4.0);
  EXPECT_FALSE(sim.flow(f).finished);
  EXPECT_NEAR(sim.flow(f).bytes_received, 500e6, 1.0);
  EXPECT_DOUBLE_EQ(sim.flow(f).rate_bps, 1e9);
}

TEST(FlowSim, SamplerSeesEvolvingRates) {
  const Topology t = two_hosts(1e9);
  const net::Router router(t);
  Sim sim(router);
  FlowSpec probe;
  probe.src = 0;
  probe.dst = 1;
  probe.bytes = kInfiniteBytes;
  const FlowId f = sim.add_flow(probe);
  FlowSpec competitor = probe;
  competitor.start_time = 1.0;
  sim.add_flow(competitor);

  std::vector<double> rates;
  sim.add_sampler(0.25, 0.5, [&](double) { rates.push_back(sim.flow(f).rate_bps); });
  sim.run_until(2.0);
  ASSERT_GE(rates.size(), 3u);
  EXPECT_DOUBLE_EQ(rates.front(), 1e9);    // alone at t=0.25
  EXPECT_DOUBLE_EQ(rates.back(), 0.5e9);   // sharing after t=1
}

TEST(FlowSim, OnOffFlowTogglesLoad) {
  const Topology t = two_hosts(1e9);
  const net::Router router(t);
  Sim sim(router);
  FlowSpec probe;
  probe.src = 0;
  probe.dst = 1;
  probe.bytes = kInfiniteBytes;
  const FlowId f = sim.add_flow(probe);
  FlowSpec bg = probe;
  sim.add_on_off_flow(bg, 0.5, 0.5, true, 99);

  std::vector<double> rates;
  sim.add_sampler(0.05, 0.05, [&](double) { rates.push_back(sim.flow(f).rate_bps); });
  sim.run_until(10.0);
  bool saw_full = false, saw_half = false;
  for (double r : rates) {
    if (r > 0.99e9) saw_full = true;
    if (r < 0.51e9) saw_half = true;
  }
  EXPECT_TRUE(saw_full);
  EXPECT_TRUE(saw_half);
}

TEST(FlowSim, MakespanTracksLastCompletion) {
  const Topology t = two_hosts(1e9);
  const net::Router router(t);
  Sim sim(router);
  FlowSpec spec;
  spec.src = 0;
  spec.dst = 1;
  spec.bytes = 125e6;
  sim.add_flow(spec);
  spec.bytes = 250e6;
  sim.add_flow(spec);
  sim.run_to_completion();
  EXPECT_NEAR(sim.makespan(), 3.0, 1e-6);
}

TEST(FlowSim, RunToCompletionRequiresFiniteFlow) {
  const Topology t = two_hosts(1e9);
  const net::Router router(t);
  Sim sim(router);
  FlowSpec spec;
  spec.src = 0;
  spec.dst = 1;
  spec.bytes = kInfiniteBytes;
  sim.add_flow(spec);
  EXPECT_THROW(sim.run_to_completion(), PreconditionError);
}

TEST(FlowSim, ArrivalBeforeNowRejected) {
  const Topology t = two_hosts(1e9);
  const net::Router router(t);
  Sim sim(router);
  sim.run_until(5.0);
  FlowSpec spec;
  spec.src = 0;
  spec.dst = 1;
  spec.bytes = 1.0;
  spec.start_time = 1.0;  // in the past
  EXPECT_THROW(sim.add_flow(spec), PreconditionError);
}

// ---- ON-OFF holding times ----------------------------------------------

/// The toggle times an ON-OFF flow added at `start` must have: hold k (the
/// initial state's is hold 0) is mean * keyed_exponential(seed, k), and
/// each toggle lands that long after the previous one.
std::vector<double> keyed_toggles(double start, double mean_on, double mean_off, bool start_on,
                                  std::uint64_t seed, std::size_t n) {
  std::vector<double> out;
  double t = start;
  bool on = start_on;
  for (std::size_t k = 0; k < n; ++k) {
    t = t + (on ? mean_on : mean_off) * keyed_exponential(seed, k);
    out.push_back(t);
    on = !on;
  }
  return out;
}

/// Steps `sim` through `toggles` and checks that flow `f` flips at each one
/// exactly: still in its old state halfway from the previous toggle, in its
/// new state at the instant.
void expect_toggles_at(Sim& sim, FlowId f, bool start_on, const std::vector<double>& toggles) {
  bool on = start_on;
  double previous = sim.now();
  for (std::size_t k = 0; k < toggles.size(); ++k) {
    ASSERT_GT(toggles[k], previous) << "hold " << k << " is not positive";
    sim.run_until(previous + (toggles[k] - previous) / 2);
    ASSERT_EQ(sim.flow(f).on, on) << "toggle " << k << " came early";
    sim.run_until(toggles[k]);
    on = !on;
    ASSERT_EQ(sim.flow(f).on, on) << "toggle " << k << " missing at " << toggles[k];
    previous = toggles[k];
  }
}

FlowSpec persistent(NodeId src, NodeId dst) {
  FlowSpec spec;
  spec.src = src;
  spec.dst = dst;
  spec.bytes = kInfiniteBytes;
  return spec;
}

TEST(OnOffHolds, AFlowTogglesAtItsKeyedTimesAlone) {
  const Topology t = two_hosts(1e9);
  const net::Router router(t);
  Sim sim(router);
  const FlowId f = sim.add_on_off_flow(persistent(0, 1), 0.5, 1.5, true, 77);
  expect_toggles_at(sim, f, true, keyed_toggles(0.0, 0.5, 1.5, true, 77, 200));
}

TEST(OnOffHolds, TwoSimsWithTheSameSeedToggleAlike) {
  // Seed 77 in a Sim of its own and, added third, in a Sim busy with other
  // ON-OFF flows and a finite transfer: both toggle at the keyed times.
  const Topology t = two_hosts(1e9);
  const net::Router router(t);
  const std::vector<double> toggles = keyed_toggles(0.25, 0.5, 1.5, false, 77, 200);
  FlowSpec late = persistent(0, 1);
  late.start_time = 0.25;
  for (const bool crowded : {false, true}) {
    Sim sim(router);
    if (crowded) {
      sim.add_on_off_flow(persistent(0, 1), 0.3, 0.3, true, 5);
      FlowSpec transfer = persistent(1, 0);
      transfer.bytes = 50e6;
      sim.add_flow(transfer);
    }
    const FlowId f = sim.add_on_off_flow(late, 0.5, 1.5, false, 77);
    if (crowded) sim.add_on_off_flow(persistent(1, 0), 0.2, 0.4, false, 6);
    SCOPED_TRACE(crowded ? "crowded" : "alone");
    expect_toggles_at(sim, f, false, toggles);
  }
}

TEST(OnOffHolds, MeanHoldsMatchMeanOnAndMeanOff) {
  const Topology t = two_hosts(1e9);
  const net::Router router(t);
  Sim sim(router);
  constexpr double kOn = 0.25, kOff = 0.75;
  const FlowId f = sim.add_on_off_flow(persistent(0, 1), kOn, kOff, true, 2024);
  const std::vector<double> toggles = keyed_toggles(0.0, kOn, kOff, true, 2024, 8000);
  expect_toggles_at(sim, f, true, toggles);
  // Holds alternate on, off, on, ...: 4000 draws of each.
  double on_sum = 0.0, off_sum = 0.0, previous = 0.0;
  for (std::size_t k = 0; k < toggles.size(); ++k) {
    (k % 2 == 0 ? on_sum : off_sum) += toggles[k] - previous;
    previous = toggles[k];
  }
  EXPECT_NEAR(on_sum / 4000, kOn, 0.05 * kOn);
  EXPECT_NEAR(off_sum / 4000, kOff, 0.05 * kOff);
}

}  // namespace
}  // namespace choreo::flowsim
