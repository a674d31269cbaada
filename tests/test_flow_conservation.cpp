// Conservation and ordering properties of the fluid simulator over random
// scenarios: finished flows deliver exactly their bytes, link capacities are
// never exceeded at sampling instants, completions are consistent with the
// makespan, and persistent flows account for all remaining traffic.

#include <gtest/gtest.h>

#include "flowsim/sim.h"
#include "net/topology.h"
#include <map>

#include "util/rng.h"

namespace choreo::flowsim {
namespace {

net::Topology random_tree(Rng& rng) {
  net::TreeParams p;
  p.pods = static_cast<std::size_t>(rng.uniform_int(1, 3));
  p.racks_per_pod = static_cast<std::size_t>(rng.uniform_int(1, 3));
  p.hosts_per_rack = static_cast<std::size_t>(rng.uniform_int(2, 4));
  p.host_link_bps = rng.uniform(0.5e9, 2e9);
  p.agg_link_bps = 10e9;
  p.core_link_bps = 10e9;
  return make_multi_rooted_tree(p);
}

class ConservationSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConservationSweep, FiniteFlowsDeliverExactly) {
  Rng rng(GetParam());
  const net::Topology topo = random_tree(rng);
  const auto hosts = topo.nodes_of_kind(net::NodeKind::Host);
  const net::Router router(topo);
  Sim sim(router);

  struct Expect {
    FlowId id;
    double bytes;
  };
  std::vector<Expect> finite;
  const std::size_t n_flows = static_cast<std::size_t>(rng.uniform_int(2, 12));
  for (std::size_t f = 0; f < n_flows; ++f) {
    FlowSpec spec;
    spec.src = hosts[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(hosts.size()) - 1))];
    do {
      spec.dst = hosts[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(hosts.size()) - 1))];
    } while (spec.dst == spec.src);
    spec.bytes = rng.uniform(1e6, 5e8);
    spec.start_time = rng.uniform(0.0, 2.0);
    spec.flow_key = f;
    finite.push_back({sim.add_flow(spec), spec.bytes});
  }
  // A couple of ON-OFF background flows to shake up allocations.
  for (int b = 0; b < 2; ++b) {
    FlowSpec bg;
    bg.src = hosts.front();
    bg.dst = hosts.back();
    bg.rate_cap = 2e8;
    sim.add_on_off_flow(bg, 0.5, 0.5, b == 0, GetParam() * 17 + b);
  }

  sim.run_to_completion(1e6);
  double makespan = -1.0;
  for (const Expect& e : finite) {
    const FlowState& st = sim.flow(e.id);
    EXPECT_TRUE(st.finished);
    // Conservation: delivered bytes equal the requested size (within the
    // completion epsilon).
    EXPECT_NEAR(st.bytes_received, e.bytes, 1.0);
    EXPECT_GE(st.completion_time, st.spec.start_time);
    makespan = std::max(makespan, st.completion_time);
  }
  EXPECT_DOUBLE_EQ(sim.makespan(), makespan);
}

TEST_P(ConservationSweep, RatesRespectLinkCapacities) {
  Rng rng(GetParam() + 400);
  const net::Topology topo = random_tree(rng);
  const auto hosts = topo.nodes_of_kind(net::NodeKind::Host);
  const net::Router router(topo);
  Sim sim(router);
  std::vector<FlowId> flows;
  for (std::size_t f = 0; f < 8; ++f) {
    FlowSpec spec;
    spec.src = hosts[f % hosts.size()];
    spec.dst = hosts[(f * 3 + 1) % hosts.size()];
    if (spec.src == spec.dst) continue;
    spec.bytes = kInfiniteBytes;
    spec.flow_key = f;
    flows.push_back(sim.add_flow(spec));
  }
  bool checked = false;
  sim.add_sampler(0.1, 0.25, [&](double) {
    checked = true;
    // Sum of rates of flows sharing each host's access link must not exceed
    // it. (We check access links: every flow's first hop.)
    std::map<net::LinkId, double> load;
    for (FlowId id : flows) {
      const FlowState& st = sim.flow(id);
      if (!st.route.links.empty()) load[st.route.links.front()] += st.rate_bps;
    }
    for (const auto& [link, rate] : load) {
      EXPECT_LE(rate, topo.link(link).capacity_bps * (1.0 + 1e-9));
    }
  });
  sim.run_until(1.0);
  EXPECT_TRUE(checked);
}

INSTANTIATE_TEST_SUITE_P(RandomScenarios, ConservationSweep,
                         ::testing::Range<std::uint64_t>(0, 15));

TEST(Conservation, ZeroLengthWindowNoBytes) {
  net::Topology topo;
  const auto a = topo.add_node(net::NodeKind::Host, "a");
  const auto b = topo.add_node(net::NodeKind::Host, "b");
  topo.add_duplex_link(a, b, 1e9, 1e-6);
  const net::Router router(topo);
  Sim sim(router);
  FlowSpec spec;
  spec.src = a;
  spec.dst = b;
  spec.bytes = kInfiniteBytes;
  const FlowId f = sim.add_flow(spec);
  sim.run_until(0.0);
  EXPECT_DOUBLE_EQ(sim.flow(f).bytes_received, 0.0);
}

}  // namespace
}  // namespace choreo::flowsim
