// End-to-end determinism: every stochastic component is seeded, so a full
// measure -> place -> execute pipeline must be bit-reproducible for one seed
// and (almost surely) different across seeds. This is what makes every bench
// row in EXPERIMENTS.md regenerable.

#include <gtest/gtest.h>

#include "core/choreo.h"
#include "measure/throughput_matrix.h"
#include "workload/generator.h"
#include "workload/trace.h"

namespace choreo {
namespace {

struct PipelineResult {
  std::vector<double> rates;
  std::vector<std::size_t> machines;
  double makespan = 0.0;
};

PipelineResult run_pipeline(std::uint64_t seed) {
  cloud::Cloud c(cloud::ec2_2013(), seed);
  const auto vms = c.allocate_vms(6);
  core::ChoreoConfig config;
  config.plan.train.bursts = 5;
  config.plan.train.burst_length = 100;
  core::Choreo choreo(c, vms, config);
  choreo.measure_network(1);

  Rng rng(seed * 13 + 1);
  workload::GeneratorConfig gen;
  gen.max_tasks = 5;
  gen.max_cpu = 2.0;
  const place::Application app = workload::generate_app(rng, gen);
  const auto handle = choreo.place_application(app);

  PipelineResult out;
  const place::ClusterView& view = choreo.view();
  for (std::size_t i = 0; i < vms.size(); ++i) {
    for (std::size_t j = 0; j < vms.size(); ++j) {
      if (i != j) out.rates.push_back(view.rate_bps(i, j));
    }
  }
  out.machines = choreo.placement_of(handle).machine_of_task;
  out.makespan =
      c.execute(choreo.transfers_for(app, choreo.placement_of(handle), 0.0), 2).makespan_s;
  return out;
}

TEST(Determinism, IdenticalSeedsIdenticalPipeline) {
  const PipelineResult a = run_pipeline(31);
  const PipelineResult b = run_pipeline(31);
  ASSERT_EQ(a.rates.size(), b.rates.size());
  for (std::size_t i = 0; i < a.rates.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.rates[i], b.rates[i]);
  }
  EXPECT_EQ(a.machines, b.machines);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
}

TEST(Determinism, DifferentSeedsDiffer) {
  const PipelineResult a = run_pipeline(31);
  const PipelineResult b = run_pipeline(32);
  bool any_rate_differs = false;
  for (std::size_t i = 0; i < std::min(a.rates.size(), b.rates.size()); ++i) {
    if (a.rates[i] != b.rates[i]) any_rate_differs = true;
  }
  EXPECT_TRUE(any_rate_differs);
}

TEST(Determinism, TraceIsReproducible) {
  const workload::HpCloudTrace t1(5, workload::TraceConfig{});
  const workload::HpCloudTrace t2(5, workload::TraceConfig{});
  ASSERT_EQ(t1.apps().size(), t2.apps().size());
  for (std::size_t i = 0; i < t1.apps().size(); i += 17) {
    EXPECT_DOUBLE_EQ(t1.apps()[i].start_s, t2.apps()[i].start_s);
    EXPECT_TRUE(t1.apps()[i].app.traffic_bytes == t2.apps()[i].app.traffic_bytes);
  }
}

// §4.1 parallel measurement must be a pure wall-clock optimization: running
// one round's trains on a worker pool yields byte-identical rate matrices to
// running them one after another, because every train's noise derives from
// (seed, epoch, src, dst) rather than from shared RNG state or scheduling
// order.
TEST(Determinism, ParallelProbingMatchesSequentialBitForBit) {
  const auto measure_with_workers = [](unsigned workers) {
    cloud::Cloud c(cloud::ec2_2013(), 53);
    const auto vms = c.allocate_vms(8);
    measure::MeasurementPlan plan;
    plan.train.bursts = 5;
    plan.train.burst_length = 100;
    plan.workers = workers;
    return measure::measure_rate_pairs(c, vms, measure::all_ordered_pairs(vms.size()), plan,
                                       /*epoch=*/3);
  };
  const measure::PairsResult seq = measure_with_workers(1);
  const measure::PairsResult par = measure_with_workers(4);
  ASSERT_EQ(seq.rate_bps.size(), 8u * 7u);
  EXPECT_TRUE(seq.rate_bps == par.rate_bps);  // exact, not approximate
  EXPECT_EQ(seq.rounds, par.rounds);
  EXPECT_DOUBLE_EQ(seq.wall_time_s, par.wall_time_s);

  // And again, to pin that the parallel path itself is run-to-run stable.
  const measure::PairsResult par2 = measure_with_workers(4);
  EXPECT_TRUE(par.rate_bps == par2.rate_bps);
}

TEST(Determinism, ExecutionEpochsMatter) {
  // Use a congested profile (heavy biased background) so that background
  // realizations actually shape tenant flows — the stock EC2 profile is
  // hose-limited almost everywhere, by design.
  cloud::ProviderProfile profile = cloud::ec2_2013();
  profile.bg_flow_count = 80;
  profile.bg_rate_cap_bps = 3e9;
  profile.bg_core_bias = 1.0;
  cloud::Cloud c(profile, 77);
  const auto vms = c.allocate_vms(8);
  std::vector<cloud::Cloud::Transfer> transfers;
  for (std::size_t i = 0; i + 1 < vms.size(); i += 2) {
    transfers.push_back({vms[i], vms[i + 1], 2e9, 0.0});
  }
  const auto r1 = c.execute(transfers, 1);
  const auto r1b = c.execute(transfers, 1);
  const auto r2 = c.execute(transfers, 2);
  EXPECT_DOUBLE_EQ(r1.makespan_s, r1b.makespan_s);  // same epoch: same background
  bool any_differs = r1.makespan_s != r2.makespan_s;
  for (std::size_t k = 0; k < r1.completion_s.size(); ++k) {
    if (r1.completion_s[k] != r2.completion_s[k]) any_differs = true;
  }
  EXPECT_TRUE(any_differs);  // fresh background realization
}

}  // namespace
}  // namespace choreo
