// End-to-end determinism: every stochastic component is seeded, so a full
// measure -> place -> execute pipeline must be bit-reproducible for one seed
// and (almost surely) different across seeds. This is what makes every bench
// row in EXPERIMENTS.md regenerable.

#include <gtest/gtest.h>

#include <array>

#include "core/choreo.h"
#include "measure/throughput_matrix.h"
#include "util/worker_pool.h"
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

// Once its fleet is allocated the cloud is immutable: every harness probe is
// a pure function of (seed, epoch, pair), so neither call order, nor other
// probes run in between, nor threads sharing one const cloud move a reading.
struct HarnessReadings {
  double netperf = 0.0;
  std::vector<double> concurrent;
  std::vector<double> series;
  double true_rate = 0.0;
  std::vector<double> completion;
  packetsim::TrainSummary train;

  bool operator==(const HarnessReadings&) const = default;
};

constexpr std::size_t kHarnessProbes = 6;

/// Takes reading `probe` of HarnessReadings on `c` over the fleet `vms`.
void read_probe(const cloud::Cloud& c, const std::vector<cloud::VmId>& vms, std::size_t probe,
                HarnessReadings& out) {
  constexpr std::uint64_t kEpoch = 4;
  switch (probe) {
    case 0:
      out.netperf = c.netperf_bps(vms[0], vms[1], 2.0, kEpoch);
      break;
    case 1:
      out.concurrent = c.netperf_concurrent_bps(
          {{vms[0], vms[1]}, {vms[0], vms[2]}, {vms[3], vms[4]}}, 2.0, kEpoch);
      break;
    case 2:
      out.series = c.probe_series_bps(vms[2], vms[3], 0.5, 0.01, kEpoch);
      break;
    case 3:
      out.true_rate = c.true_path_rate_bps(vms[1], vms[4], kEpoch);
      break;
    case 4:
      out.completion = c.execute({{vms[0], vms[3], 4e8, 0.0}, {vms[5], vms[3], 2e8, 0.1}},
                                 kEpoch)
                           .completion_s;
      break;
    case 5: {
      packetsim::TrainParams params;
      params.bursts = 5;
      params.burst_length = 100;
      c.run_train_in_snapshot(vms[0], vms[5], params, cloud::Cloud::TrafficSnapshot{kEpoch, {}},
                              out.train);
      break;
    }
  }
}

/// Probes of other pairs and epochs, interleaved between the readings: none
/// may move a reading.
void read_distractors(const cloud::Cloud& c, const std::vector<cloud::VmId>& vms,
                      std::size_t k) {
  packetsim::TrainParams params;
  params.bursts = 3;
  params.burst_length = 50;
  packetsim::TrainSummary summary;
  c.netperf_bps(vms[1], vms[0], 1.0, k);
  c.netperf_concurrent_bps({{vms[1], vms[0]}, {vms[2], vms[5]}}, 1.0, k + 1);
  c.run_train_in_snapshot(vms[5], vms[0], params, cloud::Cloud::TrafficSnapshot{k, {}},
                          summary);
  c.run_train_in_snapshot(vms[2], vms[4], params, c.round_snapshot(k, 1), summary);
}

TEST(Determinism, HarnessProbesIgnoreCallOrder) {
  cloud::Cloud forward_cloud(cloud::ec2_2013(), 61), reverse_cloud(cloud::ec2_2013(), 61);
  const std::vector<cloud::VmId> vms = forward_cloud.allocate_vms(6);
  ASSERT_EQ(reverse_cloud.allocate_vms(6), vms);
  // The train crosses the fabric, so its shaper jitter is drawn too.
  ASSERT_NE(forward_cloud.vm_host(vms[0]), forward_cloud.vm_host(vms[5]));

  HarnessReadings forward;
  for (std::size_t p = 0; p < kHarnessProbes; ++p) read_probe(forward_cloud, vms, p, forward);
  HarnessReadings reverse;
  for (std::size_t p = kHarnessProbes; p-- > 0;) {
    read_distractors(reverse_cloud, vms, p + 7);
    read_probe(reverse_cloud, vms, p, reverse);
  }
  EXPECT_FALSE(forward.concurrent.empty() || forward.series.empty() ||
               forward.completion.empty() || forward.train.bursts.empty());
  EXPECT_TRUE(forward == reverse);

  // Four workers over one const cloud, each taking every reading in its own
  // rotation with distractors between, race nothing and read the same.
  const cloud::Cloud& shared = forward_cloud;
  std::array<HarnessReadings, 4> concurrent;
  util::run_workers(4, [&](unsigned w) {
    for (std::size_t i = 0; i < kHarnessProbes; ++i) {
      read_distractors(shared, vms, w + i);
      read_probe(shared, vms, (i + w) % kHarnessProbes, concurrent[w]);
    }
  });
  for (const HarnessReadings& r : concurrent) EXPECT_TRUE(r == forward);
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
