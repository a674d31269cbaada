#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "cloud/cloud.h"
#include "forecast/refresher.h"
#include "measure/bottleneck.h"
#include "measure/calibration.h"
#include "measure/cross_traffic.h"
#include "measure/packet_train.h"
#include "measure/throughput_matrix.h"
#include "util/stats.h"
#include "util/units.h"

namespace choreo::measure {
namespace {

using packetsim::RecordingSink;
using packetsim::TrainParams;
using packetsim::summarize;
using units::mbps;

/// Synthesizes a perfect receiver log: B packets per burst arriving at
/// exactly `rate_bps`, bursts back to back.
std::vector<RecordingSink::Record> ideal_records(const TrainParams& p, double rate_bps) {
  std::vector<RecordingSink::Record> out;
  const double per_packet = (p.packet_bytes + p.header_bytes) * 8.0 / rate_bps;
  double t = 0.0;
  std::uint64_t seq = 0;
  for (std::uint32_t k = 0; k < p.bursts; ++k) {
    for (std::uint32_t i = 0; i < p.burst_length; ++i) {
      out.push_back({1, seq++, k, p.packet_bytes + p.header_bytes, t});
      t += per_packet;
    }
    t += p.inter_burst_gap_s;
  }
  return out;
}

TEST(TrainEstimator, ExactOnIdealLog) {
  TrainParams p;
  p.bursts = 10;
  p.burst_length = 200;
  const auto records = ideal_records(p, mbps(950));
  const TrainEstimate est = estimate_train_throughput(summarize(records, p), p, 1e-3);
  // The estimator sees payload bytes over wire-time: payload/wire ratio off
  // plus the (B-1)/B fence-post; both are < 3% here.
  EXPECT_NEAR(est.throughput_bps, mbps(950) * 1472.0 / 1500.0, mbps(15));
  EXPECT_DOUBLE_EQ(est.loss_rate, 0.0);
  EXPECT_EQ(est.bursts_used, 10u);
}

TEST(TrainEstimator, HeadTailLossAdjustment) {
  TrainParams p;
  p.bursts = 2;
  p.burst_length = 100;
  auto records = ideal_records(p, mbps(500));
  // Drop the first 10 packets of burst 0 and last 10 of burst 1.
  std::vector<RecordingSink::Record> damaged;
  for (const auto& r : records) {
    if (r.burst == 0 && r.seq < 10) continue;
    if (r.burst == 1 && r.seq >= 190) continue;
    damaged.push_back(r);
  }
  const TrainEstimate est = estimate_train_throughput(summarize(damaged, p), p, 1e-3);
  // The time adjustment reconstructs the full-burst duration, so head/tail
  // losses penalize the rate term exactly like interior losses would:
  // est = clean_rate * received/(B-1)-ish = 500 * (1472/1500) * 180/198.
  const double clean = mbps(500) * 1472.0 / 1500.0;
  EXPECT_NEAR(est.rate_term_bps, clean * 180.0 / 198.0, mbps(5));
  EXPECT_NEAR(est.loss_rate, 0.1, 0.01);
}

TEST(TrainEstimator, MathisTermCapsLossyPaths) {
  TrainParams p;
  p.bursts = 5;
  p.burst_length = 100;
  auto records = ideal_records(p, mbps(900));
  // Keep only every other packet: 50% loss (interior losses).
  std::vector<RecordingSink::Record> damaged;
  for (const auto& r : records) {
    if (r.seq % 2 == 0) damaged.push_back(r);
  }
  const TrainEstimate est = estimate_train_throughput(summarize(damaged, p), p, /*rtt=*/10e-3);
  EXPECT_NEAR(est.loss_rate, 0.5, 0.01);
  // Mathis: 8*1472*1.2247 / (0.01 * sqrt(0.5)) ~ 2.0 Mbit/s -> far below rate
  // term, so the min must pick it.
  EXPECT_LT(est.throughput_bps, mbps(3));
  EXPECT_EQ(est.throughput_bps, est.mathis_term_bps);
}

TEST(TrainEstimator, EmptyLog) {
  TrainParams p;
  const TrainEstimate est = estimate_train_throughput(summarize({}, p), p, 1e-3);
  EXPECT_DOUBLE_EQ(est.throughput_bps, 0.0);
  EXPECT_EQ(est.packets_received, 0u);
}

TEST(TrainDuration, MatchesArithmetic) {
  TrainParams p;
  p.bursts = 10;
  p.burst_length = 200;
  p.packet_bytes = 1472;
  p.header_bytes = 28;
  p.line_rate_bps = 4e9;
  p.inter_burst_gap_s = 1e-3;
  // 200 * 1500B * 8 / 4G = 0.6 ms per burst; 10 bursts + 9 gaps.
  EXPECT_NEAR(train_duration_s(p), 10 * 0.6e-3 + 9 * 1e-3, 1e-9);
  // "An individual train takes less than one second to send" (§4.1).
  EXPECT_LT(train_duration_s(p), 1.0);
}

TEST(CrossTraffic, EstimatorInvertsFairShare) {
  EXPECT_DOUBLE_EQ(cross_traffic_estimate(mbps(250), mbps(1000)), 3.0);
  EXPECT_DOUBLE_EQ(cross_traffic_estimate(mbps(1000), mbps(1000)), 0.0);
  EXPECT_DOUBLE_EQ(cross_traffic_estimate(0.0, mbps(1000)), 0.0);  // degenerate
  const auto series = cross_traffic_series({mbps(500), mbps(333.3333333)}, mbps(1000));
  EXPECT_NEAR(series[0], 1.0, 1e-9);
  EXPECT_NEAR(series[1], 2.0, 1e-6);
}

TEST(CrossTraffic, UnknownRateRecoversBoth) {
  // True: C = 1G, c = 1 -> r1 = 500M, s2 = 2*333.3M = 666.7M.
  const auto est = cross_traffic_unknown_rate(mbps(500), mbps(2000.0 / 3.0));
  EXPECT_NEAR(est.c, 1.0, 1e-6);
  EXPECT_NEAR(est.path_rate_bps, mbps(1000), mbps(1));
}

TEST(CrossTraffic, UnknownRateUnloadedPath) {
  // Unloaded 1G path: r1 = 1G... but two connections share it: s2 = 1G.
  const auto est = cross_traffic_unknown_rate(mbps(1000), mbps(1000));
  EXPECT_NEAR(est.c, 0.0, 1e-6);
}

// Two connections that together carry more than twice what one got lie
// outside the §3.2 model (there s2 < 2*r1 always): the path showed no
// cross traffic, and it carried at least s2.
TEST(CrossTraffic, UnknownRateAboveTwiceOneConnectionIsUnloaded) {
  for (const double s2 : {mbps(1000), mbps(1000) + 1e-6, mbps(1100)}) {
    SCOPED_TRACE(s2);
    const auto est = cross_traffic_unknown_rate(mbps(500), s2);
    EXPECT_EQ(est.c, 0.0);
    EXPECT_GE(est.path_rate_bps, s2);
  }
}

// The estimate scales with the rates: doubling both leaves c unchanged and
// doubles the path rate, inside the model and outside it.
TEST(CrossTraffic, UnknownRateScalesWithBothRates) {
  const double cases[][2] = {{mbps(500), mbps(2000.0 / 3.0)},
                             {mbps(300), mbps(450)},
                             {mbps(1000), mbps(1000)},
                             {mbps(500), mbps(1000)},
                             {mbps(500), mbps(1100)}};
  for (const auto& [r1, s2] : cases) {
    SCOPED_TRACE(std::to_string(r1) + " " + std::to_string(s2));
    const auto base = cross_traffic_unknown_rate(r1, s2);
    const auto doubled = cross_traffic_unknown_rate(2.0 * r1, 2.0 * s2);
    EXPECT_EQ(doubled.c, base.c);
    EXPECT_EQ(doubled.path_rate_bps, 2.0 * base.path_rate_bps);
  }
}

TEST(MatrixMeasurement, CoversAllPairsWithinMinutes) {
  cloud::Cloud c(cloud::ec2_2013(), 17);
  const auto vms = c.allocate_vms(5);
  MeasurementPlan plan;
  plan.train.bursts = 10;
  plan.train.burst_length = 200;
  const std::vector<ProbePair> pairs = all_ordered_pairs(vms.size());
  const PairsResult result = measure_rate_pairs(c, vms, pairs, plan, 1);
  ASSERT_EQ(result.rate_bps.size(), 20u);
  EXPECT_EQ(result.rounds, 4u);
  EXPECT_DOUBLE_EQ(result.wall_time_s, measurement_wall_time_s(plan, 4));
  for (double r : result.rate_bps) EXPECT_GT(r, mbps(100));
}

TEST(MatrixMeasurement, TenVmSnapshotUnderThreeMinutes) {
  // The paper's headline: 90 pairs in < 3 minutes including overheads.
  MeasurementPlan plan;
  plan.train.bursts = 10;
  plan.train.burst_length = 200;
  plan.train.line_rate_bps = 4e9;
  const double wall =
      kSetupOverheadS + 9.0 * (train_duration_s(plan.train) + kRoundOverheadS);
  EXPECT_LT(wall, 180.0);
}

TEST(MatrixMeasurement, PairSubsetMatchesScheduleArithmetic) {
  cloud::Cloud c(cloud::ec2_2013(), 17);
  const auto vms = c.allocate_vms(6);
  MeasurementPlan plan;
  plan.train.bursts = 5;
  plan.train.burst_length = 100;
  // Two disjoint pairs plus one sharing a source: max degree 2 -> 2 rounds.
  const std::vector<ProbePair> pairs{{0, 1}, {2, 3}, {0, 4}};
  const PairsResult result = measure_rate_pairs(c, vms, pairs, plan, 1);
  ASSERT_EQ(result.rate_bps.size(), 3u);
  EXPECT_EQ(result.rounds, 2u);
  EXPECT_DOUBLE_EQ(result.wall_time_s, measurement_wall_time_s(plan, 2));
  for (double r : result.rate_bps) EXPECT_GT(r, mbps(10));
  // Empty request: free.
  const PairsResult none = measure_rate_pairs(c, vms, {}, plan, 1);
  EXPECT_TRUE(none.rate_bps.empty());
  EXPECT_DOUBLE_EQ(none.wall_time_s, 0.0);
}

// Bug: round r of a cycle probed against the snapshot of (epoch + r), so
// round r + 1 of cycle e and round r of cycle e + 1 read the same background
// and the same train noise. On ec2_2013 (seed 7, 6 VMs) every pair that a
// full sweep at epoch 10 put in rounds 1 to 4 gave a bit-identical estimate
// when probed alone at epoch 10 + r, so a re-probe could hide a pair's
// volatility. Rounds now key their snapshot by (epoch, round) jointly.
TEST(MatrixMeasurement, LaterRoundsDoNotReplayLaterCycles) {
  cloud::Cloud c(cloud::ec2_2013(), 7);
  const auto vms = c.allocate_vms(6);
  MeasurementPlan plan;
  plan.train.bursts = 5;
  plan.train.burst_length = 100;
  const std::uint64_t epoch = 10;
  const std::vector<ProbePair> pairs = all_ordered_pairs(vms.size());
  const PairsResult sweep = measure_rate_pairs(c, vms, pairs, plan, epoch);
  const ProbeSchedule schedule = schedule_probes(vms.size(), pairs);
  std::size_t probed = 0, replayed = 0;
  for (std::size_t r = 1; r < schedule.rounds.size(); ++r) {
    for (const ProbePair& p : schedule.rounds[r]) {
      const auto k = static_cast<std::size_t>(
          std::find_if(pairs.begin(), pairs.end(),
                       [&](const ProbePair& q) { return q.src == p.src && q.dst == p.dst; }) -
          pairs.begin());
      ASSERT_LT(k, pairs.size());
      const PairsResult alone = measure_rate_pairs(c, vms, {p}, plan, epoch + r);
      ++probed;
      if (alone.rate_bps[0] == sweep.rate_bps[k]) ++replayed;
    }
  }
  EXPECT_EQ(probed, 24u);
  EXPECT_EQ(replayed, 0u);
}

TEST(MatrixMeasurement, TrainEstimatesNearTruth) {
  cloud::Cloud c(cloud::ec2_2013(), 23);
  const auto vms = c.allocate_vms(5);
  MeasurementPlan plan;
  plan.train.bursts = 10;
  plan.train.burst_length = 200;
  const std::vector<ProbePair> pairs = all_ordered_pairs(vms.size());
  const PairsResult result = measure_rate_pairs(c, vms, pairs, plan, 1);
  std::vector<double> errors;
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    const cloud::VmId src = vms[pairs[k].src], dst = vms[pairs[k].dst];
    if (c.vm_host(src) == c.vm_host(dst)) continue;
    errors.push_back(relative_error(result.rate_bps[k], c.true_path_rate_bps(src, dst, 1)));
  }
  ASSERT_FALSE(errors.empty());
  EXPECT_LT(mean(errors), 0.20);  // §4.1 reports ~9% on EC2
}

TEST(ClusterViews, MeasuredAndTrueAgreeOnColocation) {
  cloud::ProviderProfile profile = cloud::ec2_2013();
  profile.colocate_prob = 0.6;  // force some same-host pairs
  cloud::Cloud c(profile, 2);
  const auto vms = c.allocate_vms(6);
  MeasurementPlan plan;
  plan.train.bursts = 5;
  plan.train.burst_length = 100;
  const place::ClusterView measured = measured_cluster_view(c, vms, plan, 1);
  const place::ClusterView truth = true_cluster_view(c, vms, 1);
  ASSERT_LT(*std::max_element(truth.colocation_group.begin(), truth.colocation_group.end()),
            5);  // at least one same-host pair among the six VMs
  for (std::size_t i = 0; i < vms.size(); ++i) {
    for (std::size_t j = 0; j < vms.size(); ++j) {
      EXPECT_EQ(measured.colocated(i, j), truth.colocated(i, j));
    }
  }
  measured.validate();
  truth.validate();
}

// The measured and the ground-truth views build their topology in one
// place: cores, traceroute hops and co-location groups agree exactly, and
// the groups are the true hosts — also on Rackspace, whose traceroute hides
// the switch tiers and reads every cross-host pair as 4 hops.
TEST(ClusterViews, CachedAndTrueViewsShareTopology) {
  for (cloud::ProviderProfile profile : {cloud::ec2_2013(), cloud::rackspace()}) {
    SCOPED_TRACE(profile.name);
    profile.colocate_prob = 0.6;  // force some same-host pairs
    cloud::Cloud c(profile, 2);
    const auto vms = c.allocate_vms(6);
    std::size_t shared_host = 0, cross_host = 0;
    for (std::size_t i = 0; i < vms.size(); ++i) {
      for (std::size_t j = i + 1; j < vms.size(); ++j) {
        ++(c.vm_host(vms[i]) == c.vm_host(vms[j]) ? shared_host : cross_host);
      }
    }
    ASSERT_GT(shared_host, 0u);
    ASSERT_GT(cross_host, 0u);

    const ViewCache cache(vms.size());
    const place::ClusterView cached = cached_cluster_view(c, vms, cache, 1);
    const place::ClusterView truth = true_cluster_view(c, vms, 1);
    EXPECT_EQ(cached.cores, truth.cores);
    EXPECT_TRUE(cached.hops == truth.hops);
    EXPECT_EQ(cached.colocation_group, truth.colocation_group);
    for (std::size_t i = 0; i < vms.size(); ++i) {
      for (std::size_t j = 0; j < vms.size(); ++j) {
        EXPECT_EQ(truth.colocated(i, j), c.vm_host(vms[i]) == c.vm_host(vms[j]));
      }
    }
  }
}

// The paper benches' one-shot view and Choreo's first refresh cycle are the
// same measurement: a full sweep of an empty cache at one epoch.
TEST(ClusterViews, MeasuredViewIsTheFirstRefresherCycle) {
  for (cloud::ProviderProfile profile : {cloud::ec2_2013(), cloud::rackspace()}) {
    SCOPED_TRACE(profile.name);
    profile.colocate_prob = 0.6;  // force some same-host pairs
    cloud::Cloud c(profile, 2);
    const auto vms = c.allocate_vms(6);
    MeasurementPlan plan;
    plan.train.bursts = 5;
    plan.train.burst_length = 100;
    const place::ClusterView measured = measured_cluster_view(c, vms, plan, 4);
    forecast::Refresher refresher(c, vms, RefreshPolicy{}, forecast::ForecastOptions{});
    const place::ClusterView first = refresher.run_in_process(c, plan, 4).view;
    EXPECT_TRUE(measured.rate_bps == first.rate_bps);
    EXPECT_TRUE(measured.pair_epoch == first.pair_epoch);
    EXPECT_TRUE(measured.hops == first.hops);
    EXPECT_EQ(measured.colocation_group, first.colocation_group);
    EXPECT_EQ(measured.cores, first.cores);
    EXPECT_EQ(measured.view_epoch, first.view_epoch);
  }
}

TEST(InterferenceRules, SourceHose) {
  PathRelations rel;
  rel.same_source = true;
  EXPECT_TRUE(predict_interference(rel, BottleneckSite::SourceHose));
  rel.same_source = false;
  rel.sources_same_rack = true;
  EXPECT_FALSE(predict_interference(rel, BottleneckSite::SourceHose));
}

TEST(InterferenceRules, TorUplinkRule1) {
  PathRelations rel;
  rel.sources_same_rack = true;
  rel.b_on_that_rack = false;
  rel.d_on_that_rack = false;
  EXPECT_TRUE(predict_interference(rel, BottleneckSite::TorUplink));
  rel.b_on_that_rack = true;  // B stays on the rack: no uplink crossing
  EXPECT_FALSE(predict_interference(rel, BottleneckSite::TorUplink));
}

TEST(InterferenceRules, AggToCoreRule2) {
  PathRelations rel;
  rel.sources_same_subtree = true;
  rel.b_in_that_subtree = false;
  rel.d_in_that_subtree = false;
  EXPECT_TRUE(predict_interference(rel, BottleneckSite::AggToCore));
  rel.d_in_that_subtree = true;
  EXPECT_FALSE(predict_interference(rel, BottleneckSite::AggToCore));
}

TEST(Bottlenecks, Ec2ShowsSourceBottleneckAndHose) {
  cloud::Cloud c(cloud::ec2_2013(), 37);
  const auto vms = c.allocate_vms(10);
  const BottleneckReport report = locate_bottlenecks(c, vms, 6, 3.0, 41, 100);
  EXPECT_EQ(report.same_source_interfering, report.same_source_probes);
  EXPECT_EQ(report.disjoint_interfering, 0u);
  EXPECT_TRUE(report.source_bottleneck);
  EXPECT_TRUE(report.hose_model);
  EXPECT_NEAR(report.mean_same_source_sum_ratio, 1.0, 0.1);
}

TEST(Calibration, RecommendPicksCheapestWithinTarget) {
  std::vector<CalibrationPoint> points;
  points.push_back({10, 200, 0.09, 0.08, 0.7});
  points.push_back({10, 2000, 0.04, 0.03, 7.0});
  points.push_back({50, 2000, 0.03, 0.03, 35.0});
  packetsim::TrainParams base;
  const auto rec = recommend_train(points, base, 0.10);
  EXPECT_EQ(rec.burst_length, 200u);
  const auto strict = recommend_train(points, base, 0.035);
  EXPECT_EQ(strict.burst_length, 2000u);
  EXPECT_EQ(strict.bursts, 50u);
  // Impossible target: fall back to the most accurate.
  const auto best = recommend_train(points, base, 0.001);
  EXPECT_EQ(best.bursts, 50u);
}

}  // namespace
}  // namespace choreo::measure
