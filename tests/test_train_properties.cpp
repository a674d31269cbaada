// Property sweeps on the packet-train estimator (§3.1) against the
// packet-level substrate: convergence to the enforced rate, shaper-depth
// effects, and robustness to timestamp jitter.

#include <gtest/gtest.h>

#include "measure/packet_train.h"
#include "oracles/event_train.h"
#include "packetsim/sink.h"
#include "util/stats.h"

namespace choreo::measure {
namespace {

using packetsim::EventQueue;
using packetsim::HopSpec;
using packetsim::Path;
using packetsim::Receiver;
using packetsim::ShaperSpec;
using packetsim::TrainParams;
using packetsim::summarize;

struct PathConfig {
  double hose_bps = 950e6;
  double depth_bytes = 8e3;
  double idle_reset_s = 0.5e-3;
  double line_rate = 4e9;
  double jitter_s = 0.0;
  std::uint64_t jitter_seed = 1;
};

TrainEstimate probe(const PathConfig& cfg, std::uint32_t bursts, std::uint32_t blen) {
  EventQueue events;
  Receiver sink(cfg.jitter_s, cfg.jitter_seed);
  ShaperSpec shaper;
  shaper.rate_bps = cfg.hose_bps;
  shaper.depth_bytes = cfg.depth_bytes;
  shaper.idle_reset_s = cfg.idle_reset_s;
  std::vector<HopSpec> hops{{10e9, 20e-6, 2e6}, {10e9, 20e-6, 2e6}};
  Path path(events, shaper, hops, &sink);
  TrainParams params;
  params.bursts = bursts;
  params.burst_length = blen;
  params.line_rate_bps = cfg.line_rate;
  packetsim::send_train(events, path.entry(), params, 1, 0.0);
  events.run();
  return estimate_train_throughput(summarize(sink.records(), params), params,
                                   /*rtt=*/200e-6);
}

/// Sweep over burst lengths: with a shallow bucket, the estimate must be
/// within a few percent of the enforced rate at every length, and the error
/// must shrink as bursts grow.
class ShallowBucketAccuracy : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ShallowBucketAccuracy, EstimateNearTokenRate) {
  PathConfig cfg;
  const TrainEstimate est = probe(cfg, 10, GetParam());
  // The 8 KB line-rate prefix biases the shortest bursts by ~10%; everything
  // else lands within a few percent (Fig 6(a)'s "consistently low").
  const double bound = GetParam() <= 50 ? 0.12 : 0.08;
  EXPECT_LT(relative_error(est.throughput_bps, cfg.hose_bps), bound)
      << "burst length " << GetParam();
  EXPECT_DOUBLE_EQ(est.loss_rate, 0.0);
}

INSTANTIATE_TEST_SUITE_P(BurstLengths, ShallowBucketAccuracy,
                         ::testing::Values(50u, 100u, 200u, 500u, 1000u, 2000u));

/// With a deep idle-resetting bucket (Rackspace-like), short bursts ride the
/// line rate and overestimate wildly; the overestimate must decrease
/// monotonically with burst length and approach the token rate.
TEST(DeepBucket, OverestimateShrinksWithBurstLength) {
  PathConfig cfg;
  cfg.hose_bps = 300e6;
  cfg.depth_bytes = 350e3;
  cfg.line_rate = 1e9;
  double prev = 1e18;
  for (std::uint32_t blen : {100u, 500u, 1000u, 2000u, 4000u}) {
    const TrainEstimate est = probe(cfg, 10, blen);
    EXPECT_LE(est.throughput_bps, prev * 1.02) << "burst length " << blen;
    prev = est.throughput_bps;
  }
  EXPECT_LT(relative_error(prev, cfg.hose_bps), 0.10);  // 10x4000 is accurate
  const TrainEstimate shortest = probe(cfg, 10, 100);
  EXPECT_GT(shortest.throughput_bps, cfg.hose_bps * 2.0);  // badly high
}

/// Timestamp jitter perturbs short bursts more than long ones.
TEST(Jitter, HurtsShortBurstsMore) {
  PathConfig noisy;
  noisy.jitter_s = 50e-6;
  std::vector<double> short_err, long_err;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    noisy.jitter_seed = seed;
    short_err.push_back(
        relative_error(probe(noisy, 10, 50).throughput_bps, noisy.hose_bps));
    long_err.push_back(
        relative_error(probe(noisy, 10, 1000).throughput_bps, noisy.hose_bps));
  }
  EXPECT_GT(mean(short_err), mean(long_err));
  EXPECT_LT(mean(long_err), 0.03);
}

/// More bursts average jitter away.
TEST(Jitter, MoreBurstsReduceVariance) {
  PathConfig noisy;
  noisy.jitter_s = 50e-6;
  Accumulator few, many;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    noisy.jitter_seed = seed;
    few.add(probe(noisy, 2, 100).throughput_bps);
    many.add(probe(noisy, 20, 100).throughput_bps);
  }
  EXPECT_LT(many.stddev(), few.stddev());
}

/// The estimator never reports a rate above the line rate, whatever the
/// configuration.
class SanityBounds : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SanityBounds, EstimateBelowLineRate) {
  PathConfig cfg;
  cfg.hose_bps = 300e6;
  cfg.depth_bytes = 350e3;
  cfg.line_rate = 1e9;
  const TrainEstimate est = probe(cfg, 10, GetParam());
  EXPECT_LE(est.throughput_bps, cfg.line_rate * 1.01);
  EXPECT_GT(est.throughput_bps, cfg.hose_bps * 0.9);
}

INSTANTIATE_TEST_SUITE_P(BurstLengths, SanityBounds,
                         ::testing::Values(50u, 200u, 1000u, 4000u));

}  // namespace
}  // namespace choreo::measure
