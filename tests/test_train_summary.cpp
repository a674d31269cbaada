// Differential suite for the summary form of packetsim::simulate_train: the
// per-burst summary it computes from a handful of timestamp jitters must
// equal, bit for bit, summarize() over the full receiver log the recording
// form leaves in a RecordingSink with the same jitter and seed. The corpus
// covers both cloud profiles over many seeds and epochs, timestamp jitter
// from none to 1 ms, lossy chains whose tiny queues drop bursts' heads and
// tails, and a tie whose two events were scheduled at one instant, checked
// against the event-driven oracle.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <sstream>
#include <vector>

#include "cloud/cloud.h"
#include "measure/packet_train.h"
#include "oracles/event_train.h"
#include "packetsim/sink.h"
#include "packetsim/train_recurrence.h"
#include "packetsim/udp_train.h"
#include "util/rng.h"

namespace choreo::packetsim {
namespace {

constexpr double kJitters[] = {0.0, 10e-6, 50e-6, 1e-3};

::testing::AssertionResult same_bits(const TrainSummary& want, const TrainSummary& got) {
  if (want.bursts.size() != got.bursts.size()) {
    return ::testing::AssertionFailure()
           << "burst count " << got.bursts.size() << ", want " << want.bursts.size();
  }
  for (std::size_t k = 0; k < want.bursts.size(); ++k) {
    const BurstSummary& a = want.bursts[k];
    const BurstSummary& b = got.bursts[k];
    if (a.count != b.count || a.seq_first != b.seq_first || a.seq_last != b.seq_last ||
        std::bit_cast<std::uint64_t>(a.t_first) != std::bit_cast<std::uint64_t>(b.t_first) ||
        std::bit_cast<std::uint64_t>(a.t_last) != std::bit_cast<std::uint64_t>(b.t_last)) {
      std::ostringstream os;
      os.precision(17);
      os << "burst " << k << ": count " << b.count << " seq " << b.seq_first << ".."
         << b.seq_last << " t " << b.t_first << ".." << b.t_last << ", want count "
         << a.count << " seq " << a.seq_first << ".." << a.seq_last << " t " << a.t_first
         << ".." << a.t_last;
      return ::testing::AssertionFailure() << os.str();
    }
  }
  return ::testing::AssertionSuccess();
}

/// One train both ways.
void run_forms(const ShaperSpec& shaper, const std::vector<HopSpec>& hops,
               const TrainParams& params, double jitter_s, std::uint64_t seed,
               TrainSummary& summary, std::vector<RecordingSink::Record>& records) {
  RecordingSink sink(jitter_s, seed);
  simulate_train(shaper, hops, params, sink);
  simulate_train(shaper, hops, params, jitter_s, seed, summary);
  records = sink.records();
}

// ---- the jitter stream ---------------------------------------------------

TEST(KeyedNormal, BoundHoldsAtTheSmallestU1) {
  // w1 >> 11 == 0 gives u1 = 2^-53, the largest radius the transform makes.
  const double radius = std::sqrt(106.0 * std::log(2.0));
  EXPECT_NEAR(radius, 8.5717, 1e-4);
  const double cos_peak = box_muller(0, 0, /*sine_half=*/false);  // u2 = 0
  EXPECT_NEAR(cos_peak, radius, 1e-12);
  EXPECT_LT(std::abs(cos_peak), kJitterBoundSigmas);
  // Sine half near its peak, and both halves over a sweep of angles.
  const std::uint64_t quarter = std::uint64_t{1} << 62;  // u2 = 1/4
  EXPECT_NEAR(box_muller(0, quarter, /*sine_half=*/true), radius, 1e-12);
  for (std::uint64_t i = 0; i < 4096; ++i) {
    const std::uint64_t w2 = i * 0x9e3779b97f4a7c15ULL;
    EXPECT_LT(std::abs(box_muller(0, w2, false)), kJitterBoundSigmas);
    EXPECT_LT(std::abs(box_muller(0, w2, true)), kJitterBoundSigmas);
  }
  // u1 = 1 is the other end: radius 0.
  EXPECT_EQ(box_muller(~std::uint64_t{0}, quarter, true), 0.0);
}

TEST(KeyedNormal, IsAStandardNormalAndAPureFunction) {
  constexpr int kDraws = 200000;
  double sum = 0.0, sum_sq = 0.0, max_abs = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const double z = keyed_normal(0x5eed, static_cast<std::uint64_t>(i));
    sum += z;
    sum_sq += z * z;
    max_abs = std::max(max_abs, std::abs(z));
  }
  EXPECT_NEAR(sum / kDraws, 0.0, 0.01);
  EXPECT_NEAR(sum_sq / kDraws, 1.0, 0.02);
  EXPECT_LT(max_abs, kJitterBoundSigmas);
  // Order does not matter: index 7 is index 7, whatever was drawn before.
  EXPECT_EQ(keyed_normal(42, 7), keyed_normal(42, 7));
  EXPECT_NE(keyed_normal(42, 6), keyed_normal(42, 7));
  EXPECT_NE(keyed_normal(42, 7), keyed_normal(43, 7));
}

TEST(RecordingSink, JitterIsKeyedByPacketNotArrivalOrder) {
  // The sink draws packet seq's jitter whether or not earlier packets came.
  RecordingSink all(50e-6, 9), sparse(50e-6, 9);
  for (std::uint64_t seq = 0; seq < 10; ++seq) {
    const RecordingSink::Record arrival{/*flow=*/0, seq, 0, 0, 1.0 + static_cast<double>(seq)};
    all.receive(arrival);
    if (seq % 3 == 0) sparse.receive(arrival);
  }
  for (const RecordingSink::Record& r : sparse.records()) {
    EXPECT_EQ(r.time, all.records()[r.seq].time) << r.seq;
  }
}

// ---- cloud chains --------------------------------------------------------

/// Every ordered pair of 6 VMs, for 3 epochs, at every jitter level, on one
/// seed per shard of each profile: 2 x 30 x 3 x 4 = 720 trains per shard.
class CloudCorpus : public ::testing::TestWithParam<int> {};

TEST_P(CloudCorpus, SummaryEqualsSummarizedRecords) {
  std::size_t trains = 0, lossy = 0;
  for (const cloud::ProviderProfile& profile : {cloud::ec2_2013(), cloud::rackspace()}) {
    cloud::Cloud cl(profile, 1000 + static_cast<std::uint64_t>(GetParam()));
    const std::vector<cloud::VmId> vms = cl.allocate_vms(6);
    for (std::uint64_t epoch : {1u, 4u, 17u}) {
      const cloud::Cloud::TrafficSnapshot snap = cl.traffic_snapshot(epoch);
      for (cloud::VmId src : vms) {
        for (cloud::VmId dst : vms) {
          if (src == dst) continue;
          cloud::Cloud::TrainChain chain =
              cl.train_chain_in_snapshot(src, dst, TrainParams{}, snap);
          // At the profile's own jitter, the cloud's summary is this one.
          {
            RecordingSink sink(chain.timestamp_jitter_s, chain.sink_seed);
            simulate_train(chain.shaper, chain.hops, chain.params, sink);
            TrainSummary from_cloud;
            cl.run_train_in_snapshot(src, dst, TrainParams{}, snap, from_cloud);
            EXPECT_TRUE(same_bits(summarize(sink.records(), chain.params), from_cloud))
                << profile.name << " " << src << "->" << dst << " epoch " << epoch;
          }
          for (const double jitter : kJitters) {
            TrainSummary summary;
            std::vector<RecordingSink::Record> records;
            run_forms(chain.shaper, chain.hops, chain.params, jitter, chain.sink_seed, summary,
                      records);
            ASSERT_TRUE(same_bits(summarize(records, chain.params), summary))
                << profile.name << " " << src << "->" << dst << " epoch " << epoch
                << " jitter " << jitter;
            ++trains;
            if (records.size() < std::size_t{chain.params.bursts} * chain.params.burst_length) {
              ++lossy;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(trains, 720u);
  std::cout << "shard " << GetParam() << ": " << trains << " trains, " << lossy
            << " with losses\n";
}

INSTANTIATE_TEST_SUITE_P(Seeds, CloudCorpus, ::testing::Range(0, 10));

// ---- lossy chains --------------------------------------------------------

/// A bucket into a tandem whose bottleneck holds only a few packets, with
/// bursts close enough together that a burst can meet a full queue: drops
/// land at bursts' heads and tails as well as in between.
struct Lossy {
  ShaperSpec shaper;
  std::vector<HopSpec> hops;
  TrainParams params;
};

Lossy lossy_chain(Rng& rng) {
  Lossy c;
  TrainParams& p = c.params;
  p.bursts = static_cast<std::uint32_t>(rng.uniform_int(2, 10));
  p.burst_length = static_cast<std::uint32_t>(rng.uniform_int(2, 120));
  p.inter_burst_gap_s = rng.chance(0.5) ? rng.uniform(0.0, 200e-6) : 1e-3;
  p.line_rate_bps = rng.chance(0.5) ? 10e9 : 1e9;
  const double wire = p.packet_bytes + p.header_bytes;
  c.shaper.enabled = rng.chance(0.7);
  c.shaper.rate_bps = rng.uniform(200e6, p.line_rate_bps);
  c.shaper.depth_bytes = rng.chance(0.5) ? 8e3 : rng.uniform(wire, 2e5);
  c.shaper.idle_reset_s = rng.chance(0.5) ? -1.0 : 0.5e-3;
  const auto hops = rng.uniform_int(1, 4);
  const auto bottleneck = rng.uniform_int(0, hops - 1);
  for (std::int64_t h = 0; h < hops; ++h) {
    HopSpec hop;
    hop.delay_s = rng.uniform(0.0, 30e-6);
    if (h == bottleneck) {
      hop.rate_bps = rng.uniform(20e6, 400e6);
      hop.queue_bytes = wire * static_cast<double>(rng.uniform_int(0, 6));
    } else {
      hop.rate_bps = rng.uniform(1e9, 10e9);
      hop.queue_bytes = rng.chance(0.5) ? 2e6 : wire * static_cast<double>(rng.uniform_int(1, 20));
    }
    c.hops.push_back(hop);
  }
  return c;
}

class LossyCorpus : public ::testing::TestWithParam<int> {};

TEST_P(LossyCorpus, SummaryEqualsSummarizedRecords) {
  constexpr int kCases = 500;
  Rng rng(0x1055u + static_cast<std::uint64_t>(GetParam()));
  std::size_t head_lost = 0, tail_lost = 0, empty = 0;
  for (int i = 0; i < kCases; ++i) {
    const Lossy c = lossy_chain(rng);
    const std::uint64_t seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30));
    for (const double jitter : kJitters) {
      TrainSummary summary;
      std::vector<RecordingSink::Record> records;
      run_forms(c.shaper, c.hops, c.params, jitter, seed, summary, records);
      const TrainSummary want = summarize(records, c.params);
      ASSERT_TRUE(same_bits(want, summary)) << "case " << i << " jitter " << jitter;
      if (jitter != 0.0) continue;
      for (std::uint32_t k = 0; k < c.params.bursts; ++k) {
        const BurstSummary& b = want.bursts[k];
        const std::uint64_t first = std::uint64_t{k} * c.params.burst_length;
        if (b.count == 0) {
          ++empty;
          continue;
        }
        head_lost += b.seq_first != first;
        tail_lost += b.seq_last != first + c.params.burst_length - 1;
      }
    }
  }
  // The corpus reaches what it is built for.
  EXPECT_GT(head_lost, 0u);
  EXPECT_GT(tail_lost, 0u);
  std::cout << "shard " << GetParam() << ": bursts with head loss " << head_lost
            << ", tail loss " << tail_lost << ", none received " << empty << "\n";
}

INSTANTIATE_TEST_SUITE_P(Shards, LossyCorpus, ::testing::Range(0, 4));

// ---- a tie scheduled at one instant --------------------------------------

/// 12000 bits take exactly 2^-20 s at this rate. Hop 1 runs back to back at
/// twice it, so hop 2 sees packet j arrive just as it completes j-1; with
/// hop 1's delay equal to one transmit time, both events are scheduled at
/// one instant and the completion goes first (test_train_recurrence's
/// HopTwoTie.BothScheduledAtOneInstantCompletionGoesFirst).
constexpr double kDyadicRate = 12000.0 * 1048576.0;

TEST(OneInstantTie, SummarizeChainEqualsTheEventPath) {
  cloud::Cloud::TrainChain chain;
  chain.shaper.enabled = false;
  chain.params.bursts = 2;
  chain.params.burst_length = 20;
  chain.params.line_rate_bps = 2 * kDyadicRate;
  chain.hops.push_back(HopSpec{kDyadicRate, 1.0 / 1048576.0, 2e6});
  chain.hops.push_back(HopSpec{kDyadicRate, 0.0, 1500.0});
  for (const double jitter : kJitters) {
    chain.timestamp_jitter_s = jitter;
    chain.sink_seed = 77;
    Receiver sink(jitter, chain.sink_seed);
    EventQueue events;
    Path path(events, chain.shaper, chain.hops, &sink);
    send_train(events, path.entry(), chain.params, /*flow_id=*/1, /*start_time=*/0.0);
    events.run();
    ASSERT_EQ(sink.records().size(), 40u);
    TrainSummary from_chain;
    simulate_train(chain.shaper, chain.hops, chain.params, chain.timestamp_jitter_s,
                   chain.sink_seed, from_chain);
    EXPECT_TRUE(same_bits(summarize(sink.records(), chain.params), from_chain))
        << "jitter " << jitter;
  }
}

// ---- the estimator over either form -------------------------------------

TEST(EstimatorCore, SummarizedLogEstimatesLikeTheCloudsSummary) {
  cloud::Cloud cl(cloud::ec2_2013(), 5);
  const std::vector<cloud::VmId> vms = cl.allocate_vms(3);
  const cloud::Cloud::TrafficSnapshot snap = cl.traffic_snapshot(3);
  const cloud::Cloud::TrainChain chain =
      cl.train_chain_in_snapshot(vms[0], vms[1], TrainParams{}, snap);
  RecordingSink sink(chain.timestamp_jitter_s, chain.sink_seed);
  simulate_train(chain.shaper, chain.hops, chain.params, sink);
  const measure::TrainEstimate from_records = measure::estimate_train_throughput(
      summarize(sink.records(), chain.params), chain.params, 1e-3);
  TrainSummary summary;
  cl.run_train_in_snapshot(vms[0], vms[1], TrainParams{}, snap, summary);
  const measure::TrainEstimate from_summary =
      measure::estimate_train_throughput(summary, chain.params, 1e-3);
  EXPECT_GT(from_records.throughput_bps, 0.0);
  EXPECT_EQ(from_records.throughput_bps, from_summary.throughput_bps);
  EXPECT_EQ(from_records.packets_received, from_summary.packets_received);
  EXPECT_EQ(from_records.bursts_used, from_summary.bursts_used);
}

}  // namespace
}  // namespace choreo::packetsim
