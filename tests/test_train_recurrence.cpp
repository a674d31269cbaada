// Differential suite for packetsim::simulate_train: the direct per-packet
// recurrence against the event-driven Path + EventQueue train it replaces on
// the measure path, which stays in the library as its oracle. Every Record
// field is compared with ==, timestamps included.
//
// The subtle part is the order of same-instant events: a packet reaching a
// hop exactly when the hop's in-service packet completes, where the drop
// decision depends on which event fires first. The random corpus is biased
// toward such ties (rates equal to the line rate and to each other, zero
// delays and gaps, queues a few packets deep); the hand-built cases pin one
// tie of each kind.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "cloud/cloud.h"
#include "packetsim/event_queue.h"
#include "packetsim/link.h"
#include "packetsim/path.h"
#include "packetsim/sink.h"
#include "packetsim/token_bucket.h"
#include "packetsim/train_recurrence.h"
#include "packetsim/udp_train.h"
#include "util/rng.h"

namespace choreo::packetsim {
namespace {

using Record = RecordingSink::Record;

struct Case {
  ShaperSpec shaper;
  std::vector<HopSpec> hops;
  TrainParams params;
  double jitter_s = 0.0;
  std::uint64_t sink_seed = 1;

  std::string describe() const {
    std::ostringstream os;
    os.precision(17);
    os << "train " << params.bursts << "x" << params.burst_length << " P=" << params.packet_bytes
       << " gap=" << params.inter_burst_gap_s << " line=" << params.line_rate_bps;
    if (shaper.enabled) {
      os << " | bucket " << shaper.rate_bps << " depth=" << shaper.depth_bytes
         << " idle=" << shaper.idle_reset_s;
    }
    for (const HopSpec& h : hops) {
      os << " | hop " << h.rate_bps << " d=" << h.delay_s << " q=" << h.queue_bytes;
    }
    os << " | jitter=" << jitter_s;
    return os.str();
  }
};

/// The oracle: the event-driven train.
std::vector<Record> event_path(const Case& c) {
  EventQueue events;
  RecordingSink sink(c.jitter_s, c.sink_seed);
  Path path(events, c.shaper, c.hops, &sink);
  send_train(events, path.entry(), c.params, /*flow_id=*/1, /*start_time=*/0.0);
  events.run();
  return sink.records();
}

/// The recurrence; `ok` reports whether it simulated or declined.
std::vector<Record> recurrence(const Case& c, TrainTies* ties, bool* ok) {
  RecordingSink sink(c.jitter_s, c.sink_seed);
  *ok = simulate_train(c.shaper, c.hops, c.params, sink, ties);
  return sink.records();
}

::testing::AssertionResult same_records(const std::vector<Record>& want,
                                        const std::vector<Record>& got) {
  if (want.size() != got.size()) {
    return ::testing::AssertionFailure()
           << "record count " << got.size() << ", event path " << want.size();
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    const Record& a = want[i];
    const Record& b = got[i];
    if (a.flow != b.flow || a.seq != b.seq || a.burst != b.burst ||
        a.wire_bytes != b.wire_bytes || a.time != b.time) {
      std::ostringstream os;
      os.precision(17);
      os << "record " << i << ": seq " << b.seq << " burst " << b.burst << " bytes "
         << b.wire_bytes << " t " << b.time << ", event path seq " << a.seq << " burst "
         << a.burst << " bytes " << a.wire_bytes << " t " << a.time;
      return ::testing::AssertionFailure() << os.str();
    }
  }
  return ::testing::AssertionSuccess();
}

/// Forwards synchronously and logs (seq, time): inserted between elements
/// it schedules nothing, so the event order is the oracle's own.
class Tap : public Element {
 public:
  explicit Tap(Element* next) : next_(next) {}
  void receive(const Packet& pkt, double now) override {
    log.emplace_back(pkt.seq, now);
    next_->receive(pkt, now);
  }
  std::vector<std::pair<std::uint64_t, double>> log;

 private:
  Element* next_;
};

/// The oracle chain with a tap at every boundary: `emitted` before the
/// bucket, `into[h]` before hop h, and `into[hops]` before the sink.
struct Tapped {
  std::vector<Record> records;
  std::vector<std::pair<std::uint64_t, double>> emitted;
  std::vector<std::vector<std::pair<std::uint64_t, double>>> into;
};

Tapped tapped_event_path(const Case& c) {
  EventQueue events;
  RecordingSink sink(c.jitter_s, c.sink_seed);
  std::vector<std::unique_ptr<Tap>> taps(c.hops.size() + 1);
  std::vector<std::unique_ptr<Link>> links(c.hops.size());
  taps.back() = std::make_unique<Tap>(&sink);
  for (std::size_t h = c.hops.size(); h-- > 0;) {
    links[h] = std::make_unique<Link>(events, c.hops[h].rate_bps, c.hops[h].delay_s,
                                      c.hops[h].queue_bytes, taps[h + 1].get());
    taps[h] = std::make_unique<Tap>(links[h].get());
  }
  std::unique_ptr<TokenBucket> bucket;
  Element* first = taps.front().get();
  if (c.shaper.enabled) {
    bucket = std::make_unique<TokenBucket>(events, c.shaper.rate_bps, c.shaper.depth_bytes,
                                           first, c.shaper.idle_reset_s);
    first = bucket.get();
  }
  Tap emitted(first);
  send_train(events, emitted, c.params, /*flow_id=*/1, /*start_time=*/0.0);
  events.run();
  Tapped out;
  out.records = sink.records();
  out.emitted = emitted.log;
  for (const auto& t : taps) out.into.push_back(t->log);
  return out;
}

double logged_time(const std::vector<std::pair<std::uint64_t, double>>& log,
                   std::uint64_t seq) {
  for (const auto& [s, t] : log) {
    if (s == seq) return t;
  }
  return std::nan("");
}

/// A declined tie is real: in the oracle, packet `seq` reaches hop `hop` at
/// the tied instant, and another packet completes service there at that
/// same instant (its delivery leaves `delay_s` later).
void expect_real_tie(const Case& c, const TrainTies& ties) {
  const Tapped t = tapped_event_path(c);
  ASSERT_LT(ties.hop, c.hops.size());
  EXPECT_EQ(logged_time(t.into[ties.hop], ties.seq), ties.time) << c.describe();
  const double delivered = ties.time + c.hops[ties.hop].delay_s;
  bool completes = false;
  for (const auto& [s, time] : t.into[ties.hop + 1]) {
    completes = completes || (s != ties.seq && time == delivered);
  }
  EXPECT_TRUE(completes) << "no completion at the declined instant: " << c.describe();
}

// ---- random corpus -----------------------------------------------------

template <typename T>
T pick(Rng& rng, std::initializer_list<T> options) {
  const auto i = rng.uniform_int(0, static_cast<std::int64_t>(options.size()) - 1);
  return *(options.begin() + i);
}

/// 12000 bits (one 1500-byte wire packet) take exactly 2^-20 s at this rate,
/// so sums of transmit times are exact and ties are frequent.
constexpr double kDyadicRate = 12000.0 * 1048576.0;

Case random_case(Rng& rng) {
  Case c;
  TrainParams& p = c.params;
  p.bursts = static_cast<std::uint32_t>(rng.uniform_int(1, 3));
  p.burst_length = static_cast<std::uint32_t>(rng.uniform_int(2, 30));
  p.packet_bytes = rng.chance(0.8) ? 1472u : static_cast<std::uint32_t>(rng.uniform_int(1, 1472));
  p.inter_burst_gap_s =
      rng.chance(0.25) ? rng.uniform(0.0, 2e-3) : pick(rng, {0.0, 1e-3, 20e-6});
  p.line_rate_bps = rng.chance(0.2) ? rng.uniform(1e9, 10e9)
                                    : pick(rng, {10e9, 4e9, 1e9, kDyadicRate, 2 * kDyadicRate});
  const double wire = p.packet_bytes + p.header_bytes;

  c.shaper.enabled = rng.chance(0.7);
  c.shaper.rate_bps = rng.chance(0.25) ? rng.uniform(50e6, p.line_rate_bps)
                                       : pick(rng, {p.line_rate_bps, 950e6, 300e6, kDyadicRate});
  c.shaper.depth_bytes = rng.chance(0.3) ? rng.uniform(wire, 50e3) : pick(rng, {8e3, 1.7e6});
  c.shaper.idle_reset_s =
      rng.chance(0.25) ? rng.uniform(0.0, 2e-3) : pick(rng, {-1.0, 0.0, 0.5e-3});

  const auto hops = rng.uniform_int(1, 6);
  double prev_rate = p.line_rate_bps;
  for (std::int64_t h = 0; h < hops; ++h) {
    HopSpec hop;
    hop.rate_bps = rng.chance(0.2) ? rng.uniform(100e6, 10e9)
                                   : pick(rng, {p.line_rate_bps, prev_rate, prev_rate,
                                                c.shaper.rate_bps, 10e9, kDyadicRate});
    const double tx = wire * 8.0 / hop.rate_bps;
    hop.delay_s = rng.chance(0.2) ? rng.uniform(0.0, 50e-6) : pick(rng, {0.0, 0.0, 20e-6, tx});
    hop.queue_bytes = rng.chance(0.3)
                          ? 2e6
                          : (rng.chance(0.8) ? wire * static_cast<double>(rng.uniform_int(0, 40))
                                             : rng.uniform(0.0, 40 * wire));
    prev_rate = hop.rate_bps;
    c.hops.push_back(hop);
  }
  c.jitter_s = rng.chance(0.3) ? 2e-6 : 0.0;
  c.sink_seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30));
  return c;
}

class RandomCorpus : public ::testing::TestWithParam<int> {};

/// 4 shards x 5 000 cases. Every simulated train equals the oracle record
/// for record; every declined one is a real same-instant tie.
TEST_P(RandomCorpus, MatchesEventPathRecordForRecord) {
  constexpr int kCases = 5000;
  Rng rng(0x7e41u + static_cast<std::uint64_t>(GetParam()));
  std::uint64_t arrival_first = 0, completion_first = 0, declined = 0, dropped = 0;
  for (int i = 0; i < kCases; ++i) {
    const Case c = random_case(rng);
    const std::vector<Record> want = event_path(c);
    TrainTies ties;
    bool ok = false;
    const std::vector<Record> got = recurrence(c, &ties, &ok);
    if (!ok) {
      ++declined;
      EXPECT_TRUE(ties.declined);
      EXPECT_TRUE(got.empty()) << "a declined call must leave the sink untouched";
      expect_real_tie(c, ties);
      continue;
    }
    EXPECT_FALSE(ties.declined);
    ASSERT_TRUE(same_records(want, got)) << "case " << i << ": " << c.describe();
    arrival_first += ties.arrival_first;
    completion_first += ties.completion_first;
    if (want.size() < std::size_t{c.params.bursts} * c.params.burst_length) ++dropped;
  }
  // The corpus reaches what it is biased toward: drops, and order-dependent
  // ties resolved each way (so neither fixed order alone would pass).
  EXPECT_GT(dropped, kCases / 10);
  EXPECT_GT(arrival_first, 0u);
  EXPECT_GT(completion_first, 0u);
  EXPECT_LT(declined, static_cast<std::uint64_t>(kCases / 100));
  std::cout << "shard " << GetParam() << ": " << kCases << " cases, " << dropped
            << " with drops, ties resolved arrival-first " << arrival_first
            << " / completion-first " << completion_first << ", declined " << declined
            << "\n";
}

INSTANTIATE_TEST_SUITE_P(Shards, RandomCorpus, ::testing::Values(0, 1, 2, 3));

// ---- hand-built ties ---------------------------------------------------

/// One hop, no bucket, no timestamp jitter.
Case one_hop(double line_rate, double hop_rate, double queue_bytes) {
  Case c;
  c.shaper.enabled = false;
  c.params.bursts = 1;
  c.params.burst_length = 20;
  c.params.line_rate_bps = line_rate;
  c.hops.push_back(HopSpec{hop_rate, 0.0, queue_bytes});
  return c;
}

/// The hop rate whose transmit time for one 1500-byte packet is exactly
/// `tx` (searched one ulp at a time around 12000 / tx).
double rate_for_tx(double tx) {
  double rate = 12000.0 / tx;
  for (int i = 0; i < 64 && 1500.0 * 8.0 / rate != tx; ++i) {
    rate = std::nextafter(rate, 1500.0 * 8.0 / rate > tx ? 1e300 : 0.0);
  }
  return rate;
}

TEST(BucketTie, WakeUpAtAnEmissionInstant) {
  // Packet 0 leaves at once; packet 1 waits for a wake-up at W. Move burst
  // 1's first emission onto W: the queue fires the emission first (lower
  // seq), and the recurrence's merge must replay that order refill for
  // refill, with and without idle resets.
  Case c;
  c.shaper = ShaperSpec{true, 300e6, 2000.0, -1.0};
  c.params.bursts = 2;
  c.params.burst_length = 2;
  c.params.line_rate_bps = 10e9;
  c.params.inter_burst_gap_s = 1e-3;
  c.hops.push_back(HopSpec{10e9, 0.0, 2e6});
  const double wake = logged_time(tapped_event_path(c).into[0], 1);
  const double spacing = 1500.0 * 8.0 / c.params.line_rate_bps;
  const double two = spacing + spacing;  // send_train's running sum after burst 0
  double gap = wake - two;
  for (int i = 0; i < 64 && two + gap != wake; ++i) {
    gap = std::nextafter(gap, two + gap < wake ? 1.0 : 0.0);
  }
  c.params.inter_burst_gap_s = gap;
  const Tapped t = tapped_event_path(c);
  ASSERT_EQ(logged_time(t.emitted, 2), wake);
  ASSERT_EQ(logged_time(t.into[0], 1), wake) << "the wake-up moved";
  for (const double idle : {-1.0, 0.5e-3, 0.0}) {
    c.shaper.idle_reset_s = idle;
    bool ok = false;
    EXPECT_TRUE(same_records(event_path(c), recurrence(c, nullptr, &ok))) << idle;
    EXPECT_TRUE(ok);
  }
}

TEST(HopOneTie, ArrivalFromAnEmissionGoesFirst) {
  // Hop rate == line rate: packet j arrives exactly when j-1 completes. With
  // room for one packet, arrival-first drops every other packet.
  const Case c = one_hop(kDyadicRate, kDyadicRate, 1500.0);
  const std::vector<Record> want = event_path(c);
  ASSERT_EQ(want.size(), 10u);
  TrainTies ties;
  bool ok = false;
  EXPECT_TRUE(same_records(want, recurrence(c, &ties, &ok)));
  EXPECT_TRUE(ok);
  EXPECT_EQ(ties.arrival_first, 10u);
  EXPECT_EQ(ties.completion_first, 0u);
}

TEST(HopOneTie, ArrivalFromAWakeUpScheduledAfterServiceStart) {
  // Packet 0 leaves the bucket at 0 and starts service; packet 1 (emitted at
  // s) waits for a wake-up at W, scheduled at s. Tune the hop so packet 0
  // completes at exactly W: the completion was scheduled first (at 0 < s),
  // so it fires first and packet 1 finds the link idle.
  Case c;
  c.shaper = ShaperSpec{true, 300e6, 2000.0, -1.0};
  c.params.bursts = 1;
  c.params.burst_length = 2;
  c.params.line_rate_bps = 10e9;
  c.hops.push_back(HopSpec{10e9, 0.0, 1500.0});
  const double wake = logged_time(tapped_event_path(c).into[0], 1);
  c.hops[0].rate_bps = rate_for_tx(wake);
  ASSERT_EQ(0.0 + 1500.0 * 8.0 / c.hops[0].rate_bps, wake);
  const std::vector<Record> want = event_path(c);
  ASSERT_EQ(want.size(), 2u) << "completion-first keeps packet 1";
  TrainTies ties;
  bool ok = false;
  EXPECT_TRUE(same_records(want, recurrence(c, &ties, &ok)));
  EXPECT_TRUE(ok);
  EXPECT_EQ(ties.completion_first, 1u);
}

/// Hop 1 runs back to back (line rate twice its rate), so hop 2 sees packet
/// j arrive exactly when it completes j-1, which arrived `d1` after
/// leaving hop 1. The arrival was scheduled at hop 1's completion of j, the
/// completion at j-1's arrival: d1 < tx puts the completion first, d1 > tx
/// the arrival, d1 == tx schedules both at one instant.
Case hop_two_tie(double d1) {
  Case c = one_hop(2 * kDyadicRate, kDyadicRate, 2e6);
  c.hops[0].delay_s = d1;
  c.hops.push_back(HopSpec{kDyadicRate, 0.0, 1500.0});
  return c;
}

constexpr double kDyadicTx = 1.0 / 1048576.0;

TEST(HopTwoTie, CompletionScheduledFirstKeepsEveryPacket) {
  const Case c = hop_two_tie(0.0);
  const std::vector<Record> want = event_path(c);
  ASSERT_EQ(want.size(), 20u);
  TrainTies ties;
  bool ok = false;
  EXPECT_TRUE(same_records(want, recurrence(c, &ties, &ok)));
  EXPECT_TRUE(ok);
  EXPECT_EQ(ties.completion_first, 19u);
  EXPECT_EQ(ties.arrival_first, 0u);
}

TEST(HopTwoTie, ArrivalScheduledFirstDropsEveryOtherPacket) {
  const Case c = hop_two_tie(2 * kDyadicTx);
  const std::vector<Record> want = event_path(c);
  ASSERT_EQ(want.size(), 10u);
  TrainTies ties;
  bool ok = false;
  EXPECT_TRUE(same_records(want, recurrence(c, &ties, &ok)));
  EXPECT_TRUE(ok);
  EXPECT_EQ(ties.arrival_first, 10u);
  EXPECT_EQ(ties.completion_first, 0u);
}

TEST(HopTwoTie, BothScheduledAtOneInstantDeclines) {
  const Case c = hop_two_tie(kDyadicTx);
  TrainTies ties;
  bool ok = true;
  EXPECT_TRUE(recurrence(c, &ties, &ok).empty());
  EXPECT_FALSE(ok);
  ASSERT_TRUE(ties.declined);
  EXPECT_EQ(ties.hop, 1u);
  EXPECT_EQ(ties.seq, 1u);
  expect_real_tie(c, ties);
}

TEST(HopTwoTie, OrderIndependentTiesAreNotCounted) {
  // The same ties with a queue that drops neither way: nothing to order.
  Case c = hop_two_tie(kDyadicTx);
  c.hops[1].queue_bytes = 2e6;
  TrainTies ties;
  bool ok = false;
  EXPECT_TRUE(same_records(event_path(c), recurrence(c, &ties, &ok)));
  EXPECT_TRUE(ok);
  EXPECT_EQ(ties.arrival_first + ties.completion_first, 0u);
}

TEST(Recurrence, BucketFeedingTheSinkDirectly) {
  Case c;
  c.shaper = ShaperSpec{true, 300e6, 8e3, 0.5e-3};
  c.params.bursts = 3;
  c.params.burst_length = 50;
  c.jitter_s = 2e-6;
  bool ok = false;
  EXPECT_TRUE(same_records(event_path(c), recurrence(c, nullptr, &ok)));
  EXPECT_TRUE(ok);
}

// ---- cloud level -------------------------------------------------------

/// Every ordered VM pair of an ec2_2013 and a rackspace cloud, over several
/// epochs: run_train_in_snapshot equals the event path over the very chain
/// the cloud built, and so does a parallel run_train_round.
TEST(CloudTrains, EqualTheEventPathOnEveryPair) {
  for (const cloud::ProviderProfile& profile : {cloud::ec2_2013(), cloud::rackspace()}) {
    cloud::Cloud cl(profile, 7);
    const std::vector<cloud::VmId> vms = cl.allocate_vms(4);
    const TrainParams params;  // the paper's 10 x 200
    for (std::uint64_t epoch : {1u, 2u, 9u}) {
      const cloud::Cloud::TrafficSnapshot snap = cl.traffic_snapshot(epoch);
      std::vector<std::pair<cloud::VmId, cloud::VmId>> round;
      for (std::size_t i = 0; i < vms.size(); ++i) {
        const cloud::VmId src = vms[i];
        for (cloud::VmId dst : vms) {
          if (src == dst) continue;
          const cloud::Cloud::TrainChain chain =
              cl.train_chain_in_snapshot(src, dst, params, snap);
          Case c{chain.shaper, chain.hops, chain.params, chain.timestamp_jitter_s,
                 chain.sink_seed};
          EXPECT_TRUE(same_records(event_path(c), cl.run_train_in_snapshot(src, dst, params, snap)))
              << profile.name << " " << src << "->" << dst << " epoch " << epoch;
        }
        round.emplace_back(src, vms[(i + 1) % vms.size()]);
      }
      const auto parallel = cl.run_train_round(round, params, snap, /*workers=*/3);
      for (std::size_t i = 0; i < round.size(); ++i) {
        const cloud::Cloud::TrainChain chain =
            cl.train_chain_in_snapshot(round[i].first, round[i].second, params, snap);
        Case c{chain.shaper, chain.hops, chain.params, chain.timestamp_jitter_s,
               chain.sink_seed};
        EXPECT_TRUE(same_records(event_path(c), parallel[i])) << profile.name << " round " << i;
      }
    }
  }
}

}  // namespace
}  // namespace choreo::packetsim
