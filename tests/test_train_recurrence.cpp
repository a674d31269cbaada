// Differential suite for packetsim::simulate_train: the direct per-packet
// recurrence against the event-driven Path + EventQueue train, its oracle
// under oracles/. Every Record field is compared with ==, timestamps
// included.
//
// The subtle part is the order of same-instant events: a packet reaching a
// hop exactly when the hop's in-service packet completes, where the drop
// decision depends on which event fires first. The oracle orders them by
// EventKey, and the recurrence must replay that order. The random corpus is biased
// toward such ties (rates equal to the line rate and to each other, zero
// delays and gaps, queues a few packets deep); the hand-built cases pin one
// tie of each kind.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "cloud/cloud.h"
#include "oracles/event_train.h"
#include "packetsim/sink.h"
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
  Receiver sink(c.jitter_s, c.sink_seed);
  Path path(events, c.shaper, c.hops, &sink);
  send_train(events, path.entry(), c.params, /*flow_id=*/1, /*start_time=*/0.0);
  events.run();
  return sink.records();
}

/// The recurrence.
std::vector<Record> recurrence(const Case& c, TrainTies* ties = nullptr) {
  RecordingSink sink(c.jitter_s, c.sink_seed);
  simulate_train(c.shaper, c.hops, c.params, sink, ties);
  return sink.records();
}

/// The recurrence's summary form.
TrainSummary summary(const Case& c, TrainTies* ties = nullptr) {
  TrainSummary out;
  simulate_train(c.shaper, c.hops, c.params, c.jitter_s, c.sink_seed, out, ties);
  return out;
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
  Receiver sink(c.jitter_s, c.sink_seed);
  std::vector<std::unique_ptr<Tap>> taps(c.hops.size() + 1);
  std::vector<std::unique_ptr<Link>> links(c.hops.size());
  taps.back() = std::make_unique<Tap>(&sink);
  for (std::size_t h = c.hops.size(); h-- > 0;) {
    links[h] = std::make_unique<Link>(events, static_cast<std::uint32_t>(h), c.hops[h].rate_bps,
                                      c.hops[h].delay_s, c.hops[h].queue_bytes,
                                      taps[h + 1].get());
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

/// `c` with every byte count and bit rate doubled: packet and header bytes,
/// line rate, bucket rate and depth, hop rates and queues. Every time and
/// every drop decision is a ratio of the two, so the train must not move.
Case doubled(Case c) {
  c.params.packet_bytes *= 2;
  c.params.header_bytes *= 2;
  c.params.line_rate_bps *= 2;
  c.shaper.rate_bps *= 2;
  c.shaper.depth_bytes *= 2;
  for (HopSpec& h : c.hops) {
    h.rate_bps *= 2;
    h.queue_bytes *= 2;
  }
  return c;
}

class RandomCorpus : public ::testing::TestWithParam<int> {};

/// 4 shards x 5 000 cases. Every train equals the oracle record for record,
/// and equals itself with every byte and bit rate doubled, ties included.
TEST_P(RandomCorpus, MatchesEventPathRecordForRecord) {
  constexpr int kCases = 5000;
  Rng rng(0x7e41u + static_cast<std::uint64_t>(GetParam()));
  std::uint64_t arrival_first = 0, completion_first = 0, dropped = 0;
  for (int i = 0; i < kCases; ++i) {
    const Case c = random_case(rng);
    const std::vector<Record> want = event_path(c);
    TrainTies ties;
    const std::vector<Record> got = recurrence(c, &ties);
    ASSERT_TRUE(same_records(want, got)) << "case " << i << ": " << c.describe();
    std::vector<Record> want_doubled = got;
    for (Record& r : want_doubled) r.wire_bytes *= 2;
    TrainTies doubled_ties;
    ASSERT_TRUE(same_records(want_doubled, recurrence(doubled(c), &doubled_ties)))
        << "doubled case " << i << ": " << c.describe();
    ASSERT_EQ(doubled_ties.arrival_first, ties.arrival_first) << "doubled case " << i;
    ASSERT_EQ(doubled_ties.completion_first, ties.completion_first) << "doubled case " << i;
    arrival_first += ties.arrival_first;
    completion_first += ties.completion_first;
    if (want.size() < std::size_t{c.params.bursts} * c.params.burst_length) ++dropped;
  }
  // The corpus reaches what it is biased toward: drops, and order-dependent
  // ties resolved each way (so neither fixed order alone would pass).
  EXPECT_GT(dropped, kCases / 10);
  EXPECT_GT(arrival_first, 0u);
  EXPECT_GT(completion_first, 0u);
  std::cout << "shard " << GetParam() << ": " << kCases << " cases, " << dropped
            << " with drops, ties resolved arrival-first " << arrival_first
            << " / completion-first " << completion_first << "\n";
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

/// Two bursts of two packets through a 2 000-byte bucket at 300 Mb/s: packet
/// 0 leaves at once, packet 1 is held until the bucket holds its bytes.
Case held_second_packet() {
  Case c;
  c.shaper = ShaperSpec{true, 300e6, 2000.0, -1.0};
  c.params.bursts = 2;
  c.params.burst_length = 2;
  c.params.line_rate_bps = 10e9;
  c.params.inter_burst_gap_s = 1e-3;
  c.hops.push_back(HopSpec{10e9, 0.0, 2e6});
  return c;
}

TEST(BucketTie, ReleaseAtAnEmissionInstant) {
  // Move burst 1's first emission onto packet 1's release R: the queue fires
  // the emission first (it was scheduled before the train started), while
  // packet 1 is still held. Packet 2 must not overtake it, with and without
  // an idle reset that R - R cannot reach.
  Case c = held_second_packet();
  const double release = logged_time(tapped_event_path(c).into[0], 1);
  const double spacing = 1500.0 * 8.0 / c.params.line_rate_bps;
  const double two = spacing + spacing;  // send_train's running sum after burst 0
  double gap = release - two;
  for (int i = 0; i < 64 && two + gap != release; ++i) {
    gap = std::nextafter(gap, two + gap < release ? 1.0 : 0.0);
  }
  c.params.inter_burst_gap_s = gap;
  for (const double idle : {-1.0, 0.5e-3}) {
    c.shaper.idle_reset_s = idle;
    const Tapped t = tapped_event_path(c);
    ASSERT_EQ(logged_time(t.emitted, 2), release) << idle;
    ASSERT_EQ(logged_time(t.into[0], 1), release) << "the release moved, idle " << idle;
    EXPECT_GT(logged_time(t.into[0], 2), release) << idle;
    EXPECT_TRUE(same_records(t.records, recurrence(c))) << idle;
  }
  // Idle reset 0 restores the bucket at every emission: nothing is held.
  c.shaper.idle_reset_s = 0.0;
  const Tapped t = tapped_event_path(c);
  EXPECT_EQ(t.into[0], t.emitted);
  EXPECT_TRUE(same_records(t.records, recurrence(c)));
}

TEST(BucketTie, IdleResetAtEquality) {
  // Set idle_reset_s to exactly the idle time between packet 1's release and
  // packet 2's emission: the reset fires (>=), so packet 2 passes at once.
  // One ulp more and it does not, so packet 2 is held.
  Case c = held_second_packet();
  c.params.inter_burst_gap_s = 40e-6;
  const Tapped base = tapped_event_path(c);
  const double release = logged_time(base.into[0], 1);
  const double emission = logged_time(base.emitted, 2);
  ASSERT_GT(release, logged_time(base.emitted, 1)) << "packet 1 is held";
  ASSERT_GT(logged_time(base.into[0], 2), emission) << "without a reset packet 2 is held";
  const double idle = emission - release;
  for (const double reset : {idle, std::nextafter(idle, 1.0)}) {
    c.shaper.idle_reset_s = reset;
    const Tapped t = tapped_event_path(c);
    ASSERT_EQ(logged_time(t.into[0], 1), release);
    if (reset == idle) {
      EXPECT_EQ(logged_time(t.into[0], 2), emission) << "the reset at equality fires";
    } else {
      EXPECT_GT(logged_time(t.into[0], 2), emission);
    }
    EXPECT_TRUE(same_records(t.records, recurrence(c))) << reset;
  }
}

TEST(BucketTie, IdleResetAtTheLineRateSpacing) {
  // 12000 bits take exactly 2^-20 s at kDyadicRate, so every gap between two
  // emissions of a burst is exactly 2^-20 s. With idle_reset_s at that
  // spacing, or just under it, every packet that passes at once restores
  // the bucket for the next, so the reset fires inside bursts and a 300 Mb/s
  // bucket holds nothing; one ulp over it, the reset fires only at burst
  // starts and the bucket holds packets. Both must equal the oracle, in
  // both forms, as must a 10 Gb/s line whose running sums round the gaps to
  // either side of its spacing.
  for (const double line_rate : {kDyadicRate, 10e9}) {
    Case c;
    c.shaper = ShaperSpec{true, 300e6, 8e3, -1.0};
    c.params.bursts = 3;
    c.params.burst_length = 50;
    c.params.line_rate_bps = line_rate;
    c.hops.push_back(HopSpec{20e9, 20e-6, 2e6});
    c.jitter_s = 2e-6;
    const double spacing = 1500.0 * 8.0 / line_rate;
    for (const double reset :
         {std::nextafter(spacing, 0.0), spacing, std::nextafter(spacing, 1.0)}) {
      c.shaper.idle_reset_s = reset;
      const Tapped t = tapped_event_path(c);
      if (line_rate == kDyadicRate) {
        if (reset <= spacing) {
          EXPECT_EQ(t.into[0], t.emitted) << "the reset fires at every packet";
        } else {
          EXPECT_NE(t.into[0], t.emitted) << "without resets inside bursts the bucket holds";
        }
      }
      EXPECT_TRUE(same_records(t.records, recurrence(c))) << line_rate << " " << reset;
      EXPECT_EQ(summary(c), summarize(t.records, c.params)) << line_rate << " " << reset;
    }
  }
}

TEST(HopOneTie, ArrivalFromAnEmissionGoesFirst) {
  // Hop rate == line rate: packet j arrives exactly when j-1 completes. With
  // room for one packet, arrival-first drops every other packet.
  const Case c = one_hop(kDyadicRate, kDyadicRate, 1500.0);
  const std::vector<Record> want = event_path(c);
  ASSERT_EQ(want.size(), 10u);
  TrainTies ties;
  EXPECT_TRUE(same_records(want, recurrence(c, &ties)));
  EXPECT_EQ(ties.arrival_first, 10u);
  EXPECT_EQ(ties.completion_first, 0u);
}

TEST(HopOneTie, ArrivalFromAReleaseScheduledAfterServiceStart) {
  // Packet 0 leaves the bucket at 0 and starts service; packet 1 (emitted at
  // s) is held until R, by a release scheduled at s. Tune the hop so packet
  // 0 completes at exactly R: the completion was scheduled first (at 0 < s),
  // so it fires first and packet 1 finds the link idle.
  Case c;
  c.shaper = ShaperSpec{true, 300e6, 2000.0, -1.0};
  c.params.bursts = 1;
  c.params.burst_length = 2;
  c.params.line_rate_bps = 10e9;
  c.hops.push_back(HopSpec{10e9, 0.0, 1500.0});
  const double release = logged_time(tapped_event_path(c).into[0], 1);
  c.hops[0].rate_bps = rate_for_tx(release);
  ASSERT_EQ(0.0 + 1500.0 * 8.0 / c.hops[0].rate_bps, release);
  const std::vector<Record> want = event_path(c);
  ASSERT_EQ(want.size(), 2u) << "completion-first keeps packet 1";
  TrainTies ties;
  EXPECT_TRUE(same_records(want, recurrence(c, &ties)));
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
  EXPECT_TRUE(same_records(want, recurrence(c, &ties)));
  EXPECT_EQ(ties.completion_first, 19u);
  EXPECT_EQ(ties.arrival_first, 0u);
}

TEST(HopTwoTie, ArrivalScheduledFirstDropsEveryOtherPacket) {
  const Case c = hop_two_tie(2 * kDyadicTx);
  const std::vector<Record> want = event_path(c);
  ASSERT_EQ(want.size(), 10u);
  TrainTies ties;
  EXPECT_TRUE(same_records(want, recurrence(c, &ties)));
  EXPECT_EQ(ties.arrival_first, 10u);
  EXPECT_EQ(ties.completion_first, 0u);
}

TEST(HopTwoTie, BothScheduledAtOneInstantCompletionGoesFirst) {
  // The arrival and the completion share their scheduling instant too; the
  // event key puts the completion first, so every packet gets through.
  const Case c = hop_two_tie(kDyadicTx);
  const std::vector<Record> want = event_path(c);
  ASSERT_EQ(want.size(), 20u);
  TrainTies ties;
  EXPECT_TRUE(same_records(want, recurrence(c, &ties)));
  EXPECT_EQ(ties.completion_first, 19u);
  EXPECT_EQ(ties.arrival_first, 0u);
}

TEST(HopTwoTie, OrderIndependentTiesAreNotCounted) {
  // The same ties with a queue that drops neither way: nothing to order.
  Case c = hop_two_tie(kDyadicTx);
  c.hops[1].queue_bytes = 2e6;
  TrainTies ties;
  EXPECT_TRUE(same_records(event_path(c), recurrence(c, &ties)));
  EXPECT_EQ(ties.arrival_first + ties.completion_first, 0u);
}

TEST(Recurrence, BucketFeedingTheSinkDirectly) {
  Case c;
  c.shaper = ShaperSpec{true, 300e6, 8e3, 0.5e-3};
  c.params.bursts = 3;
  c.params.burst_length = 50;
  c.jitter_s = 2e-6;
  EXPECT_TRUE(same_records(event_path(c), recurrence(c)));
}

// ---- the idle-hop certificate at its boundary -----------------------------

/// The paper's 10 x 200 train at 10 Gb/s, unshaped, through a fast hop, a
/// hop whose transmit time is a few ulps under the emission spacing, and
/// another fast hop, none with delay. Early in the train every hop is idle
/// at every arrival; as send_train's running sum grows, its rounding brings
/// some arrival at hop 1 to (or before) the previous packet's completion
/// there. The departure gaps come within a few ulps of hop 1's transmit
/// time, so the idle-hop certificate must refuse the train and leave it to
/// the per-hop recurrence, in both forms.
Case drifting(double rate_excess, double hop1_queue_bytes) {
  Case c;
  c.shaper.enabled = false;
  c.hops = {HopSpec{20e9, 0.0, 2e6}, HopSpec{10e9 * (1.0 + rate_excess), 0.0, hop1_queue_bytes},
            HopSpec{20e9, 0.0, 2e6}};
  return c;
}

struct Handover {
  std::uint64_t seq = 0;
  std::size_t hop = 0;
  bool tie = false;  ///< the arrival met the completion at the same instant
};

/// Where the idle premise first fails in the oracle: the first packet, in
/// packet order and then hop order, whose arrival at a hop is not strictly
/// after the previous packet's completion there. Without delays a hop's
/// completions are the next tap's log times.
Handover first_handover(const Tapped& t, std::size_t hops) {
  for (std::uint64_t seq = 1; seq < t.emitted.size(); ++seq) {
    for (std::size_t h = 0; h < hops; ++h) {
      const double arrival = logged_time(t.into[h], seq);
      const double previous = logged_time(t.into[h + 1], seq - 1);
      if (!(previous < arrival)) return {seq, h, previous == arrival};
    }
  }
  ADD_FAILURE() << "every hop stayed idle";
  return {};
}

/// Arrivals at hop `h` that met another packet's completion at their very
/// instant, read off the oracle's taps (no delays).
std::uint64_t ties_at(const Tapped& t, std::size_t h) {
  std::uint64_t n = 0;
  for (const auto& [seq, time] : t.into[h]) {
    for (const auto& [other, done] : t.into[h + 1]) {
      if (other != seq && done == time) {
        ++n;
        break;
      }
    }
  }
  return n;
}

/// The summary form, with and without `ties`, equals summarize() of the
/// oracle's records, and counts the same ties as the recording form did.
::testing::AssertionResult same_summary(const Tapped& t, const Case& c,
                                        const TrainTies& recorded) {
  const TrainSummary want = summarize(t.records, c.params);
  if (summary(c) != want) return ::testing::AssertionFailure() << "summary without ties";
  TrainTies ties;
  if (summary(c, &ties) != want) return ::testing::AssertionFailure() << "summary with ties";
  if (ties.arrival_first != recorded.arrival_first ||
      ties.completion_first != recorded.completion_first) {
    return ::testing::AssertionFailure()
           << "summary ties " << ties.arrival_first << "/" << ties.completion_first
           << ", recording form " << recorded.arrival_first << "/" << recorded.completion_first;
  }
  return ::testing::AssertionSuccess();
}

TEST(IdleHandover, LaterHopQueuesPartway) {
  const Case c = drifting(8e-15, 2e6);
  const Tapped t = tapped_event_path(c);
  const Handover at = first_handover(t, c.hops.size());
  EXPECT_GT(at.seq, 50u) << "the first packets find every hop idle";
  EXPECT_EQ(at.hop, 1u);
  EXPECT_FALSE(at.tie);
  ASSERT_EQ(t.records.size(), 2000u) << "a 2 MB queue drops nothing";
  TrainTies ties;
  EXPECT_TRUE(same_records(t.records, recurrence(c, &ties)));
  // Every tie here meets a queue with room either way: none is counted.
  EXPECT_EQ(ties.arrival_first + ties.completion_first, 0u);
  EXPECT_TRUE(same_summary(t, c, ties));
}

TEST(IdleHandover, LaterHopDropsPartway) {
  const Case c = drifting(8e-15, 0.0);
  const Tapped t = tapped_event_path(c);
  const Handover at = first_handover(t, c.hops.size());
  EXPECT_GT(at.seq, 50u);
  EXPECT_EQ(at.hop, 1u);
  EXPECT_FALSE(at.tie);
  ASSERT_LT(t.records.size(), 2000u) << "a hop with no queue drops a busy arrival";
  EXPECT_TRUE(std::isnan(logged_time(t.into[2], at.seq))) << "the handover packet drops";
  TrainTies ties;
  EXPECT_TRUE(same_records(t.records, recurrence(c, &ties)));
  EXPECT_EQ(ties.arrival_first, 0u);
  EXPECT_EQ(ties.completion_first, ties_at(t, 1));
  EXPECT_TRUE(same_summary(t, c, ties));
}

TEST(IdleHandover, LaterHopTiesPartway) {
  // Room for one packet at hop 1: a tie there drops the arrival if it goes
  // first. The completion was scheduled first (when its packet started
  // service), so it fires first and every packet gets through.
  const Case c = drifting(1.6e-14, 1500.0);
  const Tapped t = tapped_event_path(c);
  const Handover at = first_handover(t, c.hops.size());
  EXPECT_GT(at.seq, 50u);
  EXPECT_EQ(at.hop, 1u);
  EXPECT_TRUE(at.tie);
  ASSERT_EQ(t.records.size(), 2000u);
  TrainTies ties;
  EXPECT_TRUE(same_records(t.records, recurrence(c, &ties)));
  EXPECT_EQ(ties.arrival_first, 0u);
  EXPECT_GT(ties.completion_first, 0u);
  EXPECT_EQ(ties.completion_first, ties_at(t, 1));
  EXPECT_TRUE(same_summary(t, c, ties));
}

TEST(IdleHandover, HopRoundingAloneMakesALaterHopBusy) {
  // Every gap between two emissions exceeds every hop's transmit time: hop 1
  // transmits in a few ulps less than the smallest gap. Yet hop 0 rounds
  // each arrival plus its transmit time and its 20 us delay, and that moves
  // some gaps at hop 1 below its transmit time: with no queue there, those
  // packets drop. Only a certificate whose margin covers the hops' roundings
  // sends this train to the per-hop recurrence.
  Case c = drifting(0.0, 0.0);
  c.hops[0].delay_s = 20e-6;
  const Tapped base = tapped_event_path(c);
  double smallest_gap = std::numeric_limits<double>::infinity();
  for (std::size_t k = 1; k < base.emitted.size(); ++k) {
    smallest_gap = std::min(smallest_gap, base.emitted[k].second - base.emitted[k - 1].second);
  }
  double tx = smallest_gap;
  for (int i = 0; i < 4; ++i) tx = std::nextafter(tx, 0.0);
  c.hops[1].rate_bps = rate_for_tx(tx);
  ASSERT_EQ(1500.0 * 8.0 / c.hops[1].rate_bps, tx);
  ASSERT_GT(smallest_gap, 1500.0 * 8.0 / c.hops[0].rate_bps);
  const Tapped t = tapped_event_path(c);
  ASSERT_LT(t.records.size(), 2000u) << "hop 1 finds itself busy and drops";
  TrainTies ties;
  EXPECT_TRUE(same_records(t.records, recurrence(c, &ties)));
  EXPECT_TRUE(same_summary(t, c, ties));
}

// ---- cloud level -------------------------------------------------------

/// Every ordered VM pair of an ec2_2013 and a rackspace cloud, over several
/// epochs: run_train_in_snapshot equals the event path's log over the very
/// chain the cloud built, summarized. (Parallel rounds are pinned against
/// sequential ones by Determinism.ParallelProbingMatchesSequentialBitForBit.)
TEST(CloudTrains, EqualTheEventPathOnEveryPair) {
  for (const cloud::ProviderProfile& profile : {cloud::ec2_2013(), cloud::rackspace()}) {
    cloud::Cloud cl(profile, 7);
    const std::vector<cloud::VmId> vms = cl.allocate_vms(4);
    const TrainParams params;  // the paper's 10 x 200
    for (std::uint64_t epoch : {1u, 2u, 9u}) {
      const cloud::Cloud::TrafficSnapshot snap = cl.traffic_snapshot(epoch);
      for (const cloud::VmId src : vms) {
        for (const cloud::VmId dst : vms) {
          if (src == dst) continue;
          const cloud::Cloud::TrainChain chain =
              cl.train_chain_in_snapshot(src, dst, params, snap);
          Case c{chain.shaper, chain.hops, chain.params, chain.timestamp_jitter_s,
                 chain.sink_seed};
          TrainSummary summary;
          cl.run_train_in_snapshot(src, dst, params, snap, summary);
          EXPECT_EQ(summarize(event_path(c), c.params), summary)
              << profile.name << " " << src << "->" << dst << " epoch " << epoch;
        }
      }
    }
  }
}

}  // namespace
}  // namespace choreo::packetsim
