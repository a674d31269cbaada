#include <gtest/gtest.h>

#include <limits>

#include "oracles/event_train.h"
#include "packetsim/sink.h"

namespace choreo::packetsim {
namespace {

TEST(EventQueue, OrdersSameTimeEventsByKey) {
  // Scheduled in reverse key order, at one instant: they fire in key order
  // (scheduling instant, completion before arrival, hop, packet), and an
  // earlier time beats every key.
  EventQueue q;
  std::vector<int> order;
  constexpr double kEmitted = -std::numeric_limits<double>::infinity();
  q.schedule(2.0, {0.0, EventKey::kArrival, 1, 3}, [&] { order.push_back(6); });
  q.schedule(2.0, {0.0, EventKey::kArrival, 1, 2}, [&] { order.push_back(5); });
  q.schedule(2.0, {0.0, EventKey::kArrival, 0, 9}, [&] { order.push_back(4); });
  q.schedule(2.0, {0.0, EventKey::kCompletion, 7, 9}, [&] { order.push_back(3); });
  q.schedule(2.0, {kEmitted, EventKey::kArrival, 7, 9}, [&] { order.push_back(2); });
  q.schedule(1.0, {0.0, EventKey::kArrival, 9, 9}, [&] { order.push_back(1); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
}

TEST(EventQueue, CallbacksMaySchedule) {
  EventQueue q;
  int fired = 0;
  q.schedule(1.0, {}, [&] {
    ++fired;
    q.schedule(q.now() + 1.0, {}, [&] { ++fired; });
  });
  q.run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
}

TEST(EventQueue, RunUntilStopsEarly) {
  EventQueue q;
  int fired = 0;
  q.schedule(1.0, {}, [&] { ++fired; });
  q.schedule(5.0, {}, [&] { ++fired; });
  q.run_until(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
  EXPECT_THROW(q.schedule(1.5, {}, [] {}), PreconditionError);
}

Packet make_packet(std::uint64_t seq, std::uint32_t bytes) {
  Packet p;
  p.seq = seq;
  p.wire_bytes = bytes;
  return p;
}

TEST(Link, SerializationAndDelay) {
  EventQueue q;
  Receiver sink;
  // 1 Mbit/s, 1 ms delay: a 1250-byte packet takes 10 ms to serialize.
  Link link(q, 0, 1e6, 1e-3, 1e6, &sink);
  link.receive(make_packet(0, 1250), 0.0);
  q.run();
  ASSERT_EQ(sink.count(), 1u);
  EXPECT_NEAR(sink.records()[0].time, 0.010 + 0.001, 1e-12);
}

TEST(Link, BackToBackPacketsQueue) {
  EventQueue q;
  Receiver sink;
  Link link(q, 0, 1e6, 0.0, 1e6, &sink);
  link.receive(make_packet(0, 1250), 0.0);
  link.receive(make_packet(1, 1250), 0.0);
  q.run();
  ASSERT_EQ(sink.count(), 2u);
  EXPECT_NEAR(sink.records()[0].time, 0.010, 1e-12);
  EXPECT_NEAR(sink.records()[1].time, 0.020, 1e-12);
  EXPECT_EQ(link.drops(), 0u);
}

TEST(Link, DropTailWhenFull) {
  EventQueue q;
  Receiver sink;
  // Buffer of 2500 bytes counts the packet in service: the first two packets
  // fit, the remaining three drop.
  Link link(q, 0, 1e6, 0.0, 2500, &sink);
  for (std::uint64_t i = 0; i < 5; ++i) link.receive(make_packet(i, 1250), 0.0);
  q.run();
  EXPECT_EQ(sink.count(), 2u);
  EXPECT_EQ(link.drops(), 3u);
}

TEST(TokenBucket, PassesWithinDepthImmediately) {
  EventQueue q;
  Receiver sink;
  TokenBucket tb(q, 1e6, 10000, &sink);
  tb.receive(make_packet(0, 1000), 0.0);
  q.run();
  ASSERT_EQ(sink.count(), 1u);
  EXPECT_DOUBLE_EQ(sink.records()[0].time, 0.0);
}

TEST(TokenBucket, ShapesSustainedLoadToTokenRate) {
  EventQueue q;
  Receiver sink;
  // 8 Mbit/s => 1000 bytes per ms. Depth one packet.
  TokenBucket tb(q, 8e6, 1000, &sink);
  for (std::uint64_t i = 0; i < 11; ++i) tb.receive(make_packet(i, 1000), 0.0);
  q.run();
  ASSERT_EQ(sink.count(), 11u);
  // First passes at t=0 on the full bucket; each next waits 1 ms of refill.
  EXPECT_NEAR(sink.records()[10].time, 0.010, 1e-12);
  // Long-run rate == token rate.
  const double rate = 10.0 * 1000 * 8 / sink.records()[10].time;
  EXPECT_NEAR(rate, 8e6, 1e3);
}

TEST(TokenBucket, IdleResetRestoresBurstAllowance) {
  EventQueue q;
  Receiver sink;
  TokenBucket tb(q, 8e6, 3000, &sink, /*idle_reset_s=*/0.5e-3);
  // Burst of 3 drains the bucket.
  for (std::uint64_t i = 0; i < 3; ++i) tb.receive(make_packet(i, 1000), 0.0);
  q.run();
  ASSERT_EQ(sink.count(), 3u);
  EXPECT_DOUBLE_EQ(sink.records()[2].time, 0.0);
  // After 1 ms idle (> reset), a new burst passes immediately again.
  q.schedule(1e-3, {}, [&] {
    for (std::uint64_t i = 3; i < 6; ++i) tb.receive(make_packet(i, 1000), q.now());
  });
  q.run();
  ASSERT_EQ(sink.count(), 6u);
  EXPECT_DOUBLE_EQ(sink.records()[5].time, 1e-3);
}

TEST(TokenBucket, WithoutIdleResetOnlyPartialRefill) {
  EventQueue q;
  Receiver sink;
  TokenBucket tb(q, 8e6, 3000, &sink, /*idle_reset_s=*/-1.0);
  for (std::uint64_t i = 0; i < 3; ++i) tb.receive(make_packet(i, 1000), 0.0);
  q.run();
  // 1 ms of refill = 1000 bytes only: the second burst's last packets wait.
  q.schedule(1e-3, {}, [&] {
    for (std::uint64_t i = 3; i < 6; ++i) tb.receive(make_packet(i, 1000), q.now());
  });
  q.run();
  ASSERT_EQ(sink.count(), 6u);
  EXPECT_GT(sink.records()[5].time, 2e-3);
}

TEST(UdpTrain, EmitsAllPacketsWithBurstStructure) {
  EventQueue q;
  Receiver sink;
  TrainParams params;
  params.bursts = 3;
  params.burst_length = 5;
  params.packet_bytes = 1472;
  params.inter_burst_gap_s = 1e-3;
  params.line_rate_bps = 1e9;
  send_train(q, sink, params, 1, 0.0);
  q.run();
  ASSERT_EQ(sink.count(), 15u);
  // Sequence numbers are global and bursts stamped.
  EXPECT_EQ(sink.records()[0].burst, 0u);
  EXPECT_EQ(sink.records()[14].burst, 2u);
  EXPECT_EQ(sink.records()[14].seq, 14u);
  // Inter-burst gap visible in timestamps.
  const double burst0_end = sink.records()[4].time;
  const double burst1_start = sink.records()[5].time;
  EXPECT_GE(burst1_start - burst0_end, 1e-3 * 0.99);
}

TEST(UdpTrain, ThroughTokenBucketApproachesTokenRate) {
  EventQueue q;
  Receiver sink;
  TokenBucket tb(q, 100e6, 8e3, &sink);  // shallow bucket
  TrainParams params;
  params.bursts = 5;
  params.burst_length = 200;
  params.line_rate_bps = 4e9;
  send_train(q, tb, params, 1, 0.0);
  q.run();
  ASSERT_EQ(sink.count(), 1000u);
  // Per-burst receive rate should be near the token rate.
  const auto& rec = sink.records();
  double t0 = -1, t1 = -1;
  for (const auto& r : rec) {
    if (r.burst == 1 && t0 < 0) t0 = r.time;
    if (r.burst == 1) t1 = r.time;
  }
  const double burst_bytes = 199.0 * 1500.0;  // first-to-last spans B-1 packets
  const double rate = burst_bytes * 8.0 / (t1 - t0);
  EXPECT_NEAR(rate, 100e6, 8e6);
}

TEST(Path, BuildsChainEntryToSink) {
  EventQueue q;
  Receiver sink;
  ShaperSpec shaper;
  shaper.enabled = true;
  shaper.rate_bps = 1e9;
  shaper.depth_bytes = 10e3;
  std::vector<HopSpec> hops{{1e9, 10e-6, 1e6}, {10e9, 10e-6, 1e6}};
  Path path(q, shaper, hops, &sink);
  EXPECT_EQ(path.hop_count(), 2u);
  EXPECT_DOUBLE_EQ(path.hop(0).rate_bps(), 1e9);
  EXPECT_DOUBLE_EQ(path.hop(1).rate_bps(), 10e9);
  Packet p = make_packet(0, 1500);
  path.entry().receive(p, 0.0);
  q.run();
  EXPECT_EQ(sink.count(), 1u);
}

TEST(RecordingSink, JitterStaysMonotonic) {
  RecordingSink sink(50e-6, 42);
  for (std::uint64_t i = 0; i < 200; ++i) {
    sink.receive({/*flow=*/0, i, /*burst=*/0, 1500, static_cast<double>(i) * 1e-5});
  }
  const auto& rec = sink.records();
  for (std::size_t i = 1; i < rec.size(); ++i) {
    EXPECT_GE(rec[i].time, rec[i - 1].time);
  }
}

}  // namespace
}  // namespace choreo::packetsim
