// The distributed agent plane's contract: (a) the proto layer round-trips
// every message and rejects corrupt bytes; (b) the SimTransport is
// deterministic — lossless zero-delay delivery is exact and in order, fault
// schedules replay bit-for-bit under the same seed; (c) the HostAgent's
// report budget packs and defers samples as configured; and (d) — the PR's
// oracle — with the transport configured lossless and zero-delay, the
// agent-plane measurement path is bit-identical to the in-process path:
// same MeasureReports, same rate/provenance matrices, same placements, and
// same SessionLogs over a randomized differential corpus, with forecasting
// both off and on.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "agent/host_agent.h"
#include "agent/options.h"
#include "agent/plane.h"
#include "agent/proto.h"
#include "cloud/cloud.h"
#include "cloud/profile.h"
#include "core/choreo.h"
#include "core/runtime.h"
#include "net/transport.h"
#include "util/rng.h"
#include "util/units.h"
#include "workload/generator.h"
#include "workload/stream.h"

namespace choreo::agent {
namespace {

using net::SimTransport;

// ---------------------------------------------------------------------------
// proto

TEST(AgentProto, RoundTripsEveryMessageType) {
  proto::ProbeRequest req;
  req.agent = 3;
  req.epoch = 42;
  req.probes = {{3, 1, 0}, {3, 2, 1}, {3, 7, 2}};
  const auto req_decoded = proto::decode(proto::encode(req));
  ASSERT_TRUE(req_decoded.has_value());
  ASSERT_EQ(req_decoded->type, proto::MsgType::kProbeRequest);
  EXPECT_EQ(req_decoded->probe_request.agent, req.agent);
  EXPECT_EQ(req_decoded->probe_request.epoch, req.epoch);
  EXPECT_EQ(req_decoded->probe_request.probes, req.probes);

  proto::StatsReport report;
  report.agent = 5;
  report.generation = 2;
  report.seq = 9;
  report.samples = {{5, 0, 41, 1.25e9}, {5, 3, 42, 0.0}, {5, 4, 42, -0.0}};
  const auto rep_decoded = proto::decode(proto::encode(report));
  ASSERT_TRUE(rep_decoded.has_value());
  ASSERT_EQ(rep_decoded->type, proto::MsgType::kStatsReport);
  EXPECT_EQ(rep_decoded->stats_report.agent, report.agent);
  EXPECT_EQ(rep_decoded->stats_report.generation, report.generation);
  EXPECT_EQ(rep_decoded->stats_report.seq, report.seq);
  EXPECT_EQ(rep_decoded->stats_report.samples, report.samples);

  const auto ack = proto::decode(proto::encode(proto::Ack{5, 2, 9}));
  ASSERT_TRUE(ack.has_value());
  ASSERT_EQ(ack->type, proto::MsgType::kAck);
  EXPECT_EQ(ack->ack.agent, 5u);
  EXPECT_EQ(ack->ack.generation, 2u);
  EXPECT_EQ(ack->ack.seq, 9u);

  const auto hello = proto::decode(proto::encode(proto::Hello{7, 4}));
  ASSERT_TRUE(hello.has_value());
  ASSERT_EQ(hello->type, proto::MsgType::kHello);
  EXPECT_EQ(hello->hello.agent, 7u);
  EXPECT_EQ(hello->hello.generation, 4u);

  const auto hello_ack = proto::decode(proto::encode(proto::HelloAck{7, 4}));
  ASSERT_TRUE(hello_ack.has_value());
  ASSERT_EQ(hello_ack->type, proto::MsgType::kHelloAck);
  EXPECT_EQ(hello_ack->hello_ack.agent, 7u);
}

TEST(AgentProto, RejectsCorruptBytes) {
  proto::StatsReport report;
  report.agent = 1;
  report.generation = 1;
  report.seq = 1;
  report.samples = {{1, 2, 3, 4.0}};
  const proto::Bytes good = proto::encode(report);
  ASSERT_TRUE(proto::decode(good).has_value());

  EXPECT_FALSE(proto::decode({}).has_value());

  proto::Bytes bad_magic = good;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(proto::decode(bad_magic).has_value());

  proto::Bytes bad_version = good;
  bad_version[4] ^= 0xFF;
  EXPECT_FALSE(proto::decode(bad_version).has_value());

  proto::Bytes bad_type = good;
  bad_type[6] = 0x7F;
  EXPECT_FALSE(proto::decode(bad_type).has_value());

  // Truncation anywhere in the payload is rejected, never partially decoded.
  for (std::size_t len = 0; len < good.size(); ++len) {
    const proto::Bytes truncated(good.begin(),
                                 good.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_FALSE(proto::decode(truncated).has_value()) << "len " << len;
  }

  proto::Bytes trailing = good;
  trailing.push_back(0);
  EXPECT_FALSE(proto::decode(trailing).has_value());

  // A forged count with a short payload must fail cleanly too.
  proto::Bytes forged = good;
  forged[8] = 0xFF;  // count low byte: claims 255 samples, carries 1
  EXPECT_FALSE(proto::decode(forged).has_value());
}

// ---------------------------------------------------------------------------
// transport

SimTransport::Bytes payload(std::uint8_t tag) { return {tag, 0xAB, 0xCD}; }

TEST(Transport, LosslessZeroDelayDeliversExactlyOnceInSendOrder) {
  SimTransport t(4, {});
  t.send(1, 0, payload(1), 5);
  t.send(2, 0, payload(2), 5);
  t.send(3, 0, payload(3), 5);
  t.send(1, 2, payload(4), 5);

  const auto at_cluster = t.receive(0, 5);
  ASSERT_EQ(at_cluster.size(), 3u);
  EXPECT_EQ(at_cluster[0].from, 1u);
  EXPECT_EQ(at_cluster[0].bytes, payload(1));
  EXPECT_EQ(at_cluster[1].from, 2u);
  EXPECT_EQ(at_cluster[2].from, 3u);
  EXPECT_TRUE(t.receive(0, 6).empty());  // exactly once

  ASSERT_EQ(t.receive(2, 5).size(), 1u);
  EXPECT_EQ(t.stats().sent, 4u);
  EXPECT_EQ(t.stats().delivered, 4u);
  EXPECT_EQ(t.stats().dropped, 0u);
  EXPECT_EQ(t.stats().duplicated, 0u);
  EXPECT_EQ(t.stats().delayed, 0u);
}

TEST(Transport, DelayHoldsMessagesAndReordersAcrossCycles) {
  net::TransportOptions opts;
  opts.seed = 3;
  opts.fault.delay_min_cycles = 1;
  opts.fault.delay_max_cycles = 1;
  SimTransport t(3, opts);
  t.send(1, 0, payload(1), 10);           // due at 11
  EXPECT_TRUE(t.receive(0, 10).empty());  // not yet
  EXPECT_EQ(t.in_flight(0), 1u);

  // A second message sent later but also due at 11+1=12; the cycle-10 send
  // surfaces first because it is due earlier.
  t.send(2, 0, payload(2), 11);
  const auto due = t.receive(0, 12);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due[0].from, 1u);
  EXPECT_EQ(due[1].from, 2u);
  EXPECT_EQ(t.stats().delayed, 2u);
}

TEST(Transport, FaultScheduleReplaysBitForBitAndCoversEveryFaultKind) {
  net::TransportOptions opts;
  opts.seed = 99;
  opts.fault.loss = 0.3;
  opts.fault.duplicate = 0.3;
  opts.fault.delay_min_cycles = 0;
  opts.fault.delay_max_cycles = 2;

  const auto run = [&opts]() {
    SimTransport t(3, opts);
    std::vector<std::pair<std::uint64_t, SimTransport::Bytes>> seen;
    for (std::uint64_t cycle = 1; cycle <= 40; ++cycle) {
      t.send(1, 0, payload(static_cast<std::uint8_t>(cycle)), cycle);
      t.send(2, 0, payload(static_cast<std::uint8_t>(cycle + 100)), cycle);
      for (auto& d : t.receive(0, cycle)) seen.emplace_back(cycle, d.bytes);
    }
    for (auto& d : t.receive(0, 1000)) seen.emplace_back(1000, d.bytes);
    return std::make_pair(seen, t.stats());
  };

  const auto [seen_a, stats_a] = run();
  const auto [seen_b, stats_b] = run();
  EXPECT_EQ(seen_a, seen_b);
  EXPECT_EQ(stats_a.sent, stats_b.sent);
  EXPECT_EQ(stats_a.dropped, stats_b.dropped);
  EXPECT_EQ(stats_a.duplicated, stats_b.duplicated);
  EXPECT_EQ(stats_a.delayed, stats_b.delayed);

  // Coverage: with these rates over 80 sends, every fault kind must fire.
  EXPECT_GT(stats_a.dropped, 0u);
  EXPECT_GT(stats_a.duplicated, 0u);
  EXPECT_GT(stats_a.delayed, 0u);
  // Conservation: every sent message is dropped, delivered, or still queued;
  // duplicates add deliveries on top.
  EXPECT_EQ(stats_a.delivered, stats_a.sent + stats_a.duplicated - stats_a.dropped);
}

// ---------------------------------------------------------------------------
// host agent report budget

TEST(HostAgentBudget, PacksSamplesPerReportAndDefersOverBudget) {
  AgentOptions opts;
  opts.max_samples_per_report = 2;
  opts.max_reports_per_cycle = 1;
  SimTransport t(3, {});
  HostAgent host(1, opts, [](std::uint32_t, std::uint32_t dst, std::uint32_t,
                             std::uint64_t) { return 1e9 + dst; });

  proto::ProbeRequest req;
  req.agent = 1;
  req.epoch = 7;
  req.probes = {{1, 0, 0}, {1, 2, 0}, {1, 3, 1}, {1, 4, 1}, {1, 5, 2}};
  proto::Message msg;
  msg.type = proto::MsgType::kProbeRequest;
  msg.probe_request = req;
  host.deliver(msg, 1);
  EXPECT_EQ(host.stats().probes_run, 5u);
  EXPECT_EQ(host.queued_samples(), 5u);

  // Cycle 1: one report of two samples; three samples defer.
  host.tick(1, t);
  EXPECT_EQ(host.stats().reports_sent, 1u);
  EXPECT_EQ(host.queued_samples(), 3u);
  auto arrived = t.receive(0, 1);
  ASSERT_EQ(arrived.size(), 1u);
  auto decoded = proto::decode(arrived[0].bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->stats_report.seq, 0u);
  ASSERT_EQ(decoded->stats_report.samples.size(), 2u);
  EXPECT_EQ(decoded->stats_report.samples[0].dst, 0u);  // FIFO order
  EXPECT_EQ(decoded->stats_report.samples[1].dst, 2u);
  EXPECT_EQ(decoded->stats_report.samples[0].epoch, 7u);

  // Ack seq 0 so cycle 2 sends a fresh report, not a retransmit.
  proto::Message ack;
  ack.type = proto::MsgType::kAck;
  ack.ack = {1, 0, 0};
  host.deliver(ack, 1);
  EXPECT_EQ(host.unacked_reports(), 0u);

  host.tick(2, t);
  EXPECT_EQ(host.stats().reports_sent, 2u);
  EXPECT_EQ(host.queued_samples(), 1u);
  arrived = t.receive(0, 2);
  ASSERT_EQ(arrived.size(), 1u);
  decoded = proto::decode(arrived[0].bytes);
  EXPECT_EQ(decoded->stats_report.seq, 1u);
  EXPECT_TRUE(host.has_backlog());
  EXPECT_GT(host.stats().samples_deferred, 0u);
}

TEST(HostAgentBudget, RetransmitsUnackedReportsWithBackoff) {
  AgentOptions opts;
  opts.retry_timeout_cycles = 2;
  SimTransport t(3, {});
  HostAgent host(1, opts, [](std::uint32_t, std::uint32_t, std::uint32_t,
                             std::uint64_t) { return 1.0; });

  proto::Message msg;
  msg.type = proto::MsgType::kProbeRequest;
  msg.probe_request.agent = 1;
  msg.probe_request.epoch = 1;
  msg.probe_request.probes = {{1, 0, 0}};
  host.deliver(msg, 1);
  host.tick(1, t);  // first transmission
  EXPECT_EQ(host.stats().reports_sent, 1u);
  EXPECT_EQ(host.stats().retransmits, 0u);

  host.tick(2, t);  // not due yet (timeout 2)
  EXPECT_EQ(host.stats().retransmits, 0u);
  host.tick(3, t);  // due: attempt 2
  EXPECT_EQ(host.stats().retransmits, 1u);
  // Backoff doubles: next retry at 3 + 2*2 = 7.
  host.tick(5, t);
  EXPECT_EQ(host.stats().retransmits, 1u);
  host.tick(7, t);
  EXPECT_EQ(host.stats().retransmits, 2u);

  // Every copy carries the same (generation, seq) bytes.
  const auto copies = t.receive(0, 7);
  ASSERT_EQ(copies.size(), 3u);
  EXPECT_EQ(copies[0].bytes, copies[1].bytes);
  EXPECT_EQ(copies[1].bytes, copies[2].bytes);
}

// ---------------------------------------------------------------------------
// the lossless differential oracle

workload::GeneratorConfig small_apps() {
  workload::GeneratorConfig gen;
  gen.min_tasks = 3;
  gen.max_tasks = 6;
  gen.max_cpu = 2.0;
  return gen;
}

core::ChoreoConfig cheap_measure_config(bool forecast) {
  core::ChoreoConfig config;
  config.plan.train.bursts = 5;
  config.plan.train.burst_length = 100;
  config.refresh.max_age_epochs = 3;
  config.refresh.volatility_threshold = 0.3;
  if (forecast) {
    config.forecast.enabled = true;
    config.forecast.min_observations = 2;
    config.forecast.probe_budget_fraction = 0.25;
    config.forecast.discount_rates = true;
  }
  return config;
}

TEST(AgentDifferential, LosslessCyclesBitIdenticalToInProcessMeasurement) {
  for (const bool forecast : {false, true}) {
    for (const std::uint64_t seed : {11u, 23u, 37u}) {
      SCOPED_TRACE(std::string("forecast=") + (forecast ? "on" : "off") +
                   " seed=" + std::to_string(seed));
      const std::size_t n = 5;
      cloud::Cloud c_sys(cloud::ec2_2013(), seed);
      cloud::Cloud c_ora(cloud::ec2_2013(), seed);
      const auto vms_sys = c_sys.allocate_vms(n);
      const auto vms_ora = c_ora.allocate_vms(n);

      core::ChoreoConfig config = cheap_measure_config(forecast);
      core::ChoreoConfig agents_config = config;
      agents_config.agents.enabled = true;  // default transport: lossless

      core::Choreo sys(c_sys, vms_sys, agents_config);
      core::Choreo ora(c_ora, vms_ora, config);

      Rng app_rng(seed * 1000 + n);
      const workload::GeneratorConfig gen = small_apps();

      for (std::uint64_t epoch = 1; epoch <= 10; ++epoch) {
        sys.measure_network(epoch);
        ora.measure_network(epoch);

        const core::Choreo::MeasureReport& a = sys.last_measure();
        const core::Choreo::MeasureReport& b = ora.last_measure();
        ASSERT_EQ(a.pairs_probed, b.pairs_probed) << "epoch " << epoch;
        ASSERT_EQ(a.rounds, b.rounds) << "epoch " << epoch;
        ASSERT_EQ(a.wall_time_s, b.wall_time_s) << "epoch " << epoch;
        ASSERT_EQ(a.incremental, b.incremental) << "epoch " << epoch;
        ASSERT_EQ(a.never_measured, b.never_measured) << "epoch " << epoch;
        ASSERT_EQ(a.stale, b.stale) << "epoch " << epoch;
        ASSERT_EQ(a.volatile_pairs, b.volatile_pairs) << "epoch " << epoch;
        ASSERT_EQ(a.predictable_pairs, b.predictable_pairs) << "epoch " << epoch;
        ASSERT_EQ(a.unpredictable_pairs, b.unpredictable_pairs) << "epoch " << epoch;
        ASSERT_EQ(a.changepoint_pairs, b.changepoint_pairs) << "epoch " << epoch;
        ASSERT_EQ(a.predicted_pairs, b.predicted_pairs) << "epoch " << epoch;
        ASSERT_EQ(a.forecast_full_sweep, b.forecast_full_sweep) << "epoch " << epoch;
        // On the oracle transport nothing is ever missing.
        ASSERT_EQ(a.agent_pairs_missing, 0u) << "epoch " << epoch;
        ASSERT_EQ(a.agent_pairs_planned, a.pairs_probed) << "epoch " << epoch;

        // Matrices: bit-for-bit, including per-pair provenance.
        ASSERT_TRUE(sys.view().rate_bps == ora.view().rate_bps) << "epoch " << epoch;
        ASSERT_TRUE(sys.view().pair_epoch == ora.view().pair_epoch)
            << "epoch " << epoch;

        if (epoch % 2 == 1) {
          const place::Application app = workload::generate_app(app_rng, gen);
          place::Placement p_sys, p_ora;
          try {
            p_sys = sys.placement_of(sys.place_application(app));
          } catch (const place::PlacementError&) {
          }
          try {
            p_ora = ora.placement_of(ora.place_application(app));
          } catch (const place::PlacementError&) {
          }
          ASSERT_EQ(p_sys.machine_of_task, p_ora.machine_of_task) << "epoch " << epoch;
        }
      }

      // The distributed plane really carried the data: every report crossed
      // the wire, none were lost, dropped, or retried.
      const AgentPlane* plane = sys.agent_plane();
      ASSERT_NE(plane, nullptr);
      EXPECT_GT(plane->stats().reports_sent, 0u);
      EXPECT_GT(plane->stats().probes_run, 0u);
      EXPECT_EQ(plane->stats().retransmits, 0u);
      EXPECT_EQ(plane->stats().transport.dropped, 0u);
      EXPECT_EQ(plane->stats().cluster.duplicates_dropped, 0u);
      EXPECT_EQ(plane->stats().samples_deferred, 0u);
    }
  }
}

std::vector<place::Application> session_workload(Rng& rng, std::size_t count) {
  std::vector<place::Application> apps;
  double t = 0.0;
  const workload::GeneratorConfig gen = small_apps();
  for (std::size_t i = 0; i < count; ++i) {
    place::Application app = workload::generate_app(rng, gen);
    app.name += std::to_string(i);
    t += rng.uniform(5.0, 60.0);
    app.arrival_s = t;
    apps.push_back(std::move(app));
  }
  return apps;
}

core::SessionLog run_session(const cloud::Cloud& cloud, const std::vector<cloud::VmId>& vms,
                             const std::vector<place::Application>& apps,
                             const core::ControllerConfig& config) {
  core::SessionRuntime runtime(cloud, vms, config);
  workload::VectorArrivalStream stream(apps);
  return runtime.run(stream);
}

void expect_logs_identical(const core::SessionLog& ref, const core::SessionLog& got,
                           const std::string& label) {
  ASSERT_EQ(ref.events.size(), got.events.size()) << label;
  for (std::size_t i = 0; i < ref.events.size(); ++i) {
    ASSERT_EQ(ref.events[i].time_s, got.events[i].time_s) << label << " event " << i;
    ASSERT_EQ(ref.events[i].kind, got.events[i].kind) << label << " event " << i;
    ASSERT_EQ(ref.events[i].app, got.events[i].app) << label << " event " << i;
  }
  ASSERT_EQ(ref.apps.size(), got.apps.size()) << label;
  for (std::size_t i = 0; i < ref.apps.size(); ++i) {
    ASSERT_EQ(ref.apps[i].placed_s, got.apps[i].placed_s) << label << " app " << i;
    ASSERT_EQ(ref.apps[i].finished_s, got.apps[i].finished_s) << label << " app " << i;
    ASSERT_EQ(ref.apps[i].placement.machine_of_task,
              got.apps[i].placement.machine_of_task)
        << label << " app " << i;
  }
  ASSERT_EQ(ref.total_runtime_s, got.total_runtime_s) << label;
  ASSERT_EQ(ref.rejected, got.rejected) << label;
  ASSERT_EQ(ref.measurement_wall_s, got.measurement_wall_s) << label;
  ASSERT_EQ(ref.pairs_probed, got.pairs_probed) << label;
}

TEST(AgentDifferential, SessionLogsBitIdenticalOverRandomizedCorpus) {
  for (const bool forecast : {false, true}) {
    for (const std::uint64_t seed : {3u, 17u, 29u}) {
      const std::string label = std::string("forecast=") + (forecast ? "on" : "off") +
                                " seed=" + std::to_string(seed);
      SCOPED_TRACE(label);
      Rng rng(seed);
      const std::vector<place::Application> apps = session_workload(rng, 6);

      core::ControllerConfig config;
      config.choreo = cheap_measure_config(forecast);
      config.choreo.reevaluate_period_s = 120.0;

      core::ControllerConfig agents_on = config;
      agents_on.agents.enabled = true;

      cloud::Cloud c_ora(cloud::ec2_2013(), seed * 31 + 7);
      cloud::Cloud c_sys(cloud::ec2_2013(), seed * 31 + 7);
      const auto vms_ora = c_ora.allocate_vms(5);
      const auto vms_sys = c_sys.allocate_vms(5);

      const core::SessionLog ref = run_session(c_ora, vms_ora, apps, config);
      core::SessionRuntime runtime(c_sys, vms_sys, agents_on);
      workload::VectorArrivalStream stream(apps);
      const core::SessionLog got = runtime.run(stream);

      expect_logs_identical(ref, got, label);
      // The distributed plane really ran under the session.
      const AgentPlane* plane = runtime.choreo().agent_plane();
      ASSERT_NE(plane, nullptr);
      EXPECT_GT(plane->stats().reports_sent, 0u);
      EXPECT_EQ(plane->stats().retransmits, 0u);
    }
  }
}

}  // namespace
}  // namespace choreo::agent
