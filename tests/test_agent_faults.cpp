// The agent plane under fire: with loss, delay, duplication, and agent
// crashes injected, measurement cycles and whole sessions must complete
// without throwing, the controller must place against the stale-or-partial
// view it actually has, and the reliability envelope's two guards must hold —
// duplicate StatsReport delivery is idempotent at the ClusterAgent, and a
// crash-restarted agent never resurrects its pre-crash in-flight reports.
// Every fault schedule is seed-keyed, so a faulty run replays bit-for-bit.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "agent/cluster_agent.h"
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
#include "workload/generator.h"
#include "workload/stream.h"

namespace choreo::agent {
namespace {

using net::SimTransport;

AgentOptions faulty_options(std::uint64_t seed) {
  AgentOptions opts;
  opts.enabled = true;
  opts.transport.seed = seed;
  opts.transport.fault.loss = 0.2;
  opts.transport.fault.duplicate = 0.1;
  opts.transport.fault.delay_min_cycles = 0;
  opts.transport.fault.delay_max_cycles = 2;
  opts.crash_rate = 0.02;
  opts.crash_seed = seed * 7 + 1;
  opts.down_cycles = 2;
  opts.retry_timeout_cycles = 1;
  return opts;
}

core::ChoreoConfig cheap_config() {
  core::ChoreoConfig config;
  config.plan.train.bursts = 5;
  config.plan.train.burst_length = 100;
  config.refresh.max_age_epochs = 3;
  return config;
}

workload::GeneratorConfig small_apps() {
  workload::GeneratorConfig gen;
  gen.min_tasks = 3;
  gen.max_tasks = 6;
  gen.max_cpu = 2.0;
  return gen;
}

// ---------------------------------------------------------------------------
// randomized fault corpus

TEST(AgentFaults, MeasurementCyclesCompleteUnderFaults) {
  // Aggregate coverage across the corpus: the injected fault kinds and the
  // recovery machinery they exercise must all actually fire.
  AgentPlane::Stats total;
  for (const std::uint64_t seed : {1u, 5u, 9u, 13u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    cloud::Cloud cloud(cloud::ec2_2013(), seed);
    const auto vms = cloud.allocate_vms(6);

    core::ChoreoConfig config = cheap_config();
    config.agents = faulty_options(seed);
    core::Choreo choreo(cloud, vms, config);

    Rng app_rng(seed);
    const workload::GeneratorConfig gen = small_apps();
    for (std::uint64_t epoch = 1; epoch <= 15; ++epoch) {
      ASSERT_NO_THROW(choreo.measure_network(epoch));
      choreo.view().validate();

      // Accounting stays consistent on every cycle: what was planned either
      // reported in-cycle or is missing, never both, never neither.
      const core::Choreo::MeasureReport& rep = choreo.last_measure();
      ASSERT_EQ(rep.pairs_probed + rep.agent_pairs_missing, rep.agent_pairs_planned);

      // Placement runs against whatever view survived the transport.
      if (epoch % 3 == 0) {
        const place::Application app = workload::generate_app(app_rng, gen);
        try {
          choreo.place_application(app);
        } catch (const place::PlacementError&) {
          // A full cluster is a legitimate outcome; a throw from the
          // measurement plane is not (ASSERT_NO_THROW above).
        }
      }
    }

    const AgentPlane* plane = choreo.agent_plane();
    ASSERT_NE(plane, nullptr);
    const AgentPlane::Stats s = plane->stats();
    total.transport.dropped += s.transport.dropped;
    total.transport.duplicated += s.transport.duplicated;
    total.transport.delayed += s.transport.delayed;
    total.cluster.duplicates_dropped += s.cluster.duplicates_dropped;
    total.cluster.samples_superseded += s.cluster.samples_superseded;
    total.cluster.resyncs += s.cluster.resyncs;
    total.cluster.hellos += s.cluster.hellos;
    total.retransmits += s.retransmits;
    total.crashes += s.crashes;
    total.restarts += s.restarts;
  }

  EXPECT_GT(total.transport.dropped, 0u);
  EXPECT_GT(total.transport.duplicated, 0u);
  EXPECT_GT(total.transport.delayed, 0u);
  EXPECT_GT(total.retransmits, 0u);
  EXPECT_GT(total.crashes, 0u);
  EXPECT_GT(total.restarts, 0u);
  EXPECT_GT(total.cluster.hellos, 0u);
  EXPECT_GT(total.cluster.resyncs, 0u);
  EXPECT_GT(total.cluster.duplicates_dropped, 0u);
}

TEST(AgentFaults, SessionsCompleteUnderFaults) {
  for (const std::uint64_t seed : {2u, 8u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    std::vector<place::Application> apps;
    double t = 0.0;
    for (std::size_t i = 0; i < 6; ++i) {
      place::Application app = workload::generate_app(rng, small_apps());
      app.name += std::to_string(i);
      t += rng.uniform(5.0, 60.0);
      app.arrival_s = t;
      apps.push_back(std::move(app));
    }

    core::ControllerConfig config;
    config.choreo = cheap_config();
    config.choreo.reevaluate_period_s = 120.0;
    config.agents = faulty_options(seed);

    cloud::Cloud cloud(cloud::ec2_2013(), seed);
    const auto vms = cloud.allocate_vms(5);
    core::SessionRuntime runtime(cloud, vms, config);
    workload::VectorArrivalStream stream(apps);

    core::SessionLog log;
    ASSERT_NO_THROW(log = runtime.run(stream));
    // Every application retires one way or the other — the session never
    // wedges on lost measurement data.
    for (const core::AppOutcome& out : log.apps) {
      EXPECT_TRUE(out.rejected || out.finished_s >= 0.0) << out.name;
    }
    const AgentPlane* plane = runtime.choreo().agent_plane();
    ASSERT_NE(plane, nullptr);
    EXPECT_GT(plane->stats().reports_sent, 0u);
  }
}

TEST(AgentFaults, LostFirstSweepIsReportedAsDefaulted) {
  // Half of every message is lost, so part of the first sweep never lands:
  // those never-measured pairs read the fallback rate, and Choreo's report
  // must say how many — the same count the agent plane itself reports on a
  // twin run.
  AgentOptions opts;
  opts.enabled = true;
  opts.transport.seed = 3;
  opts.transport.fault.loss = 0.5;
  core::ChoreoConfig config = cheap_config();
  config.agents = opts;

  cloud::Cloud cloud(cloud::ec2_2013(), 12);
  const auto vms = cloud.allocate_vms(6);
  core::Choreo choreo(cloud, vms, config);
  cloud::Cloud twin_cloud(cloud::ec2_2013(), 12);
  const auto twin_vms = twin_cloud.allocate_vms(6);
  AgentPlane twin(twin_cloud, twin_vms, config.plan, config.refresh, config.forecast,
                  opts);

  for (std::uint64_t epoch = 1; epoch <= 4; ++epoch) {
    SCOPED_TRACE("epoch " + std::to_string(epoch));
    choreo.measure_network(epoch);
    const core::Choreo::MeasureReport& rep = choreo.last_measure();
    const forecast::MeasureReport own = twin.run_cycle(epoch).report;
    if (epoch == 1) {
      EXPECT_GT(rep.agent_pairs_missing, 0u);
      EXPECT_GT(rep.pairs_defaulted, 0u);
    }
    EXPECT_EQ(rep.pairs_defaulted, own.pairs_defaulted);
    EXPECT_EQ(rep.agent_pairs_missing, own.agent_pairs_missing);
    choreo.view().validate();
  }
}

TEST(AgentFaults, FaultyRunsReplayBitForBit) {
  const auto run = [](std::uint64_t seed) {
    cloud::Cloud cloud(cloud::ec2_2013(), 21);
    const auto vms = cloud.allocate_vms(6);
    core::ChoreoConfig config = cheap_config();
    AgentPlane plane(cloud, vms, config.plan, config.refresh, config.forecast,
                     faulty_options(seed));
    std::vector<ClusterAgent::CycleReport> reports;
    for (std::uint64_t epoch = 1; epoch <= 12; ++epoch) {
      reports.push_back(plane.run_cycle(epoch));
    }
    return std::make_pair(std::move(reports), plane.stats());
  };

  const auto [reports_a, stats_a] = run(77);
  const auto [reports_b, stats_b] = run(77);
  ASSERT_EQ(reports_a.size(), reports_b.size());
  for (std::size_t i = 0; i < reports_a.size(); ++i) {
    SCOPED_TRACE("cycle " + std::to_string(i + 1));
    ASSERT_TRUE(reports_a[i].view.rate_bps == reports_b[i].view.rate_bps);
    ASSERT_TRUE(reports_a[i].view.pair_epoch == reports_b[i].view.pair_epoch);
    ASSERT_EQ(reports_a[i].report.agent_pairs_planned,
              reports_b[i].report.agent_pairs_planned);
    ASSERT_EQ(reports_a[i].report.agent_pairs_missing,
              reports_b[i].report.agent_pairs_missing);
    ASSERT_EQ(reports_a[i].report.pairs_probed, reports_b[i].report.pairs_probed);
    ASSERT_EQ(reports_a[i].report.agent_reports, reports_b[i].report.agent_reports);
  }
  EXPECT_EQ(stats_a.transport.sent, stats_b.transport.sent);
  EXPECT_EQ(stats_a.transport.dropped, stats_b.transport.dropped);
  EXPECT_EQ(stats_a.transport.duplicated, stats_b.transport.duplicated);
  EXPECT_EQ(stats_a.crashes, stats_b.crashes);
  EXPECT_EQ(stats_a.restarts, stats_b.restarts);
  EXPECT_EQ(stats_a.retransmits, stats_b.retransmits);
  EXPECT_EQ(stats_a.cluster.samples_integrated, stats_b.cluster.samples_integrated);

  // A different transport seed produces a different fault schedule (the
  // schedules are keyed, not incidental).
  const auto [reports_c, stats_c] = run(78);
  (void)reports_c;
  EXPECT_NE(stats_a.transport.dropped, stats_c.transport.dropped);
}

// ---------------------------------------------------------------------------
// reliability-envelope guards (satellite: duplicate idempotence + stale
// generation)

proto::Message report_msg(std::uint32_t agent, std::uint32_t generation,
                          std::uint32_t seq, std::vector<proto::RateSample> samples) {
  proto::Message msg;
  msg.type = proto::MsgType::kStatsReport;
  msg.stats_report.agent = agent;
  msg.stats_report.generation = generation;
  msg.stats_report.seq = seq;
  msg.stats_report.samples = std::move(samples);
  return msg;
}

std::vector<proto::Message> decode_all(SimTransport& t, SimTransport::Endpoint at,
                                       std::uint64_t cycle) {
  std::vector<proto::Message> out;
  for (const auto& d : t.receive(at, cycle)) {
    const auto msg = proto::decode(d.bytes);
    if (msg.has_value()) out.push_back(*msg);
  }
  return out;
}

TEST(ClusterAgentGuards, DuplicateReportDeliveryIsIdempotent) {
  cloud::Cloud cloud(cloud::ec2_2013(), 4);
  const auto vms = cloud.allocate_vms(3);
  core::ChoreoConfig config = cheap_config();
  ClusterAgent cluster(cloud, vms, config.plan, config.refresh, config.forecast);
  SimTransport t(vms.size() + 1, {});

  cluster.begin_cycle(1, 1, t);
  const proto::Message msg =
      report_msg(0, 0, 0, {{0, 1, 1, 5e8}, {0, 2, 1, 7e8}});

  cluster.deliver(msg, 1, t);
  ASSERT_EQ(cluster.stats().reports_integrated, 1u);
  ASSERT_EQ(cluster.stats().samples_integrated, 2u);
  const double rate_01 = cluster.cache().at(0, 1).rate_bps;

  // Same (generation, seq) again — a retransmit or a transport duplicate.
  // Nothing is re-integrated, nothing in the cache moves, but the ack is
  // re-sent in case the first one was lost.
  cluster.deliver(msg, 2, t);
  cluster.deliver(msg, 3, t);
  EXPECT_EQ(cluster.stats().reports_integrated, 1u);
  EXPECT_EQ(cluster.stats().samples_integrated, 2u);
  EXPECT_EQ(cluster.stats().duplicates_dropped, 2u);
  EXPECT_EQ(cluster.cache().at(0, 1).rate_bps, rate_01);

  std::size_t acks = 0;
  for (const proto::Message& m : decode_all(t, endpoint_of(0), 3)) {
    if (m.type != proto::MsgType::kAck) continue;
    ++acks;
    EXPECT_EQ(m.ack.generation, 0u);
    EXPECT_EQ(m.ack.seq, 0u);
  }
  EXPECT_EQ(acks, 3u);  // one per delivery, duplicates included

  const ClusterAgent::CycleReport rep = cluster.end_cycle(1);
  EXPECT_EQ(rep.report.agent_reports, 1u);
  EXPECT_EQ(rep.report.pairs_probed, 2u);
}

TEST(ClusterAgentGuards, StaleGenerationReportsAreDroppedWithoutAck) {
  cloud::Cloud cloud(cloud::ec2_2013(), 4);
  const auto vms = cloud.allocate_vms(3);
  core::ChoreoConfig config = cheap_config();
  ClusterAgent cluster(cloud, vms, config.plan, config.refresh, config.forecast);
  SimTransport t(vms.size() + 1, {});

  cluster.begin_cycle(1, 1, t);
  t.receive(endpoint_of(0), 1);  // drain the probe request

  // The agent restarts: Hello announces generation 1.
  proto::Message hello;
  hello.type = proto::MsgType::kHello;
  hello.hello = {0, 1};
  cluster.deliver(hello, 1, t);
  EXPECT_EQ(cluster.known_generation(0), 1u);
  EXPECT_EQ(cluster.stats().resyncs, 1u);

  // A pre-crash generation-0 report still in flight arrives afterwards: it
  // must be dropped (the data belongs to a dead incarnation, and the new
  // incarnation owns seq 0 now) and must NOT be acked — there is no sender
  // left to stop retransmitting.
  cluster.deliver(report_msg(0, 0, 0, {{0, 1, 1, 5e8}}), 2, t);
  EXPECT_EQ(cluster.stats().stale_generation_dropped, 1u);
  EXPECT_EQ(cluster.stats().samples_integrated, 0u);
  EXPECT_FALSE(cluster.cache().at(0, 1).valid());

  for (const proto::Message& m : decode_all(t, endpoint_of(0), 2)) {
    EXPECT_NE(m.type, proto::MsgType::kAck);  // HelloAck only
  }

  // The new incarnation's seq 0 integrates normally — the dead report did
  // not poison the sequence space.
  cluster.deliver(report_msg(0, 1, 0, {{0, 1, 1, 6e8}}), 3, t);
  EXPECT_EQ(cluster.stats().reports_integrated, 1u);
  EXPECT_EQ(cluster.cache().at(0, 1).rate_bps, 6e8);
}

TEST(ClusterAgentGuards, ReportFromNewerGenerationAdoptsItImplicitly) {
  cloud::Cloud cloud(cloud::ec2_2013(), 4);
  const auto vms = cloud.allocate_vms(3);
  core::ChoreoConfig config = cheap_config();
  ClusterAgent cluster(cloud, vms, config.plan, config.refresh, config.forecast);
  SimTransport t(vms.size() + 1, {});

  cluster.begin_cycle(1, 1, t);
  // The restarted agent's report outruns its Hello (reordering): the
  // controller adopts the new generation from the report itself and
  // schedules the resync.
  cluster.deliver(report_msg(0, 3, 0, {{0, 1, 1, 5e8}}), 1, t);
  EXPECT_EQ(cluster.known_generation(0), 3u);
  EXPECT_EQ(cluster.stats().resyncs, 1u);
  EXPECT_EQ(cluster.stats().reports_integrated, 1u);
}

TEST(HostAgentCrash, PreCrashInFlightReportsNeverResurrect) {
  AgentOptions opts;
  opts.retry_timeout_cycles = 1;
  opts.down_cycles = 2;
  SimTransport t(3, {});
  HostAgent host(1, opts, [](std::uint32_t, std::uint32_t, std::uint32_t,
                             std::uint64_t) { return 1.0; });

  proto::Message req;
  req.type = proto::MsgType::kProbeRequest;
  req.probe_request.agent = 1;
  req.probe_request.epoch = 1;
  req.probe_request.probes = {{1, 0, 0}, {1, 2, 0}};
  host.deliver(req, 1);
  host.tick(1, t);  // report (gen 0, seq 0) sent, unacked
  ASSERT_EQ(host.unacked_reports(), 1u);
  t.receive(0, 1);  // the controller never acks (ack lost)

  host.crash(2);
  EXPECT_TRUE(host.down());
  EXPECT_EQ(host.unacked_reports(), 0u);  // in-flight state died with it
  EXPECT_EQ(host.queued_samples(), 0u);

  for (std::uint64_t cycle = 2; cycle <= 10; ++cycle) host.tick(cycle, t);
  EXPECT_EQ(host.generation(), 1u);
  EXPECT_EQ(host.stats().restarts, 1u);
  // The stale-generation guard's precondition: the pre-crash report is never
  // retransmitted by the new incarnation.
  EXPECT_EQ(host.stats().retransmits, 0u);
  // Per-incarnation counters die with the incarnation: the pre-crash send is
  // gone from stats() (it went to the crash sink — see StatsConservation
  // below), and the fresh incarnation has sent nothing yet.
  EXPECT_EQ(host.stats().reports_sent, 0u);

  // Post-crash traffic is exclusively generation-1 Hellos.
  for (const auto& d : t.receive(0, 100)) {
    const auto msg = proto::decode(d.bytes);
    ASSERT_TRUE(msg.has_value());
    ASSERT_EQ(msg->type, proto::MsgType::kHello);
    EXPECT_EQ(msg->hello.generation, 1u);
  }

  // Once the controller acks the Hello, normal reporting resumes at seq 0 of
  // the new generation.
  proto::Message hello_ack;
  hello_ack.type = proto::MsgType::kHelloAck;
  hello_ack.hello_ack = {1, 1};
  host.deliver(hello_ack, 11);
  host.deliver(req, 11);
  host.tick(11, t);
  const auto arrived = t.receive(0, 11);
  ASSERT_EQ(arrived.size(), 1u);
  const auto msg = proto::decode(arrived[0].bytes);
  ASSERT_EQ(msg->type, proto::MsgType::kStatsReport);
  EXPECT_EQ(msg->stats_report.generation, 1u);
  EXPECT_EQ(msg->stats_report.seq, 0u);
}

TEST(AgentFaults, CrashRestartResyncReprobesTheAgentsRow) {
  cloud::Cloud cloud(cloud::ec2_2013(), 6);
  const auto vms = cloud.allocate_vms(5);
  core::ChoreoConfig config = cheap_config();
  config.refresh.max_age_epochs = 100;  // isolate the resync from staleness
  AgentOptions opts;
  opts.enabled = true;
  opts.down_cycles = 1;
  AgentPlane plane(cloud, vms, config.plan, config.refresh, config.forecast, opts);

  // Two clean cycles: full sweep, then (almost) nothing to refresh.
  plane.run_cycle(1);
  const ClusterAgent::CycleReport quiet = plane.run_cycle(2);

  // Crash at cycle 2; with down_cycles = 1 the agent restarts during cycle 3
  // (dropping cycle 3's probe request on the floor first), its Hello lands
  // the same cycle on the lossless transport, and cycle 4's plan carries the
  // resync.
  plane.crash_agent(2);
  plane.run_cycle(3);
  const ClusterAgent::CycleReport resync = plane.run_cycle(4);

  // The resync re-probed agent 2's outgoing row (every row pair not already
  // planned, accounted as stale — with staleness effectively off, the quiet
  // plan holds at most volatile pairs).
  EXPECT_GE(resync.report.agent_pairs_planned, vms.size() - 1);
  EXPECT_GE(resync.report.stale, 1u);
  EXPECT_GE(resync.report.agent_pairs_planned, quiet.report.agent_pairs_planned);
  EXPECT_GE(plane.stats().restarts, 1u);
  EXPECT_GE(plane.stats().cluster.resyncs, 1u);
}

// ---------------------------------------------------------------------------
// crash-stats conservation: a crash wipes the incarnation's counters, but
// the plane's durable accounting (fed by the crash sink) must never lose
// pre-crash activity — tbl_agents' wire accounting depends on it.

TEST(StatsConservation, CrashSinkReceivesTheDyingIncarnationsCounters) {
  AgentOptions opts;
  opts.retry_timeout_cycles = 1;
  opts.down_cycles = 2;
  SimTransport t(3, {});
  HostAgent host(1, opts, [](std::uint32_t, std::uint32_t, std::uint32_t,
                             std::uint64_t) { return 1.0; });
  HostAgent::Stats sunk;
  std::size_t sink_calls = 0;
  host.set_crash_sink([&](const HostAgent::Stats& s) {
    sunk = s;
    ++sink_calls;
  });

  proto::Message req;
  req.type = proto::MsgType::kProbeRequest;
  req.probe_request.agent = 1;
  req.probe_request.epoch = 1;
  req.probe_request.probes = {{1, 0, 0}, {1, 2, 0}};
  host.deliver(req, 1);
  host.tick(1, t);
  ASSERT_EQ(host.stats().reports_sent, 1u);
  ASSERT_EQ(host.stats().probes_run, 2u);

  host.crash(2);
  ASSERT_EQ(sink_calls, 1u);
  // The sink saw the dying incarnation's counters exactly as they were...
  EXPECT_EQ(sunk.reports_sent, 1u);
  EXPECT_EQ(sunk.probes_run, 2u);
  EXPECT_EQ(sunk.crashes, 0u);  // this crash is charged to the successor
  // ...and the live struct restarted from zero, plus the crash itself.
  EXPECT_EQ(host.stats().reports_sent, 0u);
  EXPECT_EQ(host.stats().probes_run, 0u);
  EXPECT_EQ(host.stats().crashes, 1u);
}

TEST(StatsConservation, PlaneTotalsAreMonotoneAndConservedAcrossCrashes) {
  cloud::Cloud cloud(cloud::ec2_2013(), 11);
  const auto vms = cloud.allocate_vms(6);
  core::ChoreoConfig config = cheap_config();
  AgentOptions opts = faulty_options(11);
  AgentPlane plane(cloud, vms, config.plan, config.refresh, config.forecast, opts);

  AgentPlane::Stats prev;
  for (std::uint64_t cycle = 1; cycle <= 20; ++cycle) {
    // Deterministic mid-run crashes on top of the seeded random ones — the
    // exact case whose pre-crash sends used to vanish from the totals.
    if (cycle == 5) plane.crash_agent(2);
    if (cycle == 11) plane.crash_agent(4);
    plane.run_cycle(cycle);

    const AgentPlane::Stats s = plane.stats();
    SCOPED_TRACE("cycle=" + std::to_string(cycle));
    EXPECT_GE(s.probes_run, prev.probes_run);
    EXPECT_GE(s.reports_sent, prev.reports_sent);
    EXPECT_GE(s.retransmits, prev.retransmits);
    EXPECT_GE(s.crashes, prev.crashes);
    EXPECT_GE(s.restarts, prev.restarts);
    EXPECT_GE(s.transport.bytes_sent, prev.transport.bytes_sent);
    prev = s;
  }

  ASSERT_GE(prev.crashes, 2u);  // the injected crashes actually happened
  // Conservation: every sample the cluster agent ever saw was produced by a
  // probe some incarnation ran — crashes may lose samples (queued ones die
  // with the process) but must never lose the record of having probed.
  EXPECT_LE(prev.cluster.samples_integrated + prev.cluster.samples_superseded,
            prev.probes_run);
  EXPECT_GT(prev.reports_sent, 0u);
}

}  // namespace
}  // namespace choreo::agent
