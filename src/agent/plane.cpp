#include "agent/plane.h"

#include <utility>

#include "measure/throughput_matrix.h"
#include "util/require.h"
#include "util/rng.h"

namespace choreo::agent {

namespace {

std::uint64_t mix3(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  std::uint64_t x = a;
  x = x * 0x9E3779B97F4A7C15ULL + b;
  x ^= x >> 30;
  x = x * 0xBF58476D1CE4E5B9ULL + c;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

AgentPlane::AgentPlane(const cloud::Cloud& cloud, std::vector<std::size_t> vms,
                       measure::MeasurementPlan plan, measure::RefreshPolicy refresh,
                       forecast::ForecastOptions forecast, AgentOptions options)
    : cloud_(cloud),
      vms_(std::move(vms)),
      mplan_(plan),
      opts_(options),
      transport_(vms_.size() + 1, options.transport),
      cluster_(cloud, vms_, plan, refresh, std::move(forecast)) {
  CHOREO_REQUIRE_MSG(vms_.size() >= 2, "agent plane needs at least two VMs");
  hosts_.reserve(vms_.size());
  for (std::uint32_t i = 0; i < vms_.size(); ++i) {
    hosts_.emplace_back(i, opts_,
                        [this](std::uint32_t src, std::uint32_t dst, std::uint32_t round,
                               std::uint64_t epoch) {
                          return execute_probe(src, dst, round, epoch);
                        });
  }
}

void AgentPlane::set_observer(const obs::Observer& o) {
  obs_ = o;
  handles_.cycles = o.counter("agent.cycles");
  handles_.probes_run = o.counter("agent.probes_run");
  handles_.reports_sent = o.counter("agent.reports_sent");
  handles_.retransmits = o.counter("agent.retransmits");
  handles_.crashes = o.counter("agent.crashes");
  handles_.restarts = o.counter("agent.restarts");
  handles_.wire_bytes = o.counter("agent.wire_bytes");
  handles_.msgs_dropped = o.counter("agent.msgs_dropped");
  prev_ = stats();
}

double AgentPlane::execute_probe(std::uint32_t src, std::uint32_t dst,
                                 std::uint32_t round, std::uint64_t epoch) {
  // Same keying as the central scheduler: round r of the cycle probes
  // against round_snapshot(epoch, r), and the train itself is keyed by
  // (snapshot, src, dst) inside the cloud — so a distributed probe
  // reproduces the in-process estimate bit for bit.
  const std::pair<std::uint64_t, std::uint32_t> key{epoch, round};
  auto it = snapshots_.find(key);
  if (it == snapshots_.end()) {
    it = snapshots_.emplace(key, cloud_.round_snapshot(epoch, round)).first;
  }
  return measure::probe_rate_bps(cloud_, vms_[src], vms_[dst], mplan_.train, it->second);
}

void AgentPlane::crash_agent(std::uint32_t id) {
  CHOREO_REQUIRE(id < hosts_.size());
  hosts_[id].crash(cycle_);
}

ClusterAgent::CycleReport AgentPlane::run_cycle(std::uint64_t epoch) {
  CHOREO_OBS_SPAN(span, obs_, "agent.cycle", "agent");
  ++cycle_;
  snapshots_.clear();

  // Phase 0: seed-keyed crash draws, keyed by (crash_seed, cycle, agent) so
  // the crash schedule replays independently of everything else.
  if (opts_.crash_rate > 0.0) {
    for (std::uint32_t i = 0; i < hosts_.size(); ++i) {
      if (hosts_[i].down()) continue;
      Rng rng(mix3(opts_.crash_seed, cycle_, i));
      if (rng.chance(opts_.crash_rate)) hosts_[i].crash(cycle_);
    }
  }

  // Phase 1: the controller plans and fans out ProbeRequests.
  cluster_.begin_cycle(epoch, cycle_, transport_);

  // Phase 2: each host drains its inbox (requests + acks from earlier
  // cycles), runs the directed probes, and ships reports/retransmits.
  for (std::uint32_t i = 0; i < hosts_.size(); ++i) {
    for (auto& d : transport_.receive(endpoint_of(i), cycle_)) {
      if (const auto msg = proto::decode(d.bytes)) hosts_[i].deliver(*msg, cycle_);
    }
    hosts_[i].tick(cycle_, transport_);
  }

  // Phase 3: the controller integrates whatever reports made it through and
  // acks them.
  for (auto& d : transport_.receive(kClusterEndpoint, cycle_)) {
    if (const auto msg = proto::decode(d.bytes)) cluster_.deliver(*msg, cycle_, transport_);
  }

  // Phase 4: hosts take the cycle's acks so same-cycle delivery (the
  // zero-delay oracle) clears the pending queues before any retransmit
  // timer can fire.
  for (std::uint32_t i = 0; i < hosts_.size(); ++i) {
    for (auto& d : transport_.receive(endpoint_of(i), cycle_)) {
      if (const auto msg = proto::decode(d.bytes)) hosts_[i].deliver(*msg, cycle_);
    }
  }

  ClusterAgent::CycleReport report = cluster_.end_cycle(epoch);

  // Scrape this cycle's activity as deltas of the conserved plane totals.
  const Stats now = stats();
  CHOREO_OBS_INC(handles_.cycles, obs_);
  CHOREO_OBS_ADD(handles_.probes_run, obs_, now.probes_run - prev_.probes_run);
  CHOREO_OBS_ADD(handles_.reports_sent, obs_, now.reports_sent - prev_.reports_sent);
  CHOREO_OBS_ADD(handles_.retransmits, obs_, now.retransmits - prev_.retransmits);
  CHOREO_OBS_ADD(handles_.crashes, obs_, now.crashes - prev_.crashes);
  CHOREO_OBS_ADD(handles_.restarts, obs_, now.restarts - prev_.restarts);
  CHOREO_OBS_ADD(handles_.wire_bytes, obs_,
                 now.transport.bytes_sent - prev_.transport.bytes_sent);
  CHOREO_OBS_ADD(handles_.msgs_dropped, obs_,
                 now.transport.dropped - prev_.transport.dropped);
  span.arg("probes", static_cast<double>(now.probes_run - prev_.probes_run));
  span.arg("retransmits", static_cast<double>(now.retransmits - prev_.retransmits));
  span.arg("pairs_missing", static_cast<double>(report.report.agent_pairs_missing));
  prev_ = now;
  return report;
}

AgentPlane::Stats AgentPlane::stats() const {
  Stats s;
  s.transport = transport_.stats();
  s.cluster = cluster_.stats();
  for (const HostAgent& h : hosts_) s += h.stats();
  return s;
}

}  // namespace choreo::agent
