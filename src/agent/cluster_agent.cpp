#include "agent/cluster_agent.h"

#include <utility>

#include "agent/options.h"
#include "measure/probe_scheduler.h"
#include "util/require.h"

namespace choreo::agent {

ClusterAgent::ClusterAgent(const cloud::Cloud& cloud, std::vector<std::size_t> vms,
                           measure::MeasurementPlan plan, measure::RefreshPolicy refresh,
                           forecast::ForecastOptions forecast)
    : mplan_(plan),
      refresher_(cloud, std::move(vms), refresh, std::move(forecast)),
      agents_(refresher_.cache().vm_count()) {}

void ClusterAgent::begin_cycle(std::uint64_t epoch, std::uint64_t cycle,
                               net::SimTransport& transport) {
  const std::size_t n = agents_.size();
  cycle_reports_ = 0;

  // State re-sync for restarted agents: their whole outgoing rows are
  // re-probed on top of the plan (whatever they measured before the crash
  // is gone, and the cache may hold estimates the new incarnation never
  // produced).
  std::vector<std::size_t> resync;
  for (std::uint32_t a = 0; a < n; ++a) {
    if (!agents_[a].resync_pending) continue;
    agents_[a].resync_pending = false;
    resync.push_back(a);
  }
  const measure::RefreshPlan& plan = refresher_.plan(epoch, resync);

  // Central conflict-free round assignment, so the distributed trains carry
  // the same (epoch, round) snapshot keys the in-process scheduler uses.
  rounds_ = 0;
  wall_time_s_ = 0.0;
  if (!plan.pairs.empty()) {
    const measure::ProbeSchedule schedule = measure::schedule_probes(n, plan.pairs);
    rounds_ = schedule.rounds.size();
    wall_time_s_ = measure::measurement_wall_time_s(mplan_, rounds_);

    std::vector<proto::ProbeRequest> requests(n);
    for (std::size_t r = 0; r < schedule.rounds.size(); ++r) {
      for (const measure::ProbePair& p : schedule.rounds[r]) {
        proto::ProbeRequest& req = requests[p.src];
        req.probes.push_back(proto::ProbeDirective{
            static_cast<std::uint32_t>(p.src), static_cast<std::uint32_t>(p.dst),
            static_cast<std::uint32_t>(r)});
      }
    }
    for (std::uint32_t a = 0; a < n; ++a) {
      if (requests[a].probes.empty()) continue;
      requests[a].agent = a;
      requests[a].epoch = epoch;
      transport.send(kClusterEndpoint, endpoint_of(a), proto::encode(requests[a]), cycle);
    }
  }
}

void ClusterAgent::integrate_sample(const proto::RateSample& sample) {
  const std::size_t n = agents_.size();
  if (sample.src >= n || sample.dst >= n || sample.src == sample.dst) return;
  if (refresher_.record(sample.src, sample.dst, sample.rate_bps, sample.epoch)) {
    ++stats_.samples_integrated;
  } else {
    ++stats_.samples_superseded;
  }
}

void ClusterAgent::deliver(const proto::Message& msg, std::uint64_t cycle,
                           net::SimTransport& transport) {
  switch (msg.type) {
    case proto::MsgType::kStatsReport: {
      const proto::StatsReport& report = msg.stats_report;
      if (report.agent >= agents_.size()) return;
      AgentState& st = agents_[report.agent];
      if (report.generation < st.generation) {
        // A dead incarnation's report still in flight. Never integrate and
        // never ack: the restarted agent does not own this seq number, and
        // the pre-crash sender no longer exists to retransmit.
        ++stats_.stale_generation_dropped;
        return;
      }
      if (report.generation > st.generation) {
        // Report outran the Hello: adopt the new incarnation implicitly.
        st.generation = report.generation;
        st.seen_seqs.clear();
        st.resync_pending = true;
        ++stats_.resyncs;
      }
      const proto::Ack ack{report.agent, report.generation, report.seq};
      if (!st.seen_seqs.insert(report.seq).second) {
        // Duplicate delivery (retransmit or transport copy): the ack may
        // have been lost, so re-ack — but integrate nothing.
        ++stats_.duplicates_dropped;
        transport.send(kClusterEndpoint, endpoint_of(report.agent), proto::encode(ack),
                       cycle);
        return;
      }
      for (const proto::RateSample& s : report.samples) integrate_sample(s);
      ++stats_.reports_integrated;
      ++cycle_reports_;
      transport.send(kClusterEndpoint, endpoint_of(report.agent), proto::encode(ack),
                     cycle);
      break;
    }
    case proto::MsgType::kHello: {
      const proto::Hello& hello = msg.hello;
      if (hello.agent >= agents_.size()) return;
      AgentState& st = agents_[hello.agent];
      ++stats_.hellos;
      if (hello.generation > st.generation) {
        st.generation = hello.generation;
        st.seen_seqs.clear();
        st.resync_pending = true;
        ++stats_.resyncs;
      }
      transport.send(kClusterEndpoint, endpoint_of(hello.agent),
                     proto::encode(proto::HelloAck{hello.agent, st.generation}), cycle);
      break;
    }
    default:
      break;  // the controller ignores message types hosts own
  }
}

ClusterAgent::CycleReport ClusterAgent::end_cycle(std::uint64_t epoch) {
  CHOREO_REQUIRE_MSG(epoch == refresher_.epoch(),
                     "end_cycle epoch does not match begin_cycle");
  return refresher_.finish({rounds_, wall_time_s_, cycle_reports_});
}

std::uint32_t ClusterAgent::known_generation(std::uint32_t agent) const {
  CHOREO_REQUIRE(agent < agents_.size());
  return agents_[agent].generation;
}

}  // namespace choreo::agent
