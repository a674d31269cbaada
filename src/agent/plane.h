#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "agent/cluster_agent.h"
#include "agent/host_agent.h"
#include "agent/options.h"
#include "cloud/cloud.h"
#include "net/transport.h"
#include "obs/observer.h"

namespace choreo::agent {

/// The whole distributed measurement plane behind one controller: N host
/// agents (one per VM), one ClusterAgent, and the SimTransport between
/// them, advanced in lock-step cycles. One run_cycle(epoch) is the agent
/// plane's replacement for one in-process measure_network(epoch) — it
/// returns the same view and MeasureReport, built by the same refresh core
/// from whatever reports survived the transport.
///
/// Phase order within a cycle is fixed (crash draws, restarts + requests,
/// host probe/report, controller integrate/ack, host ack intake), so a run
/// is a pure function of (cloud, options, epoch sequence) — the property
/// the replay-determinism tests pin.
class AgentPlane {
 public:
  /// The host-agent counters (probes_run, reports_sent, ...) summed over
  /// every incarnation, plus the transport's and the controller's.
  struct Stats : HostAgent::Stats {
    net::SimTransport::Stats transport;
    ClusterAgent::Stats cluster;
  };

  AgentPlane(cloud::Cloud& cloud, std::vector<std::size_t> vms,
             measure::MeasurementPlan plan, measure::RefreshPolicy refresh,
             forecast::ForecastOptions forecast, AgentOptions options);

  /// Runs one full measurement cycle at `epoch` and returns the controller's
  /// (possibly stale-or-partial) view of the result.
  ClusterAgent::CycleReport run_cycle(std::uint64_t epoch);

  /// Crashes one agent immediately (test/fault injection entry point); the
  /// agent restarts options.down_cycles cycles later with a new generation.
  void crash_agent(std::uint32_t id);

  std::uint64_t cycle() const { return cycle_; }
  ClusterAgent& cluster() { return cluster_; }
  const ClusterAgent& cluster() const { return cluster_; }
  const HostAgent& host(std::uint32_t id) const { return hosts_[id]; }
  const net::SimTransport& transport() const { return transport_; }
  const AgentOptions& options() const { return opts_; }

  /// Aggregated counters across the transport, the controller, all live
  /// host-agent incarnations, and the durable fold of every crashed
  /// incarnation's pre-crash activity (the crash sinks) — so totals are
  /// conserved across crashes (pinned by test_agent_faults).
  Stats stats() const;

  /// Attaches the observability plane: per-cycle "agent.cycle" spans and
  /// agent.* counter deltas land in `o`'s tracer/registry. Safe to call
  /// any time; a null observer detaches.
  void set_observer(const obs::Observer& o);

 private:
  double execute_probe(std::uint32_t src, std::uint32_t dst, std::uint32_t round,
                       std::uint64_t epoch);

  cloud::Cloud& cloud_;
  std::vector<std::size_t> vms_;
  measure::MeasurementPlan mplan_;
  AgentOptions opts_;

  net::SimTransport transport_;
  ClusterAgent cluster_;
  std::vector<HostAgent> hosts_;

  std::uint64_t cycle_ = 0;
  /// Cross-traffic snapshots shared by every probe of one cycle, keyed by
  /// snapshot epoch (= cycle epoch + round). Purely a simulation-speed
  /// memoization: traffic_snapshot is a deterministic pure function, so
  /// sharing changes nothing.
  std::map<std::uint64_t, cloud::Cloud::TrafficSnapshot> snapshots_;

  /// Host-agent counters salvaged by the crash sinks: the sum of every dead
  /// incarnation's stats. stats() adds this to the live hosts' sums.
  HostAgent::Stats durable_;

  obs::Observer obs_;
  struct ObsHandles {
    obs::Counter cycles, probes_run, reports_sent, retransmits;
    obs::Counter crashes, restarts, wire_bytes, msgs_dropped;
  };
  ObsHandles handles_;
  Stats prev_;  ///< stats() at the end of the previous cycle (delta scraping)
};

}  // namespace choreo::agent
