#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "agent/options.h"
#include "agent/proto.h"
#include "net/transport.h"

namespace choreo::agent {

/// Executes one probe directive on behalf of a host agent: measure pair
/// (src, dst) against the cross-traffic snapshot of (epoch + round) and
/// return the estimated rate in bps. Supplied by the AgentPlane so the
/// agent logic stays independent of the Cloud simulator.
using ProbeExecutor = std::function<double(
    std::uint32_t src, std::uint32_t dst, std::uint32_t round, std::uint64_t epoch)>;

/// Per-VM measurement agent. Receives ProbeRequests from the ClusterAgent,
/// runs the directed probes, queues the resulting samples, and ships them
/// as StatsReports under a (generation, seq) reliability envelope: reports
/// are retransmitted with exponential backoff until acked, the sample queue
/// is drained under the configured report budget, and a crash wipes every
/// piece of volatile state — on restart the agent bumps its generation and
/// re-announces with Hello until the controller acks the new incarnation.
class HostAgent {
 public:
  struct Stats {
    std::uint64_t probes_run = 0;
    std::uint64_t reports_sent = 0;  ///< first transmissions only
    std::uint64_t retransmits = 0;
    std::uint64_t crashes = 0;
    std::uint64_t restarts = 0;
    std::uint64_t samples_deferred = 0;  ///< cycle-end backlog sum (budget pressure)

    Stats& operator+=(const Stats& o) {
      probes_run += o.probes_run;
      reports_sent += o.reports_sent;
      retransmits += o.retransmits;
      crashes += o.crashes;
      restarts += o.restarts;
      samples_deferred += o.samples_deferred;
      return *this;
    }
  };

  HostAgent(std::uint32_t id, AgentOptions options, ProbeExecutor executor);

  std::uint32_t id() const { return id_; }
  std::uint32_t generation() const { return generation_; }
  bool down() const { return down_; }

  /// True while anything still needs to reach the controller: queued
  /// samples, unacked reports, or an unacked Hello.
  bool has_backlog() const {
    return !queue_.empty() || !pending_.empty() || hello_pending_;
  }

  /// Invoked from crash() with the dying incarnation's counters, before
  /// they are wiped with the rest of the volatile state. The plane installs
  /// one per host to fold pre-crash activity into its durable accounting —
  /// without a sink those counters are simply lost (as they would be on a
  /// real host whose process died).
  using CrashSink = std::function<void(const Stats&)>;
  void set_crash_sink(CrashSink sink) { crash_sink_ = std::move(sink); }

  /// Crash now: the inbox, sample queue, in-flight unacked reports, AND the
  /// in-memory counters are all lost (after the crash sink, if any, sees
  /// them). The agent restarts `options.down_cycles` cycles later with
  /// generation + 1 and seq reset to 0; the crash event itself is counted
  /// on the fresh incarnation's stats.
  void crash(std::uint64_t cycle);

  /// Handles one delivered message (ProbeRequest / Ack / HelloAck).
  /// Messages delivered while down are dropped on the floor.
  void deliver(const proto::Message& msg, std::uint64_t cycle);

  /// Once per cycle, after deliveries: restart if the downtime elapsed,
  /// re-announce (Hello) if a restart is unacked, pack queued samples into
  /// budgeted StatsReports, and send fresh reports + due retransmits.
  void tick(std::uint64_t cycle, net::SimTransport& transport);

  const Stats& stats() const { return stats_; }
  std::size_t queued_samples() const { return queue_.size(); }
  std::size_t unacked_reports() const { return pending_.size(); }

 private:
  struct PendingReport {
    proto::StatsReport report;
    std::uint64_t next_retry = 0;
    std::uint32_t attempts = 0;
  };

  void send_report(const proto::StatsReport& report, std::uint64_t cycle,
                   net::SimTransport& transport);

  std::uint32_t id_;
  AgentOptions opts_;
  ProbeExecutor executor_;

  std::uint32_t generation_ = 0;
  std::uint32_t next_seq_ = 0;
  bool down_ = false;
  std::uint64_t restart_cycle_ = 0;
  bool hello_pending_ = false;

  std::deque<proto::RateSample> queue_;  ///< measured, not yet packed
  std::vector<PendingReport> pending_;   ///< sent, not yet acked
  Stats stats_;  ///< this incarnation only — crash() wipes it via the sink
  CrashSink crash_sink_;
};

}  // namespace choreo::agent
