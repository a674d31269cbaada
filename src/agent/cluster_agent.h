#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "agent/proto.h"
#include "forecast/refresher.h"
#include "measure/throughput_matrix.h"
#include "net/transport.h"

namespace choreo::agent {

/// The controller half of the agent plane. Per measurement cycle it plans a
/// refresh through the same forecast::Refresher core as the in-process
/// pipeline, schedules the planned pairs into conflict-free rounds, and fans
/// the (pair, round) directives out to the owning host agents as
/// ProbeRequests. Incoming StatsReports pass a (generation, seq) guard —
/// stale generations are dropped, duplicates are re-acked but not
/// re-integrated — and each sample is recorded into the refresher, which
/// keeps it only if newer than the cached estimate, so delivery order,
/// duplication, and late arrivals cannot corrupt the view. At cycle end the
/// refresher builds the stale-or-partial view and routes the gaps through
/// the forecast fill.
class ClusterAgent {
 public:
  /// What one cycle produced: the view and the cycle's report, whose agent_*
  /// counters say what survived the transport.
  using CycleReport = forecast::Refresher::Cycle;

  /// Cumulative controller-side counters across all cycles.
  struct Stats {
    std::uint64_t reports_integrated = 0;
    std::uint64_t duplicates_dropped = 0;        ///< same (generation, seq) again
    std::uint64_t stale_generation_dropped = 0;  ///< report from a dead incarnation
    std::uint64_t samples_integrated = 0;
    std::uint64_t samples_superseded = 0;  ///< cache already had a newer/equal epoch
    std::uint64_t hellos = 0;
    std::uint64_t resyncs = 0;  ///< generation bumps observed (crash recoveries)
  };

  /// `vms` is the tenant fleet in view-index order (same contract as
  /// core::Choreo): pair indices in plans, samples, and the cache are
  /// positions in this vector.
  ClusterAgent(cloud::Cloud& cloud, std::vector<std::size_t> vms,
               measure::MeasurementPlan plan, measure::RefreshPolicy refresh,
               forecast::ForecastOptions forecast);

  /// Plans the cycle's refresh and sends per-agent ProbeRequests. Agents the
  /// controller saw restart (Hello with a newer generation) get their entire
  /// outgoing rows re-probed on top of the plan — the state re-sync.
  void begin_cycle(std::uint64_t epoch, std::uint64_t cycle, net::SimTransport& transport);

  /// Handles one delivered message (StatsReport / Hello), sending acks
  /// through `transport`.
  void deliver(const proto::Message& msg, std::uint64_t cycle, net::SimTransport& transport);

  /// Closes the cycle begun at `epoch`: the refresher's view and report.
  CycleReport end_cycle(std::uint64_t epoch);

  const measure::ViewCache& cache() const { return refresher_.cache(); }
  const Stats& stats() const { return stats_; }

  /// Last cycle at which any message from `agent` was delivered (0 = never).
  std::uint64_t last_heard(std::uint32_t agent) const;
  /// The newest generation the controller has accepted from `agent`.
  std::uint32_t known_generation(std::uint32_t agent) const;

 private:
  struct AgentState {
    std::uint32_t generation = 0;
    std::uint64_t last_heard_cycle = 0;
    std::unordered_set<std::uint32_t> seen_seqs;  ///< of the current generation
    bool resync_pending = false;
  };

  void integrate_sample(const proto::RateSample& sample);

  measure::MeasurementPlan mplan_;
  forecast::Refresher refresher_;
  std::vector<AgentState> agents_;

  // Current-cycle state (begin_cycle .. end_cycle).
  std::size_t rounds_ = 0;
  double wall_time_s_ = 0.0;
  std::size_t cycle_reports_ = 0;

  Stats stats_;
};

}  // namespace choreo::agent
