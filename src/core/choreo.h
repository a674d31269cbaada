#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "agent/options.h"
#include "cloud/cloud.h"
#include "forecast/refresher.h"
#include "measure/throughput_matrix.h"
#include "obs/observer.h"
#include "place/cluster.h"
#include "place/engine.h"
#include "place/greedy.h"
#include "place/placer.h"

namespace choreo::agent {
class AgentPlane;
}

namespace choreo::core {

struct ChoreoConfig {
  /// Packet-train schedule used by the measurement phase; calibrate per
  /// provider (§4.1).
  measure::MeasurementPlan plan;
  /// Staleness rules for incremental refresh: which cached pair estimates a
  /// measurement cycle re-probes (never measured / older than max_age_epochs
  /// / volatile per the §2.1 predictability signal).
  measure::RefreshPolicy refresh;
  /// Forecast plane (§2.1 predictability, applied online): per-pair rate
  /// history, competing predictors with online error tracking, and
  /// predictability-score-driven refresh planning in place of the fixed
  /// stale/volatile rules. Disabled by default — the disabled pipeline is
  /// bit-identical to the fixed policy (pinned by test_forecast_differential).
  forecast::ForecastOptions forecast;
  /// Rate model for the greedy placement (hose matches what §4.3 found on
  /// EC2 and Rackspace).
  place::RateModel rate_model = place::RateModel::Hose;
  /// §2.4: every T seconds Choreo re-evaluates its placements and migrates
  /// if worthwhile. "T can be chosen to reflect the cost of migration."
  double reevaluate_period_s = 600.0;
  /// Estimated cost of migrating one task (seconds of added completion
  /// time); a migration is adopted only if the estimated completion-time
  /// gain exceeds tasks_moved * this.
  double migration_cost_per_task_s = 20.0;
  /// Harness escape hatch: when false, placement uses ground-truth rates
  /// instead of packet-train measurements (isolates placement quality from
  /// measurement error in ablations).
  bool use_measured_view = true;
  /// Distributed agent plane: when agents.enabled, measure_network() runs a
  /// host-agent/cluster-agent cycle over a SimTransport instead of probing
  /// in-process. With the default (lossless, zero-delay) transport the two
  /// paths are bit-identical (pinned by test_agent); with fault injection
  /// the controller places against a stale-or-partial view with forecast
  /// fill over the gaps. Ignored when use_measured_view is false.
  agent::AgentOptions agents;
  /// Observability plane attachment (src/obs): a null observer (the
  /// default) keeps every instrumentation site a no-op branch. Multi-tenant
  /// drivers hand each tenant `obs.with_lane(tenant, shard)` so traces
  /// separate by lane while counter totals merge deterministically.
  obs::Observer obs;
};

/// The Choreo system (§2): measure the network between the tenant's VMs,
/// profile applications, place each application's tasks, and keep running
/// applications' placements under review.
///
/// One Choreo instance manages one tenant's fleet on one cloud. It is the
/// integration point the examples and the §6 benches drive.
class Choreo {
 public:
  /// Opaque identifier for a placed application, returned by
  /// place_application and valid until remove_application. Never reused
  /// within one Choreo instance.
  using AppHandle = std::size_t;

  /// Manages `vms` (the tenant's rented fleet) on `cloud`. The Cloud must
  /// outlive this object; Choreo only interacts with it through the tenant
  /// interface (packet trains, traceroute, transfers — §2.2).
  Choreo(cloud::Cloud& cloud, std::vector<cloud::VmId> vms, ChoreoConfig config);
  ~Choreo();

  /// The tenant's fleet, in the index order used by ClusterView/Placement
  /// machine indices.
  const std::vector<cloud::VmId>& vms() const { return vms_; }
  const ChoreoConfig& config() const { return config_; }

  /// What one measurement cycle did, on either measure path (the refresh
  /// core's report; see forecast/refresher.h).
  using MeasureReport = forecast::MeasureReport;

  /// Runs the measurement phase (§4.1): packet trains scheduled into
  /// conflict-free rounds (plus traceroute clustering), refreshing the
  /// cluster view placements use. The first call probes every ordered pair;
  /// later calls re-probe only the pairs the refresh plan flags (stale,
  /// volatile, or unpredictable), and swap the refreshed view into
  /// the existing placement state in place (residual occupancy is kept;
  /// only the engine's static rate indexes are rebuilt — no replay of
  /// running applications). `epoch` selects the cloud's
  /// cross-traffic snapshot — the same epoch always observes the same
  /// network conditions, which is what makes runs reproducible. Returns the
  /// wall-clock seconds the phase would take on the real cloud — or 0.0 when
  /// config().use_measured_view is false, in which case the view comes from
  /// ground truth and no trains are sent.
  double measure_network(std::uint64_t epoch);

  /// Detailed accounting of the most recent measure_network() cycle.
  const MeasureReport& last_measure() const { return last_measure_; }

  /// The distributed measurement plane, or nullptr until the first
  /// measure_network() with config.agents.enabled (and never otherwise).
  /// Exposes transport/controller/host counters for benches and tests.
  const agent::AgentPlane* agent_plane() const { return plane_.get(); }

  /// The tenant's current knowledge of its cluster.
  const place::ClusterView& view() const;
  /// Cluster occupancy (committed placements).
  const place::ClusterState& state() const;

  /// Places a new application with the greedy algorithm (§5, Algorithm 1)
  /// on the current state and commits it. Requires measure_network() to
  /// have run; throws place::PlacementError if no assignment satisfies the
  /// CPU capacities and app.constraints.
  AppHandle place_application(const place::Application& app);

  /// Places with a caller-supplied algorithm instead (§5.2 ILP, §6
  /// baselines). Same commit semantics and failure behaviour as above.
  AppHandle place_application(const place::Application& app, place::Placer& placer);

  /// Commits a placement computed elsewhere (the serving plane's batched
  /// arrival path plans several queued applications jointly against state()
  /// and commits each one's slice here). The caller guarantees the placement
  /// is feasible on the current state; same handle semantics as
  /// place_application.
  AppHandle adopt_placement(const place::Application& app,
                            const place::Placement& placement);

  /// Releases a finished application's CPU reservations (§2.4 life cycle);
  /// `handle` becomes invalid.
  void remove_application(AppHandle handle);

  /// A committed application: its profiled traffic matrix (bytes between
  /// task pairs, §2.3) and the task → machine-index assignment.
  struct RunningApp {
    place::Application app;
    place::Placement placement;
  };
  /// All currently committed applications, keyed by handle.
  const std::map<AppHandle, RunningApp>& running() const { return running_; }
  /// The committed assignment for `handle`; machine indices refer to vms().
  const place::Placement& placement_of(AppHandle handle) const;

  /// §2.4 re-evaluation: refreshes the network view incrementally, re-places
  /// every running application from scratch (in arrival order), and adopts
  /// the new plan if the estimated completion-time gain exceeds the
  /// migration cost. A re-plan that cannot fit every app keeps the current
  /// plan and reports `infeasible`.
  struct ReevalReport {
    std::size_t apps_considered = 0;
    /// Tasks whose machine would change under the candidate plan — reported
    /// even when the plan is rejected.
    std::size_t tasks_to_move = 0;
    /// Tasks actually migrated: tasks_to_move when the plan was adopted,
    /// zero otherwise. Safe to accumulate without checking `adopted`.
    std::size_t tasks_migrated = 0;
    /// Predicted completion-time improvement of the candidate plan, seconds.
    double estimated_gain_s = 0.0;
    /// tasks_to_move * ChoreoConfig::migration_cost_per_task_s, seconds.
    double migration_cost_s = 0.0;
    /// True iff the candidate plan was committed (gain exceeded cost).
    bool adopted = false;
    /// True iff the clean-slate re-plan found no CPU-feasible placement for
    /// some running app; the current placements stay and nothing is moved.
    bool infeasible = false;
    /// Cost of the measurement refresh this re-evaluation triggered.
    MeasureReport measurement;
  };
  ReevalReport reevaluate(std::uint64_t epoch);

  /// Converts a placed application into the concrete VM-to-VM transfers
  /// (source VM, destination VM, bytes) to execute on the cloud, all
  /// starting at `start_s` seconds of cloud time. Zero-byte traffic-matrix
  /// entries produce no transfer; co-located pairs produce src == dst
  /// transfers the cloud completes instantly.
  std::vector<cloud::Cloud::Transfer> transfers_for(const place::Application& app,
                                                    const place::Placement& placement,
                                                    double start_s) const;

 private:
  /// Adds `engine`'s counter deltas since `seen` to the registry and
  /// advances `seen`. Called after every placement-producing operation, on
  /// the live engine and on re-evaluation's scratch engine alike.
  void scrape_engine_counters(const place::PlacementEngine& engine,
                              place::PlacementEngine::Counters& seen);

  double estimated_total_completion(
      const std::vector<std::pair<const place::Application*, const place::Placement*>>&
          plan) const;

  cloud::Cloud& cloud_;
  std::vector<cloud::VmId> vms_;
  ChoreoConfig config_;
  std::unique_ptr<place::ClusterState> state_;
  place::GreedyPlacer greedy_;
  std::map<AppHandle, RunningApp> running_;
  AppHandle next_handle_ = 1;
  bool measured_ = false;
  /// The measurement plane, created on the first measure_network(): the
  /// in-process refresh core, or the distributed agent plane (config.agents)
  /// whose ClusterAgent runs the same core. Never both.
  std::optional<forecast::Refresher> refresher_;
  std::unique_ptr<agent::AgentPlane> plane_;
  MeasureReport last_measure_;

  /// obs registry handles, resolved once at construction (inert when
  /// config.obs carries no registry). Engine counters are scraped as deltas
  /// after each placement, so clones/rebuilds never double-count.
  struct ObsHandles {
    obs::Counter measure_cycles, pairs_probed, rounds;
    obs::Counter refresh_never, refresh_stale, refresh_volatile, pairs_predicted;
    obs::Counter apps_placed, candidates_walked, txn_ops;
    obs::Counter reevals, tasks_migrated, reeval_infeasible;
  };
  ObsHandles obs_;
  place::PlacementEngine::Counters engine_seen_;
};

}  // namespace choreo::core
