#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cloud/cloud.h"
#include "forecast/predictive_policy.h"
#include "measure/throughput_matrix.h"
#include "measure/view_cache.h"
#include "place/cluster.h"

namespace choreo::forecast {

/// What one measurement cycle did: the §4.1 overhead accounting, why each
/// probed pair qualified, what the forecast plane skipped and filled in, and
/// — on the agent plane — what survived the transport. Together these say
/// whether each rate the placer trusts was measured, forecast, or defaulted.
struct MeasureReport {
  /// Modeled wall-clock on the real cloud ("less than three minutes for a
  /// ten-node topology", §4.1); 0 when nothing was probed.
  double wall_time_s = 0.0;
  /// Planned pairs whose result landed this cycle: n(n-1) on a full sweep,
  /// fewer after.
  std::size_t pairs_probed = 0;
  std::size_t rounds = 0;  ///< conflict-free concurrent-train rounds
  /// True when this cycle started from cached estimates (not the first sweep).
  bool incremental = false;

  // Why each planned pair qualified (the RefreshPlan counts).
  std::size_t never_measured = 0;  ///< no cached estimate: first sweep, or every probe lost
  /// Older than refresh.max_age_epochs, plus the agent plane's re-sync rows.
  std::size_t stale = 0;
  std::size_t volatile_pairs = 0;  ///< fixed policy's two-sample volatility rule

  // Forecast-plane accounting (all zero while forecasting is disabled).
  std::size_t predictable_pairs = 0;  ///< skipped: forecasts trusted this cycle
  /// Probed because the forecast cannot be trusted: the budget's
  /// worst-predicted picks plus pairs still warming up their error track.
  std::size_t unpredictable_pairs = 0;
  std::size_t changepoint_pairs = 0;  ///< probed: CUSUM flagged a regime shift
  std::size_t predicted_pairs = 0;    ///< view entries filled from forecasts
  bool forecast_full_sweep = false;   ///< regime alarm forced probing everything

  /// View entries no sample or forecast could fill (a never-measured pair
  /// whose probe result was lost), set to the slowest rate measured so far.
  /// Always 0 when every planned probe lands.
  std::size_t pairs_defaulted = 0;

  // Agent-plane accounting (all zero on the in-process path; on the lossless
  // zero-delay transport, planned == probed and missing == 0, keeping every
  // field above bit-identical to the in-process path).
  std::size_t agent_pairs_planned = 0;  ///< pairs the controller requested
  std::size_t agent_pairs_missing = 0;  ///< planned pairs with no in-cycle report
  std::size_t agent_reports = 0;        ///< fresh StatsReports integrated
};

/// The one refresh core every measurement cycle runs through, whoever
/// probes: core::Choreo's in-process packet trains, the agent plane's
/// ClusterAgent, and the forecast bench. It owns the epoch-stamped
/// ViewCache and the PredictivePolicy and runs a cycle in three calls:
///
///   1. plan(epoch) — which pairs to probe, through the policy (verbatim
///      fixed-policy planning while forecasting is disabled);
///   2. record(src, dst, rate, epoch) per probe result, as it arrives;
///   3. finish(probing) — the view and the cycle's MeasureReport.
///
/// A sample only ever advances a pair's estimate, so a caller may record
/// late, duplicated, or reordered results (the agent plane does); the
/// in-process path records each planned pair once, at the cycle's epoch.
class Refresher {
 public:
  /// `vms` is the tenant fleet in view-index order; `cloud` supplies the
  /// tenant topology (traceroute hop counts, co-location, cores) of every
  /// view and must outlive the refresher.
  Refresher(const cloud::Cloud& cloud, std::vector<cloud::VmId> vms,
            measure::RefreshPolicy refresh, ForecastOptions forecast);

  /// Starts a cycle at `epoch` and plans it. Every pair of a row in
  /// `resync_rows` not already planned is added on top, counted as stale:
  /// the agent plane's re-sync of a restarted agent, whose earlier samples
  /// the cache may hold but the new incarnation never produced.
  const measure::RefreshPlan& plan(std::uint64_t epoch,
                                   const std::vector<std::size_t>& resync_rows = {});

  /// Integrates one probe result. It is stored (and scored by the forecast
  /// plane) only if newer than the cached estimate; returns whether it was.
  /// A stored result of the cycle's epoch marks the pair fresh.
  bool record(std::size_t src, std::size_t dst, double rate_bps, std::uint64_t epoch);

  /// What running the plan took, as the caller ran it.
  struct Probing {
    std::size_t rounds = 0;
    double wall_time_s = 0.0;
    /// Agent plane only: fresh StatsReports integrated this cycle. Unset
    /// in-process, where every agent_* counter stays zero.
    std::optional<std::size_t> agent_reports;
  };

  struct Cycle {
    place::ClusterView view;
    MeasureReport report;
  };

  /// Ends the cycle: builds the view from the cache, lets the forecast plane
  /// rewrite every pair that did not land fresh this cycle (forecast fill and
  /// uncertainty discount), and fills the remaining holes with the slowest
  /// rate measured so far (1 Gbps when nothing was).
  Cycle finish(const Probing& probing);

  /// One whole in-process cycle: plan, probe every planned pair with packet
  /// trains on `probe_cloud` (measure::measure_rate_pairs), record, finish.
  Cycle run_in_process(const cloud::Cloud& probe_cloud, const measure::MeasurementPlan& mplan,
                       std::uint64_t epoch);

  /// Drops the cached estimate of src->dst (an operator flagged the path, a
  /// transfer on it failed), so the next plan probes it as never measured.
  void invalidate(std::size_t src, std::size_t dst) { cache_.invalidate(src, dst); }

  std::uint64_t epoch() const { return epoch_; }
  const measure::ViewCache& cache() const { return cache_; }

 private:
  const cloud::Cloud& cloud_;
  std::vector<cloud::VmId> vms_;
  measure::RefreshPolicy refresh_;
  measure::ViewCache cache_;
  PredictivePolicy policy_;

  // Current cycle (plan .. finish).
  std::uint64_t epoch_ = 0;
  measure::RefreshPlan plan_;
  std::vector<std::uint8_t> fresh_;  ///< pair stored at epoch_ this cycle
  bool incremental_ = false;
};

}  // namespace choreo::forecast
