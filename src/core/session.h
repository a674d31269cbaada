#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/choreo.h"
#include "serve/batch.h"

namespace choreo::core {

/// Session-level configuration of the discrete-event `SessionRuntime`
/// (and of every tenant of the multi-tenant drivers). Drives a whole tenant session
/// the way §2 describes Choreo operating in production: applications arrive
/// over time and are placed on arrival (re-measuring first), finished
/// applications release their VMs, and "every T minutes, Choreo re-evaluates
/// its placement of the existing applications, and migrates tasks if
/// necessary" (§2.4).
struct ControllerConfig {
  ChoreoConfig choreo;
  /// Applications that do not fit at arrival wait in a FIFO queue and are
  /// retried at each departure. When false, an arrival that does not fit is
  /// rejected deterministically: a "rejected" event is logged, the app stays
  /// unplaced (placed_s < 0), and the session continues.
  bool queue_when_full = true;
  /// Opt-in batched drain of the retry queue: after departures free
  /// capacity, up to batch.max_batch waiting applications are planned
  /// jointly (place::combine + one placement) instead of one at a time.
  /// Disabled by default; disabled runs the same drain at max_batch == 1,
  /// which is the FIFO drain.
  serve::BatchArrivalOptions batch;
  /// Opt-in distributed measurement: when agents.enabled, the controller's
  /// measurement cycles run as host-agent/cluster-agent exchanges over a
  /// SimTransport (see agent::AgentOptions) instead of in-process probing.
  /// Copied over choreo.agents at session construction. With the default
  /// lossless zero-delay transport the session log is bit-identical to the
  /// in-process path (pinned by test_agent); with fault injection the
  /// controller places against a stale-or-partial, forecast-filled view.
  agent::AgentOptions agents;
};

/// What happened at one instant of a session. Values format (via
/// to_string) to the historical lower-case log text.
enum class SessionEventKind : std::uint8_t {
  Arrival,       ///< "arrival" — an application reached the controller
  Deferred,      ///< "deferred" — did not fit; queued for retry
  Rejected,      ///< "rejected" — did not fit and queueing is disabled
  Placed,        ///< "placed" — committed to the cluster
  Departure,     ///< "departure" — estimated completion reached; VMs freed
  Reevaluation,  ///< "reevaluation" — §2.4 periodic placement review
};

/// The historical log text ("arrival", "deferred", ...).
const char* to_string(SessionEventKind kind);

/// One session log entry. A plain value type with a typed payload — no
/// per-event heap allocation in the hot session loops; the legacy detail
/// text is reconstructed on demand by SessionLog::detail().
struct SessionEvent {
  /// `app` payload value for events that concern no application
  /// (reevaluations).
  static constexpr std::uint32_t kNoApp = std::numeric_limits<std::uint32_t>::max();

  double time_s = 0.0;
  SessionEventKind kind = SessionEventKind::Arrival;
  /// Index into SessionLog::apps for application events; kNoApp otherwise.
  std::uint32_t app = kNoApp;
  /// Owning tenant in a multi-tenant session's aggregate log; 0 otherwise.
  std::uint32_t tenant = 0;
  /// Reevaluation payload: tasks migrated (0 when the plan was rejected).
  std::uint32_t tasks_migrated = 0;
  /// Reevaluation payload: was the candidate plan adopted?
  bool adopted = false;

  bool operator==(const SessionEvent&) const = default;
};

struct AppOutcome {
  std::string name;
  double arrival_s = 0.0;
  double placed_s = -1.0;   ///< may be later than arrival if queued; stays
                            ///< negative when the app was rejected
  double finished_s = -1.0;
  bool rejected = false;    ///< did not fit and queue_when_full was false
  place::Placement placement;

  bool operator==(const AppOutcome&) const = default;
};

struct SessionLog {
  std::vector<SessionEvent> events;
  std::vector<AppOutcome> apps;
  std::size_t reevaluations = 0;
  std::size_t reevaluations_adopted = 0;
  std::size_t tasks_migrated = 0;
  std::size_t rejected = 0;  ///< arrivals rejected (queue_when_full = false)
  /// Sum over applications of (finished - arrival): the §6.3 metric.
  double total_runtime_s = 0.0;
  /// Measurement-plane cost of the whole session: modeled wall-clock and
  /// probe count summed over every measurement cycle (arrivals and
  /// re-evaluations). Incremental refresh shrinks both.
  double measurement_wall_s = 0.0;
  std::size_t pairs_probed = 0;
  /// Per-pair refresh accounting summed over every measurement cycle: why
  /// probes were spent (fixed policy's volatility rule; the forecast
  /// plane's unpredictable/change-point picks) and what they were saved on
  /// (pairs coasting on forecasts, view entries filled from predictions).
  /// The forecast counters stay zero while ChoreoConfig::forecast is
  /// disabled.
  std::size_t pairs_volatile = 0;
  std::size_t pairs_predictable = 0;
  std::size_t pairs_unpredictable = 0;
  std::size_t pairs_changepoint = 0;
  std::size_t pairs_predicted = 0;

  /// Reconstructs the historical detail text of an event: the application's
  /// name for app events, "migrated N tasks" / "kept placements" for
  /// reevaluations. Requires `e.app` to index into this log's `apps` (i.e.
  /// outcome recording was on) for app events.
  std::string detail(const SessionEvent& e) const;

  /// Field-wise equality over every event, outcome and counter, doubles
  /// compared exactly (no tolerance): the differential suites' contract.
  bool operator==(const SessionLog&) const = default;
};

}  // namespace choreo::core
