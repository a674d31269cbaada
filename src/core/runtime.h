#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "core/session.h"
#include "workload/stream.h"

namespace choreo::core {

/// The typed discrete events a session runtime schedules (§2.4's continuously
/// running controller reified): applications arriving, estimated completions
/// freeing VMs, FIFO retries of queued applications, the periodic placement
/// review, and the measurement refresh that precedes each placement.
enum class RuntimeEventKind : std::uint8_t {
  Arrival,
  Departure,
  QueueRetry,
  ReevalTick,
  MeasureRefresh,
};

const char* to_string(RuntimeEventKind kind);

/// Knobs orthogonal to ControllerConfig: what the runtime records, where its
/// measurement epochs come from, and how its log entries are tagged.
struct RuntimeOptions {
  /// Keep every SessionEvent in SessionLog::events. Turn off for long
  /// streaming sessions (counters and outcomes still accumulate).
  bool record_events = true;
  /// Keep every AppOutcome in SessionLog::apps. Turn off for constant-memory
  /// streaming; finished/rejected outcomes are then delivered via on_outcome
  /// and only aggregate counters are kept.
  bool record_outcomes = true;
  /// Optional sink invoked when an application retires (finishes or is
  /// rejected) — the only way to observe per-app results with
  /// record_outcomes off.
  std::function<void(const AppOutcome&)> on_outcome;
  /// Where measurement epochs come from. Default: a runtime-local counter
  /// 1, 2, 3, ... (bit-identical to the historical merge loop). Multi-tenant
  /// sessions share the cloud's counter instead, so tenants' measurement
  /// cycles interleave on the shared clock and observe the cloud's evolving
  /// background realizations in session order.
  std::function<std::uint64_t()> epoch_source;
  /// Tag stamped into every SessionEvent::tenant this runtime emits.
  std::uint32_t tenant = 0;
};

/// Discrete-event control plane for one tenant session: a typed event queue
/// with deterministic tie-breaking on a shared clock, replacing the
/// hand-rolled merge loop the single-tenant driver used to be. Pulls applications
/// one at a time from a workload::ArrivalStream (at most one look-ahead app
/// is held), so week-long traces stream through at constant memory.
///
/// Determinism: events are ordered by (time, phase priority, sequence
/// number). The phase priorities encode the §2.4 processing order at one
/// instant — departures free capacity first, queued applications retry in
/// FIFO order, then arrivals (each preceded by its measurement refresh) are
/// placed, and the periodic re-evaluation runs last; a departure whose
/// estimated completion equals the current instant waits for the next
/// instant's departure phase, exactly like the historical merge loop.
/// test_runtime_differential pins the whole SessionLog — events, outcomes,
/// accounting — bit-identical to run_session_reference (the pre-refactor
/// loop kept verbatim as the oracle in oracles/).
///
/// One documented exclusion from that contract: the old loop merged every
/// event within 1e-9 s of the iteration instant into that iteration, so two
/// events whose times differ by a sub-epsilon-but-nonzero amount were
/// processed as simultaneous; the runtime orders them by their exact
/// timestamps instead. Exactly equal times (the realizable case — e.g. an
/// app with zero network time departing at its arrival instant) reproduce
/// the old order via the phase priorities; times that differ by less than
/// 1e-9 without being equal cannot arise from the workloads' round arrival
/// times and computed completion estimates except by deliberate
/// construction.
class SessionRuntime {
 public:
  /// Runtime introspection counters; the peaks are what
  /// bench/tbl_session_scale uses to enforce constant-memory streaming (the
  /// live state is bounded by the fleet, never by the trace length).
  struct Stats {
    std::uint64_t events_processed = 0;  ///< live events dispatched
    std::uint64_t stale_skipped = 0;     ///< superseded events dropped
    std::uint64_t arrivals = 0;
    std::uint64_t placements = 0;
    std::uint64_t departures = 0;
    std::uint64_t retries = 0;  ///< QueueRetry passes run
    std::uint64_t measure_cycles = 0;
    std::uint64_t reevaluations = 0;
    std::size_t peak_queue = 0;      ///< max pending events
    std::size_t peak_in_flight = 0;  ///< max concurrently running apps
    std::size_t peak_waiting = 0;    ///< max queued (deferred) apps
    /// Every joint batch size the batched retry drain attempted (in order),
    /// successful or not; empty unless config.batch.enabled. Introspection
    /// for tests pinning the drain's step-down sequence — not part of the
    /// SessionLog, so recording it cannot perturb log bit-identity.
    std::vector<std::size_t> batch_attempts;
  };

  SessionRuntime(cloud::Cloud& cloud, std::vector<cloud::VmId> vms,
                 ControllerConfig config, RuntimeOptions options = {});

  /// Runs the initial measurement sweep and schedules the first arrival.
  /// `stream` must outlive the runtime; arrival times must be
  /// non-decreasing (a stream that goes back in time throws
  /// PreconditionError when the offending application is pulled).
  void start(workload::ArrivalStream& stream);

  /// True when no live event remains (stream exhausted, every placed app
  /// departed). The session may still hold waiting apps that can never be
  /// placed — finish() asserts on that.
  bool done();

  /// The next live event's time and kind (the event step() would process),
  /// or nullopt when done. Multi-tenant composition interleaves runtimes on
  /// a shared clock by the time; the sharded control plane uses the kind to
  /// tell apart steps that will draw a measurement epoch (MeasureRefresh,
  /// ReevalTick) — which must be sequenced globally — from steps that touch
  /// only tenant-local state.
  struct PendingEvent {
    double time_s = 0.0;
    RuntimeEventKind kind = RuntimeEventKind::Arrival;
  };
  std::optional<PendingEvent> peek_event();

  /// Processes exactly one live event.
  void step();

  // ---- epoch-draw lookahead (conservative parallel composition) -----------
  // Epoch draws are the only cross-tenant coupling in a multi-tenant
  // session; these accessors let core::ShardedSession bound when this
  // runtime's *next* draw can happen without executing anything. All bounds
  // are conservative (the true next draw is never earlier) and monotone
  // non-decreasing as the session advances.

  /// Arrival time of the pulled-but-unprocessed look-ahead application, or
  /// +infinity when the stream is exhausted. Every future MeasureRefresh
  /// draw happens at or after this instant.
  double pending_arrival_time() const;

  /// Earliest instant a future re-evaluation can fire (and draw an epoch):
  /// ticks are always scheduled at max(next_reeval deadline, now), and the
  /// deadline only moves forward.
  double next_reeval_time() const { return next_reeval_; }

  /// True when nothing is running or queued — re-evaluations cannot fire
  /// before the next arrival is placed, so the next epoch draw is exactly
  /// the pending arrival's measurement refresh.
  bool fleet_idle() const { return in_flight_.empty() && waiting_.empty(); }

  /// Final accounting; returns the session log (moved out). Call once,
  /// after done().
  SessionLog finish();

  /// start + step-to-completion + finish.
  SessionLog run(workload::ArrivalStream& stream);

  const Stats& stats() const { return stats_; }
  double now() const { return now_; }

  /// The controller driving this session (valid after start()). Exposes the
  /// measurement plane's internals — notably Choreo::agent_plane() when the
  /// session runs with config.agents.enabled.
  const Choreo& choreo() const {
    CHOREO_REQUIRE(choreo_ != nullptr);
    return *choreo_;
  }

 private:
  struct Event {
    double time_s = 0.0;
    std::uint32_t prio = 0;
    std::uint64_t seq = 0;
    RuntimeEventKind kind = RuntimeEventKind::Arrival;
    std::uint64_t id = 0;   ///< Departure: AppHandle
    std::uint64_t gen = 0;  ///< Departure / ReevalTick generation
  };
  struct EventAfter {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time_s != b.time_s) return a.time_s > b.time_s;
      if (a.prio != b.prio) return a.prio > b.prio;
      return a.seq > b.seq;
    }
  };

  /// An application the runtime owns between stream pull and retirement.
  /// `outcome` is authoritative only with record_outcomes off; otherwise the
  /// log's slot (indexed by ordinal) is.
  struct AppRecord {
    std::uint32_t ordinal = 0;
    place::Application app;
    AppOutcome outcome;
  };
  struct InFlight {
    AppRecord rec;
    Choreo::AppHandle handle = 0;
    double est_finish_s = 0.0;
    std::uint64_t gen = 0;
  };

  AppOutcome& outcome_of(AppRecord& rec);
  std::uint64_t next_epoch();
  void measure();
  /// Folds one measurement cycle's report into the session accounting
  /// (wall clock, probes, per-pair refresh/forecast counters).
  void accumulate_measure(const Choreo::MeasureReport& report);
  void push_event(Event ev);
  void emit(const SessionEvent& ev);
  void retire(AppRecord& rec);

  void schedule_departure(const InFlight& entry);
  void schedule_tick();
  void schedule_retry(double time_s);
  void pull_next_arrival();

  bool is_stale(const Event& ev) const;
  void prune();

  /// Bookkeeping for an application Choreo just committed: outcome fields,
  /// the Placed event, the in-flight entry, and its departure/tick schedule.
  void admit(AppRecord rec, Choreo::AppHandle handle);
  bool try_place(AppRecord& rec);
  /// Plans the first `count` waiting applications jointly (serving plane's
  /// batched arrival path) and admits all of them; false (state untouched)
  /// when the joint application does not fit.
  bool try_place_batch(std::size_t count);
  void handle_arrival();
  void handle_retry();
  void handle_departure();
  void handle_reeval();

  cloud::Cloud& cloud_;
  std::vector<cloud::VmId> vms_;
  ControllerConfig config_;
  RuntimeOptions opts_;
  std::unique_ptr<Choreo> choreo_;
  workload::ArrivalStream* stream_ = nullptr;
  SessionLog log_;
  std::vector<InFlight> in_flight_;  ///< placement order, like the old loop
  std::deque<AppRecord> waiting_;    ///< FIFO retry queue
  std::optional<AppRecord> pending_; ///< the one look-ahead arrival
  std::priority_queue<Event, std::vector<Event>, EventAfter> queue_;
  double now_ = 0.0;
  double next_reeval_ = 0.0;
  std::uint64_t seq_ = 0;
  std::uint64_t tick_gen_ = 0;
  std::uint64_t local_epoch_ = 1;
  std::uint32_t next_ordinal_ = 0;
  double last_arrival_s_ = -std::numeric_limits<double>::infinity();
  double streamed_runtime_s_ = 0.0;
  bool started_ = false;
  bool finished_ = false;
  Stats stats_;

  /// Session-plane registry handles (resolved from config.choreo.obs at
  /// construction). Session spans additionally stamp sim-time via
  /// SpanGuard::sim(now_, ...), so traces line up on the session clock.
  obs::Counter obs_arrivals_;
  obs::Counter obs_departures_;
  obs::Counter obs_batch_placed_;
};

/// One tenant of a multi-tenant session: a name, a disjoint slice of the
/// shared cloud's VMs, its own controller configuration, and its workload.
/// The stream is not owned and must outlive the session.
struct TenantSpec {
  std::string name;
  std::vector<cloud::VmId> vms;
  ControllerConfig config;
  workload::ArrivalStream* stream = nullptr;
};

struct MultiTenantLog {
  /// One log per tenant, in TenantSpec order.
  std::vector<SessionLog> tenants;
  /// Tenant logs merged on the shared clock: events interleaved by
  /// (time, tenant), outcomes concatenated (event app indices re-based to
  /// the concatenation), counters summed.
  SessionLog aggregate;
};

/// Checks a multi-tenant spec: at least one tenant, every tenant with a
/// stream and at least two VMs, and VM slices pairwise disjoint. Throws
/// PreconditionError otherwise.
void validate_tenants(const std::vector<TenantSpec>& tenants);

/// The one reduction of per-tenant logs (in TenantSpec order) to a
/// MultiTenantLog: counters summed and outcomes concatenated in tenant
/// order, events k-way merged on (time, tenant) with app payloads re-based
/// onto the concatenation (kNoApp passes through). ShardedSession and its
/// single-threaded oracle MultiTenantSession (oracles/) both call it, so
/// their aggregates cannot drift apart.
MultiTenantLog merge_tenant_logs(std::vector<SessionLog> tenants);

}  // namespace choreo::core
