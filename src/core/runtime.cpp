#include "core/runtime.h"

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "place/rate_model.h"
#include "serve/batch.h"
#include "util/kway.h"
#include "util/require.h"

namespace choreo::core {
namespace {

// Phase priorities for same-instant events, encoding the historical merge
// loop's within-iteration order: departures free capacity first, queued apps
// retry, then each arrival is measured and placed, and the §2.4
// re-evaluation runs after the arrivals of that instant. A departure whose
// estimated completion *equals* the instant it was scheduled at (an app with
// no network time) belongs to the *next* iteration of the old loop — it must
// run after this instant's arrivals and re-evaluation, hence the trailing
// priority.
constexpr std::uint32_t kPrioDeparture = 0;
constexpr std::uint32_t kPrioQueueRetry = 1;
constexpr std::uint32_t kPrioMeasureRefresh = 2;
constexpr std::uint32_t kPrioArrival = 3;
constexpr std::uint32_t kPrioReevalTick = 4;
constexpr std::uint32_t kPrioSameInstantDeparture = 5;

// The old loop's comparison slack for "due at this instant".
constexpr double kTimeEps = 1e-9;

}  // namespace

const char* to_string(RuntimeEventKind kind) {
  switch (kind) {
    case RuntimeEventKind::Arrival:
      return "Arrival";
    case RuntimeEventKind::Departure:
      return "Departure";
    case RuntimeEventKind::QueueRetry:
      return "QueueRetry";
    case RuntimeEventKind::ReevalTick:
      return "ReevalTick";
    case RuntimeEventKind::MeasureRefresh:
      return "MeasureRefresh";
  }
  return "unknown";
}

SessionRuntime::SessionRuntime(cloud::Cloud& cloud, std::vector<cloud::VmId> vms,
                               ControllerConfig config, RuntimeOptions options)
    : cloud_(cloud),
      vms_(std::move(vms)),
      config_(std::move(config)),
      opts_(std::move(options)) {
  CHOREO_REQUIRE(vms_.size() >= 2);
  CHOREO_REQUIRE(config_.choreo.reevaluate_period_s > 0.0);
  // The session-level agent-plane opt-in is just ChoreoConfig plumbing:
  // every Choreo this runtime constructs measures through the agents.
  if (config_.agents.enabled) config_.choreo.agents = config_.agents;
  next_reeval_ = config_.choreo.reevaluate_period_s;
  obs_arrivals_ = config_.choreo.obs.counter("session.arrivals");
  obs_departures_ = config_.choreo.obs.counter("session.departures");
  obs_batch_placed_ = config_.choreo.obs.counter("session.batch_placed");
}

AppOutcome& SessionRuntime::outcome_of(AppRecord& rec) {
  if (opts_.record_outcomes) return log_.apps[rec.ordinal];
  return rec.outcome;
}

std::uint64_t SessionRuntime::next_epoch() {
  if (opts_.epoch_source) return opts_.epoch_source();
  return local_epoch_++;
}

void SessionRuntime::measure() {
  CHOREO_OBS_SPAN(span, config_.choreo.obs, "session.measure", "session");
  choreo_->measure_network(next_epoch());
  accumulate_measure(choreo_->last_measure());
  ++stats_.measure_cycles;
  span.sim(now_, choreo_->last_measure().wall_time_s);
  span.arg("pairs_probed",
           static_cast<double>(choreo_->last_measure().pairs_probed));
}

void SessionRuntime::accumulate_measure(const Choreo::MeasureReport& report) {
  log_.measurement_wall_s += report.wall_time_s;
  log_.pairs_probed += report.pairs_probed;
  log_.pairs_volatile += report.volatile_pairs;
  log_.pairs_predictable += report.predictable_pairs;
  log_.pairs_unpredictable += report.unpredictable_pairs;
  log_.pairs_changepoint += report.changepoint_pairs;
  log_.pairs_predicted += report.predicted_pairs;
}

void SessionRuntime::push_event(Event ev) {
  ev.seq = seq_++;
  queue_.push(ev);
  stats_.peak_queue = std::max(stats_.peak_queue, queue_.size());
}

void SessionRuntime::emit(const SessionEvent& ev) {
  if (opts_.record_events) log_.events.push_back(ev);
}

void SessionRuntime::retire(AppRecord& rec) {
  // With outcome recording on, the log keeps everything and total_runtime_s
  // is summed at finish() in arrival order (bit-identical to the old loop);
  // with it off, this is the only place per-app results leave the runtime.
  if (!opts_.record_outcomes) {
    if (rec.outcome.finished_s >= 0.0) {
      streamed_runtime_s_ += rec.outcome.finished_s - rec.outcome.arrival_s;
    }
    if (opts_.on_outcome) opts_.on_outcome(rec.outcome);
  } else if (opts_.on_outcome) {
    opts_.on_outcome(log_.apps[rec.ordinal]);
  }
}

void SessionRuntime::schedule_departure(const InFlight& entry) {
  Event ev;
  ev.time_s = entry.est_finish_s;
  // An estimated completion at the current instant waits for the next
  // departure phase (see the priority table above).
  ev.prio = entry.est_finish_s <= now_ ? kPrioSameInstantDeparture : kPrioDeparture;
  ev.kind = RuntimeEventKind::Departure;
  ev.id = entry.handle;
  ev.gen = entry.gen;
  push_event(ev);
}

void SessionRuntime::schedule_tick() {
  ++tick_gen_;
  Event ev;
  ev.time_s = std::max(next_reeval_, now_);
  ev.prio = kPrioReevalTick;
  ev.kind = RuntimeEventKind::ReevalTick;
  ev.gen = tick_gen_;
  push_event(ev);
}

void SessionRuntime::schedule_retry(double time_s) {
  Event ev;
  ev.time_s = time_s;
  ev.prio = kPrioQueueRetry;
  ev.kind = RuntimeEventKind::QueueRetry;
  push_event(ev);
}

void SessionRuntime::pull_next_arrival() {
  CHOREO_ASSERT_MSG(!pending_, "only one look-ahead arrival at a time");
  std::optional<place::Application> app = stream_->next();
  if (!app) return;
  // Out-of-order arrivals would be placed "late" without complaint.
  CHOREO_REQUIRE_MSG(app->arrival_s >= last_arrival_s_,
                     "arrival times must be non-decreasing: '"
                         << app->name << "' arrives at " << app->arrival_s
                         << " s, after an arrival at " << last_arrival_s_ << " s");
  last_arrival_s_ = app->arrival_s;
  AppRecord rec;
  rec.ordinal = next_ordinal_++;
  rec.outcome.name = app->name;
  rec.outcome.arrival_s = app->arrival_s;
  rec.app = std::move(*app);
  if (opts_.record_outcomes) log_.apps.push_back(rec.outcome);

  // §2.4: re-measure (incrementally) before placing — the refresh is its own
  // typed event, sequenced immediately before the arrival it serves.
  Event measure_ev;
  measure_ev.time_s = rec.app.arrival_s;
  measure_ev.prio = kPrioMeasureRefresh;
  measure_ev.kind = RuntimeEventKind::MeasureRefresh;
  push_event(measure_ev);

  Event arrival_ev;
  arrival_ev.time_s = rec.app.arrival_s;
  arrival_ev.prio = kPrioArrival;
  arrival_ev.kind = RuntimeEventKind::Arrival;
  push_event(arrival_ev);

  pending_ = std::move(rec);
}

bool SessionRuntime::is_stale(const Event& ev) const {
  switch (ev.kind) {
    case RuntimeEventKind::Departure: {
      for (const InFlight& entry : in_flight_) {
        if (entry.handle == ev.id) return entry.gen != ev.gen;
      }
      return true;  // already departed
    }
    case RuntimeEventKind::ReevalTick:
      return ev.gen != tick_gen_ || in_flight_.empty();
    case RuntimeEventKind::QueueRetry:
      return waiting_.empty();
    case RuntimeEventKind::Arrival:
    case RuntimeEventKind::MeasureRefresh:
      return false;
  }
  return false;
}

void SessionRuntime::prune() {
  while (!queue_.empty() && is_stale(queue_.top())) {
    queue_.pop();
    ++stats_.stale_skipped;
  }
}

bool SessionRuntime::done() {
  CHOREO_REQUIRE_MSG(started_, "call start() first");
  prune();
  return queue_.empty();
}

std::optional<SessionRuntime::PendingEvent> SessionRuntime::peek_event() {
  CHOREO_REQUIRE_MSG(started_, "call start() first");
  prune();
  if (queue_.empty()) return std::nullopt;
  return PendingEvent{queue_.top().time_s, queue_.top().kind};
}

void SessionRuntime::start(workload::ArrivalStream& stream) {
  CHOREO_REQUIRE_MSG(!started_, "start() may be called once");
  started_ = true;
  stream_ = &stream;
  choreo_ = std::make_unique<Choreo>(cloud_, vms_, config_.choreo);
  measure();
  pull_next_arrival();
}

void SessionRuntime::admit(AppRecord rec, Choreo::AppHandle handle) {
  const place::Placement& p = choreo_->placement_of(handle);
  InFlight entry;
  entry.handle = handle;
  entry.est_finish_s =
      now_ + place::estimate_completion_s(rec.app, p, choreo_->view(),
                                          config_.choreo.rate_model);
  AppOutcome& outcome = outcome_of(rec);
  outcome.placed_s = now_;
  outcome.placement = p;
  SessionEvent placed;
  placed.time_s = now_;
  placed.kind = SessionEventKind::Placed;
  placed.app = rec.ordinal;
  placed.tenant = opts_.tenant;
  emit(placed);
  entry.rec = std::move(rec);
  in_flight_.push_back(std::move(entry));
  stats_.peak_in_flight = std::max(stats_.peak_in_flight, in_flight_.size());
  ++stats_.placements;
  schedule_departure(in_flight_.back());
  // The periodic review only has a next firing while something is running
  // (the old loop's `if (!running.empty())` guard on the reevaluation
  // deadline); re-arm it whenever the fleet transitions from idle.
  if (in_flight_.size() == 1) schedule_tick();
}

bool SessionRuntime::try_place(AppRecord& rec) {
  try {
    const Choreo::AppHandle handle = choreo_->place_application(rec.app);
    admit(std::move(rec), handle);
    return true;
  } catch (const place::PlacementError&) {
    return false;
  }
}

bool SessionRuntime::try_place_batch(std::size_t count) {
  CHOREO_ASSERT(count >= 2 && count <= waiting_.size());
  CHOREO_OBS_SPAN(span, config_.choreo.obs, "serve.batch", "serve");
  span.sim(now_, 0.0);
  span.arg("batch", static_cast<double>(count));
  std::vector<const place::Application*> apps;
  apps.reserve(count);
  for (std::size_t i = 0; i < count; ++i) apps.push_back(&waiting_[i].app);
  serve::BatchPlan plan;
  try {
    plan = serve::plan_batch(apps, choreo_->state(), config_.choreo.rate_model,
                             config_.batch);
  } catch (const place::PlacementError&) {
    return false;
  }
  // The joint placement already accounts for the batch's mutual contention
  // (the combined application was placed as one), so committing each slice
  // in FIFO order reproduces the joint commit: CPU and transfer bookkeeping
  // are additive, and combine()'s traffic matrix is block-diagonal.
  for (std::size_t i = 0; i < count; ++i) {
    AppRecord rec = std::move(waiting_.front());
    waiting_.pop_front();
    const Choreo::AppHandle handle =
        choreo_->adopt_placement(rec.app, plan.placements[i]);
    admit(std::move(rec), handle);
  }
  CHOREO_OBS_ADD(obs_batch_placed_, config_.choreo.obs, count);
  return true;
}

void SessionRuntime::handle_arrival() {
  CHOREO_ASSERT_MSG(pending_, "arrival event without a pending application");
  CHOREO_OBS_SPAN(span, config_.choreo.obs, "session.arrival", "session");
  span.sim(now_, 0.0);
  AppRecord rec = std::move(*pending_);
  pending_.reset();
  ++stats_.arrivals;
  CHOREO_OBS_INC(obs_arrivals_, config_.choreo.obs);

  SessionEvent arrival;
  arrival.time_s = now_;
  arrival.kind = SessionEventKind::Arrival;
  arrival.app = rec.ordinal;
  arrival.tenant = opts_.tenant;
  emit(arrival);

  if (!try_place(rec)) {
    if (config_.queue_when_full) {
      SessionEvent deferred;
      deferred.time_s = now_;
      deferred.kind = SessionEventKind::Deferred;
      deferred.app = rec.ordinal;
      deferred.tenant = opts_.tenant;
      emit(deferred);
      waiting_.push_back(std::move(rec));
      stats_.peak_waiting = std::max(stats_.peak_waiting, waiting_.size());
    } else {
      // Deterministic failure path: the arrival is rejected, logged, and
      // left unplaced — it never enters the queue and never blocks the
      // session.
      outcome_of(rec).rejected = true;
      ++log_.rejected;
      SessionEvent rejected;
      rejected.time_s = now_;
      rejected.kind = SessionEventKind::Rejected;
      rejected.app = rec.ordinal;
      rejected.tenant = opts_.tenant;
      emit(rejected);
      retire(rec);
    }
  }
  pull_next_arrival();
}

void SessionRuntime::handle_retry() {
  ++stats_.retries;
  // Plan up to max_batch queued applications jointly; on joint
  // infeasibility step the batch size down one at a time to the plain
  // single-app attempt. Stepping (not halving) matters: joint feasibility is
  // not monotone in any coarser stride — k == 3 infeasible says nothing
  // about k == 2, and halving used to skip it outright. Head-of-line
  // blocking is preserved — the queue head is part of every attempted
  // batch, and the drain stops when even it alone does not fit. With
  // batching off (max_batch 1) no batch is attempted, so this is the FIFO
  // drain: place the head, stop at the first application that does not fit.
  const std::size_t max_batch = config_.batch.enabled ? config_.batch.max_batch : 1;
  while (!waiting_.empty()) {
    std::size_t k = std::min(max_batch, waiting_.size());
    bool placed = false;
    while (k > 1) {
      stats_.batch_attempts.push_back(k);
      if (try_place_batch(k)) {
        placed = true;
        break;
      }
      --k;
    }
    if (!placed) {
      if (!try_place(waiting_.front())) break;
      waiting_.pop_front();
    }
  }
}

void SessionRuntime::handle_departure() {
  // Finish every app due at this instant, in placement order — exactly the
  // old loop's finish_due scan. Departure events of apps this drain retires
  // become stale and are pruned when they surface.
  for (auto it = in_flight_.begin(); it != in_flight_.end();) {
    if (it->est_finish_s <= now_ + kTimeEps) {
      AppOutcome& outcome = outcome_of(it->rec);
      outcome.finished_s = it->est_finish_s;
      SessionEvent departure;
      departure.time_s = it->est_finish_s;
      departure.kind = SessionEventKind::Departure;
      departure.app = it->rec.ordinal;
      departure.tenant = opts_.tenant;
      emit(departure);
      choreo_->remove_application(it->handle);
      ++stats_.departures;
      CHOREO_OBS_INC(obs_departures_, config_.choreo.obs);
      retire(it->rec);
      it = in_flight_.erase(it);
    } else {
      ++it;
    }
  }
  // Freed capacity gives queued applications their FIFO chance.
  if (!waiting_.empty()) schedule_retry(now_);
}

void SessionRuntime::handle_reeval() {
  CHOREO_ASSERT_MSG(now_ + kTimeEps >= next_reeval_, "re-evaluation fired early");
  CHOREO_OBS_SPAN(span, config_.choreo.obs, "session.reeval", "session");
  const Choreo::ReevalReport report = choreo_->reevaluate(next_epoch());
  span.sim(now_, report.measurement.wall_time_s);
  span.arg("tasks_migrated", static_cast<double>(report.tasks_migrated));
  ++log_.reevaluations;
  ++stats_.reevaluations;
  ++stats_.measure_cycles;
  accumulate_measure(report.measurement);
  if (report.adopted) {
    ++log_.reevaluations_adopted;
    log_.tasks_migrated += report.tasks_migrated;
    // Placements changed: refresh estimates, recorded placements, and the
    // departure schedule (the old events are superseded by generation).
    for (InFlight& entry : in_flight_) {
      const place::Placement& p = choreo_->placement_of(entry.handle);
      outcome_of(entry.rec).placement = p;
      entry.est_finish_s =
          now_ + place::estimate_completion_s(entry.rec.app, p, choreo_->view(),
                                              config_.choreo.rate_model);
      ++entry.gen;
      schedule_departure(entry);
    }
  }
  SessionEvent reeval;
  reeval.time_s = now_;
  reeval.kind = SessionEventKind::Reevaluation;
  reeval.tenant = opts_.tenant;
  reeval.tasks_migrated = static_cast<std::uint32_t>(report.tasks_migrated);
  reeval.adopted = report.adopted;
  emit(reeval);
  next_reeval_ = now_ + config_.choreo.reevaluate_period_s;
  schedule_tick();
  // A migration can redistribute load so that a queued app now fits, but the
  // old loop only retried at its *next* iteration, after that iteration's
  // departures — schedule the retry at the next event's instant, in the
  // retry phase. When the next event is a departure (of either priority),
  // its drain schedules the retry itself; scheduling one here would let the
  // retry run before the departure freed its VMs, which the old loop never
  // did. A duplicate of an already-pending retry would be harmless but is
  // skipped the same way.
  if (report.adopted && !waiting_.empty()) {
    prune();
    CHOREO_ASSERT_MSG(!queue_.empty(), "re-evaluation with nothing scheduled");
    const RuntimeEventKind next_kind = queue_.top().kind;
    if (next_kind != RuntimeEventKind::Departure &&
        next_kind != RuntimeEventKind::QueueRetry) {
      schedule_retry(queue_.top().time_s);
    }
  }
}

void SessionRuntime::step() {
  CHOREO_REQUIRE_MSG(started_, "call start() first");
  prune();
  CHOREO_REQUIRE_MSG(!queue_.empty(), "step() on a finished session");
  const Event ev = queue_.top();
  queue_.pop();
  now_ = std::max(now_, ev.time_s);
  ++stats_.events_processed;
  switch (ev.kind) {
    case RuntimeEventKind::MeasureRefresh:
      measure();
      break;
    case RuntimeEventKind::Arrival:
      handle_arrival();
      break;
    case RuntimeEventKind::QueueRetry:
      handle_retry();
      break;
    case RuntimeEventKind::Departure:
      handle_departure();
      break;
    case RuntimeEventKind::ReevalTick:
      handle_reeval();
      break;
  }
}

SessionLog SessionRuntime::finish() {
  CHOREO_REQUIRE_MSG(started_ && !finished_, "finish() once, after start()");
  CHOREO_REQUIRE_MSG(done(), "finish() before the session drained");
  CHOREO_ASSERT_MSG(waiting_.empty() && !pending_,
                    "waiting applications can never be placed");
  finished_ = true;
  if (opts_.record_outcomes) {
    for (const AppOutcome& a : log_.apps) {
      if (a.finished_s >= 0.0) log_.total_runtime_s += a.finished_s - a.arrival_s;
    }
  } else {
    log_.total_runtime_s = streamed_runtime_s_;
  }
  return std::move(log_);
}

SessionLog SessionRuntime::run(workload::ArrivalStream& stream) {
  start(stream);
  while (!done()) step();
  return finish();
}

void validate_tenants(const std::vector<TenantSpec>& tenants) {
  CHOREO_REQUIRE(!tenants.empty());
  std::unordered_set<cloud::VmId> seen;
  for (const TenantSpec& t : tenants) {
    CHOREO_REQUIRE_MSG(t.stream != nullptr, "tenant without a workload stream");
    CHOREO_REQUIRE(t.vms.size() >= 2);
    for (cloud::VmId vm : t.vms) {
      CHOREO_REQUIRE_MSG(seen.insert(vm).second,
                         "tenant VM slices must be disjoint");
    }
  }
}

MultiTenantLog merge_tenant_logs(std::vector<SessionLog> tenants) {
  MultiTenantLog out;
  out.tenants = std::move(tenants);
  SessionLog& agg = out.aggregate;
  std::vector<std::uint32_t> app_offset(out.tenants.size(), 0);
  for (std::size_t i = 0; i < out.tenants.size(); ++i) {
    const SessionLog& log = out.tenants[i];
    app_offset[i] = static_cast<std::uint32_t>(agg.apps.size());
    agg.apps.insert(agg.apps.end(), log.apps.begin(), log.apps.end());
    agg.reevaluations += log.reevaluations;
    agg.reevaluations_adopted += log.reevaluations_adopted;
    agg.tasks_migrated += log.tasks_migrated;
    agg.rejected += log.rejected;
    agg.total_runtime_s += log.total_runtime_s;
    agg.measurement_wall_s += log.measurement_wall_s;
    agg.pairs_probed += log.pairs_probed;
    agg.pairs_volatile += log.pairs_volatile;
    agg.pairs_predictable += log.pairs_predictable;
    agg.pairs_unpredictable += log.pairs_unpredictable;
    agg.pairs_changepoint += log.pairs_changepoint;
    agg.pairs_predicted += log.pairs_predicted;
  }
  std::vector<std::size_t> cursor(out.tenants.size(), 0);
  while (true) {
    const std::size_t best = util::earliest_index(out.tenants.size(), [&](std::size_t i) {
      return cursor[i] < out.tenants[i].events.size()
                 ? out.tenants[i].events[cursor[i]].time_s
                 : std::numeric_limits<double>::infinity();
    });
    if (best == out.tenants.size()) break;
    SessionEvent ev = out.tenants[best].events[cursor[best]++];
    if (ev.app != SessionEvent::kNoApp) ev.app += app_offset[best];
    agg.events.push_back(ev);
  }
  return out;
}

}  // namespace choreo::core
