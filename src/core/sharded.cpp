#include "core/sharded.h"

#include <algorithm>
#include <utility>

#include "util/kway.h"
#include "util/require.h"
#include "util/worker_pool.h"

namespace choreo::core {

// ---- EpochArbiter ----------------------------------------------------------

EpochArbiter::EpochArbiter(std::size_t tenants, std::function<std::uint64_t()> draw)
    : slots_(tenants), draw_(std::move(draw)) {
  CHOREO_REQUIRE(tenants >= 1);
  CHOREO_REQUIRE(draw_ != nullptr);
  for (std::size_t i = 0; i < tenants; ++i) ready_.push_back({i, std::nullopt});
}

std::optional<std::uint64_t> EpochArbiter::try_grants_locked(std::size_t caller) {
  std::optional<std::uint64_t> granted;
  while (true) {
    // The lex-min pending request is the only candidate: grants must follow
    // the oracle's (time, tenant) order exactly.
    std::size_t best = slots_.size();
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].state != State::Waiting) continue;
      if (best == slots_.size() ||
          util::earlier_key(slots_[i].request_time, i, slots_[best].request_time, best)) {
        best = i;
      }
    }
    if (best == slots_.size()) break;

    // Safe iff no other live tenant can still draw at an earlier key. A
    // waiting tenant's key is exact; a ready or running tenant's advertised
    // bound is conservative, so a grant blocked by it is only delayed, never
    // lost.
    const double t = slots_[best].request_time;
    bool safe = true;
    for (std::size_t j = 0; j < slots_.size(); ++j) {
      if (j == best) continue;
      const Slot& other = slots_[j];
      if (other.state == State::Done) continue;
      const double key =
          other.state == State::Waiting ? other.request_time : other.bound;
      if (!util::earlier_key(t, best, key, j)) {
        safe = false;
        break;
      }
    }
    if (!safe) break;

    Slot& slot = slots_[best];
    const std::uint64_t epoch = draw_();
    // From the grant on, the tenant counts as running again with its
    // declared post-draw bound — which is what lets the *next* pending
    // request be granted in the same pass (the cascade that pipelines
    // measurement work across tenants).
    slot.bound = std::max(slot.bound, slot.post_bound);
    ++grants_;
    if (best == caller) {
      slot.state = State::Running;
      granted = epoch;
    } else {
      slot.state = State::Ready;
      ready_.push_back({best, epoch});
      cv_.notify_one();
    }
  }
  return granted;
}

void EpochArbiter::check_in_locked(Slot& slot, State state) {
  slot.state = state;
  // The last checked-out tenant leaving wakes every sleeper: either all are
  // done, or a sleeper must find the schedule wedged and throw.
  if (--checked_out_ == 0) cv_.notify_all();
}

std::optional<EpochArbiter::Ticket> EpochArbiter::acquire() {
  std::unique_lock<std::mutex> lock(mu_);
  while (ready_.empty() && !aborted_ && done_count_ < slots_.size()) {
    // Only a checked-out tenant can make another one ready (by a bound, a
    // request or finishing). With none, waiting would hang: fail loudly.
    CHOREO_REQUIRE_MSG(checked_out_ > 0,
                       "sharded session stalled: no tenant is ready or running");
    ++idle_waits_;
    cv_.wait(lock);
  }
  if (aborted_ || ready_.empty()) return std::nullopt;
  Ticket ticket = ready_.front();
  ready_.pop_front();
  slots_[ticket.tenant].state = State::Running;
  ++checked_out_;
  return ticket;
}

void EpochArbiter::set_bound(std::size_t tenant, double bound) {
  const std::lock_guard<std::mutex> lock(mu_);
  Slot& slot = slots_[tenant];
  CHOREO_ASSERT_MSG(slot.state == State::Running, "set_bound on a tenant not checked out");
  // Re-advertising a weaker bound is legal (the caller recomputed from a
  // more conservative formula); keeping the max never invalidates anything
  // because every advertised bound was a true lower bound when set.
  if (bound <= slot.bound) return;
  slot.bound = bound;
  try_grants_locked(slots_.size());
}

std::optional<std::uint64_t> EpochArbiter::request(std::size_t tenant, double time_s,
                                                   double post_bound) {
  const std::lock_guard<std::mutex> lock(mu_);
  Slot& slot = slots_[tenant];
  CHOREO_ASSERT_MSG(slot.state == State::Running, "request by a tenant not checked out");
  CHOREO_ASSERT_MSG(time_s >= slot.bound,
                    "a tenant drew earlier than its advertised bound");
  slot.state = State::Waiting;
  slot.request_time = time_s;
  slot.post_bound = post_bound;
  const std::optional<std::uint64_t> epoch = try_grants_locked(tenant);
  if (!epoch) check_in_locked(slot, State::Waiting);
  return epoch;
}

void EpochArbiter::mark_done(std::size_t tenant) {
  const std::lock_guard<std::mutex> lock(mu_);
  Slot& slot = slots_[tenant];
  CHOREO_ASSERT_MSG(slot.state == State::Running, "mark_done on a tenant not checked out");
  check_in_locked(slot, State::Done);
  ++done_count_;
  try_grants_locked(slots_.size());
}

void EpochArbiter::abort() {
  const std::lock_guard<std::mutex> lock(mu_);
  aborted_ = true;
  cv_.notify_all();
}

std::uint64_t EpochArbiter::grants() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return grants_;
}

std::uint64_t EpochArbiter::idle_waits() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return idle_waits_;
}

// ---- ShardedSession --------------------------------------------------------

namespace {

/// One-application look-ahead over a tenant's workload: the sharded
/// scheduler needs the arrival time *after* the runtime's pending one to
/// bound a tenant's next epoch draw before executing the current one.
/// Pulling one application early changes nothing downstream — streams are
/// deterministic state machines, so the delivered sequence is identical.
class PeekStream final : public workload::ArrivalStream {
 public:
  explicit PeekStream(workload::ArrivalStream& inner) : inner_(&inner) {}

  std::optional<place::Application> next() override {
    if (buffer_) {
      std::optional<place::Application> out = std::move(buffer_);
      buffer_.reset();
      return out;
    }
    return inner_->next();
  }

  /// Arrival time of the next application, +infinity when exhausted.
  double peek_time() {
    if (!buffer_) buffer_ = inner_->next();
    if (!buffer_) return std::numeric_limits<double>::infinity();
    return buffer_->arrival_s;
  }

 private:
  workload::ArrivalStream* inner_;
  std::optional<place::Application> buffer_;
};

}  // namespace

struct ShardedSession::TenantCell {
  std::size_t index = 0;
  double period_s = 0.0;
  std::unique_ptr<PeekStream> stream;
  std::unique_ptr<SessionRuntime> runtime;

  // Grant slot the runtime's epoch_source consumes. Written and read only
  // by the worker the arbiter checked this tenant out to.
  std::optional<std::uint64_t> grant;
  std::uint64_t start_epoch = 0;
  bool started = false;
  /// Last bound advertised to the arbiter — avoids taking its lock on the
  /// (common) steps that cannot raise the bound.
  double advertised = -std::numeric_limits<double>::infinity();

  SessionLog log;
  SessionRuntime::Stats stats;
};

ShardedSession::ShardedSession(cloud::Cloud& cloud, std::vector<TenantSpec> tenants,
                               ShardedOptions options)
    : cloud_(cloud), tenants_(std::move(tenants)), opts_(options) {
  validate_tenants(tenants_);
}

ShardedSession::~ShardedSession() = default;

double ShardedSession::running_bound(const TenantCell& cell) const {
  const double arrival = cell.runtime->pending_arrival_time();
  // An idle fleet cannot re-evaluate before the next arrival is placed, so
  // the next draw is exactly that arrival's refresh — a much tighter bound
  // than the re-evaluation deadline when the fleet drains between bursts.
  if (cell.runtime->fleet_idle()) return arrival;
  return std::max(cell.runtime->now(),
                  std::min(arrival, cell.runtime->next_reeval_time()));
}

double ShardedSession::post_draw_bound(const TenantCell& cell,
                                       const SessionRuntime::PendingEvent& ev) const {
  if (ev.kind == RuntimeEventKind::MeasureRefresh) {
    // This draw serves the pending arrival; afterwards the earliest draw is
    // the *following* arrival's refresh (one look-ahead into the stream) or
    // a re-evaluation — possibly still at this instant, which the max
    // preserves as "may draw again now".
    const double arrival = cell.stream->peek_time();
    return std::max(ev.time_s,
                    std::min(arrival, cell.runtime->next_reeval_time()));
  }
  // ReevalTick at T: the deadline advances to T + period the moment the
  // re-evaluation runs, and the pending arrival's refresh is already queued
  // at a known instant >= T.
  return std::min(cell.runtime->pending_arrival_time(), ev.time_s + cell.period_s);
}

void ShardedSession::run_tenant(TenantCell& cell, std::optional<std::uint64_t> epoch) {
  if (!cell.started) {
    // First checkout: the initial sweep, with its oracle-ordered pre-drawn
    // epoch.
    cell.grant = cell.start_epoch;
    cell.runtime->start(*cell.stream);
    CHOREO_ASSERT_MSG(!cell.grant, "start() must draw exactly one epoch");
    cell.started = true;
    cell.advertised = running_bound(cell);
    arbiter_->set_bound(cell.index, cell.advertised);
  }
  cell.grant = epoch;  // granted while the tenant was parked, if it was
  while (true) {
    const std::optional<SessionRuntime::PendingEvent> next =
        cell.runtime->peek_event();
    if (!next) {
      cell.log = cell.runtime->finish();
      cell.stats = cell.runtime->stats();
      arbiter_->mark_done(cell.index);
      return;
    }
    const bool draws = next->kind == RuntimeEventKind::MeasureRefresh ||
                       next->kind == RuntimeEventKind::ReevalTick;
    if (draws && !cell.grant) {
      epoch = arbiter_->request(cell.index, next->time_s, post_draw_bound(cell, *next));
      // Parked: the grant comes with a later ticket, possibly to another
      // worker that owns the cell from now on.
      if (!epoch) return;
      cell.grant = epoch;
    }
    cell.runtime->step();
    CHOREO_ASSERT_MSG(!cell.grant, "a non-draw step consumed no grant");
    const double bound = running_bound(cell);
    if (bound > cell.advertised) {
      cell.advertised = bound;
      arbiter_->set_bound(cell.index, bound);
    }
  }
}

MultiTenantLog ShardedSession::run() {
  CHOREO_REQUIRE_MSG(!ran_, "run() may be called once");
  ran_ = true;
  CHOREO_OBS_SPAN(run_span, opts_.obs, "sharded.run", "sharded");

  const std::size_t n = tenants_.size();
  const unsigned threads = std::max(1u, opts_.threads);
  run_stats_ = Stats{};
  run_stats_.threads = threads;

  arbiter_ = std::make_unique<EpochArbiter>(
      n, [this] { return cloud_.next_epoch(); });

  cells_.clear();
  cells_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto cell = std::make_unique<TenantCell>();
    cell->index = i;
    cell->period_s = tenants_[i].config.choreo.reevaluate_period_s;
    cell->stream = std::make_unique<PeekStream>(*tenants_[i].stream);
    RuntimeOptions options;
    options.record_events = opts_.record_events;
    options.record_outcomes = opts_.record_outcomes;
    options.tenant = static_cast<std::uint32_t>(i);
    options.epoch_source = [cell_ptr = cell.get()] {
      CHOREO_REQUIRE_MSG(cell_ptr->grant.has_value(),
                         "epoch draw outside an arbiter grant");
      const std::uint64_t epoch = *cell_ptr->grant;
      cell_ptr->grant.reset();
      return epoch;
    };
    cell->runtime = std::make_unique<SessionRuntime>(
        cloud_, tenants_[i].vms, tenants_[i].config, std::move(options));
    cells_.push_back(std::move(cell));
  }
  // The oracle starts every runtime sequentially before its interleave
  // loop, drawing one epoch each in tenant order. Pre-drawing those values
  // here lets the initial sweeps themselves — the single most expensive
  // measurement phase of a session — run on all threads at once.
  for (std::size_t i = 0; i < n; ++i) cells_[i]->start_epoch = cloud_.next_epoch();

  const auto worker = [&](unsigned) {
    try {
      while (const std::optional<EpochArbiter::Ticket> ticket = arbiter_->acquire()) {
        run_tenant(*cells_[ticket->tenant], ticket->epoch);
      }
    } catch (...) {
      arbiter_->abort();  // wake sleeping workers so run_workers can join
      throw;
    }
  };
  util::run_workers(threads, worker);

  run_stats_.epoch_grants = static_cast<std::uint64_t>(n) + arbiter_->grants();
  run_stats_.idle_waits = arbiter_->idle_waits();

  {
    // epoch_grants is deterministic; waits are not, so their name carries
    // the `wall` exclusion token (see ShardedOptions::obs).
    obs::Counter grants = opts_.obs.counter("sharded.epoch_grants");
    obs::Counter idle_waits = opts_.obs.counter("sharded.wall_idle_waits");
    CHOREO_OBS_ADD(grants, opts_.obs, run_stats_.epoch_grants);
    CHOREO_OBS_ADD(idle_waits, opts_.obs, run_stats_.idle_waits);
    run_span.arg("tenants", static_cast<double>(n));
    run_span.arg("threads", static_cast<double>(threads));
  }

  std::vector<SessionLog> logs;
  logs.reserve(n);
  stats_.clear();
  for (auto& cell : cells_) {
    logs.push_back(std::move(cell->log));
    stats_.push_back(cell->stats);
  }
  cells_.clear();
  arbiter_.reset();
  return merge_tenant_logs(std::move(logs));
}

}  // namespace choreo::core
