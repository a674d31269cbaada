#include "core/sharded.h"

#include <algorithm>
#include <atomic>
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
}

void EpochArbiter::bump_locked() {
  ++version_;
  cv_.notify_all();
}

void EpochArbiter::try_grants_locked() {
  bool changed = false;
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
    // waiting tenant's key is exact; a running tenant's advertised bound is
    // conservative, so a grant blocked by it is only delayed, never lost.
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
    slot.epoch = draw_();
    slot.state = State::Granted;
    // From the grant on, the tenant counts as running again with its
    // declared post-draw bound — which is what lets the *next* pending
    // request be granted in the same pass (the cascade that pipelines
    // measurement work across tenants).
    slot.bound = std::max(slot.bound, slot.post_bound);
    ++grants_;
    changed = true;
  }
  if (changed) bump_locked();
}

void EpochArbiter::set_bound(std::size_t tenant, double bound) {
  const std::lock_guard<std::mutex> lock(mu_);
  Slot& slot = slots_[tenant];
  CHOREO_ASSERT_MSG(slot.state == State::Running, "set_bound on a parked tenant");
  // Re-advertising a weaker bound is legal (the caller recomputed from a
  // more conservative formula); keeping the max never invalidates anything
  // because every advertised bound was a true lower bound when set.
  if (bound <= slot.bound) return;
  slot.bound = bound;
  try_grants_locked();
}

std::optional<std::uint64_t> EpochArbiter::request(std::size_t tenant, double time_s,
                                                   double post_bound) {
  const std::lock_guard<std::mutex> lock(mu_);
  Slot& slot = slots_[tenant];
  CHOREO_ASSERT_MSG(slot.state == State::Running, "double-request by a tenant");
  CHOREO_ASSERT_MSG(time_s >= slot.bound,
                    "a tenant drew earlier than its advertised bound");
  slot.state = State::Waiting;
  slot.request_time = time_s;
  slot.post_bound = post_bound;
  try_grants_locked();
  if (slot.state == State::Granted) {
    slot.state = State::Running;
    return slot.epoch;
  }
  return std::nullopt;
}

std::optional<std::uint64_t> EpochArbiter::poll(std::size_t tenant) {
  const std::lock_guard<std::mutex> lock(mu_);
  Slot& slot = slots_[tenant];
  if (slot.state != State::Granted) return std::nullopt;
  slot.state = State::Running;
  return slot.epoch;
}

void EpochArbiter::mark_done(std::size_t tenant) {
  const std::lock_guard<std::mutex> lock(mu_);
  Slot& slot = slots_[tenant];
  CHOREO_ASSERT_MSG(slot.state == State::Running, "mark_done on a parked tenant");
  slot.state = State::Done;
  ++done_count_;
  try_grants_locked();
  bump_locked();
}

void EpochArbiter::abort() {
  const std::lock_guard<std::mutex> lock(mu_);
  aborted_ = true;
  bump_locked();
}

bool EpochArbiter::aborted() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return aborted_;
}

std::uint64_t EpochArbiter::wait_change(std::uint64_t seen) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] {
    return version_ != seen || done_count_ == slots_.size() || aborted_;
  });
  return version_;
}

std::uint64_t EpochArbiter::version() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return version_;
}

bool EpochArbiter::all_done() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return done_count_ == slots_.size();
}

std::uint64_t EpochArbiter::grants() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return grants_;
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
  enum State : std::uint8_t { kRunnable, kAwaitGrant, kDone };

  std::size_t index = 0;
  double period_s = 0.0;
  std::unique_ptr<PeekStream> stream;
  std::unique_ptr<SessionRuntime> runtime;

  // Grant slot the runtime's epoch_source consumes. Written and read only
  // by the thread holding this cell's shard claim.
  std::uint64_t granted = 0;
  std::uint64_t start_epoch = 0;
  bool has_grant = false;
  bool started = false;
  State state = kRunnable;
  /// Last bound advertised to the arbiter — avoids taking its lock on the
  /// (common) steps that cannot raise the bound.
  double advertised = -std::numeric_limits<double>::infinity();

  SessionLog log;
  SessionRuntime::Stats stats;
};

struct ShardedSession::Shard {
  std::vector<std::size_t> tenants;  ///< global tenant indices (round-robin)
  std::atomic<bool> claimed{false};
  /// Set (under the claim) once every tenant finished; scanned lock-free.
  std::atomic<bool> done{false};
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

void ShardedSession::run_tenant(TenantCell& cell) {
  if (!cell.started) {
    // Phase 0: the initial sweep, with its oracle-ordered pre-drawn epoch.
    cell.has_grant = true;
    cell.granted = cell.start_epoch;
    cell.runtime->start(*cell.stream);
    CHOREO_ASSERT_MSG(!cell.has_grant, "start() must draw exactly one epoch");
    cell.started = true;
    cell.advertised = running_bound(cell);
    arbiter_->set_bound(cell.index, cell.advertised);
  }
  while (true) {
    if (cell.state == TenantCell::kAwaitGrant) {
      const std::optional<std::uint64_t> epoch = arbiter_->poll(cell.index);
      if (!epoch) return;  // still parked; the shard moves on
      cell.granted = *epoch;
      cell.has_grant = true;
      cell.state = TenantCell::kRunnable;
    }
    const std::optional<SessionRuntime::PendingEvent> next =
        cell.runtime->peek_event();
    if (!next) {
      cell.log = cell.runtime->finish();
      cell.stats = cell.runtime->stats();
      cell.state = TenantCell::kDone;
      arbiter_->mark_done(cell.index);
      return;
    }
    const bool draws = next->kind == RuntimeEventKind::MeasureRefresh ||
                       next->kind == RuntimeEventKind::ReevalTick;
    if (draws && !cell.has_grant) {
      const std::optional<std::uint64_t> epoch =
          arbiter_->request(cell.index, next->time_s, post_draw_bound(cell, *next));
      if (!epoch) {
        cell.state = TenantCell::kAwaitGrant;
        return;
      }
      cell.granted = *epoch;
      cell.has_grant = true;
    }
    cell.runtime->step();
    CHOREO_ASSERT_MSG(!cell.has_grant, "a non-draw step consumed no grant");
    const double bound = running_bound(cell);
    if (bound > cell.advertised) {
      cell.advertised = bound;
      arbiter_->set_bound(cell.index, bound);
    }
  }
}

bool ShardedSession::run_shard_pass(Shard& shard) {
  bool progressed = false;
  bool all_done = true;
  for (std::size_t index : shard.tenants) {
    TenantCell& cell = *cells_[index];
    if (cell.state == TenantCell::kDone) continue;
    const bool was_started = cell.started;
    const TenantCell::State before = cell.state;
    const std::uint64_t events_before = cell.started ? cell.runtime->stats().events_processed : 0;
    run_tenant(cell);
    if (cell.state != TenantCell::kDone) all_done = false;
    progressed |= !was_started || cell.state == TenantCell::kDone ||
                  before == TenantCell::kRunnable ||
                  (cell.started &&
                   cell.runtime->stats().events_processed != events_before);
  }
  if (all_done) shard.done.store(true, std::memory_order_release);
  return progressed;
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
      CHOREO_REQUIRE_MSG(cell_ptr->has_grant,
                         "epoch draw outside an arbiter grant");
      cell_ptr->has_grant = false;
      return cell_ptr->granted;
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

  shards_.clear();
  shards_.reserve(threads);  // one tenant partition per worker
  for (unsigned s = 0; s < threads; ++s) shards_.push_back(std::make_unique<Shard>());
  for (std::size_t i = 0; i < n; ++i) shards_[i % threads]->tenants.push_back(i);
  for (auto& shard : shards_) {
    if (shard->tenants.empty()) shard->done.store(true, std::memory_order_release);
  }

  std::atomic<std::uint64_t> passes{0};
  std::atomic<std::uint64_t> waits{0};
  const auto worker = [&](unsigned worker_id) {
    try {
      while (!arbiter_->all_done()) {
        if (arbiter_->aborted()) return;
        // Read the version before scanning: a grant that fires mid-scan
        // (from another worker, or from this one's own requests) makes the
        // post-scan version differ, so the rescan below cannot be lost.
        const std::uint64_t seen = arbiter_->version();
        bool progressed = false;
        for (std::size_t k = 0; k < shards_.size(); ++k) {
          Shard& shard = *shards_[(k + worker_id) % shards_.size()];
          if (shard.done.load(std::memory_order_acquire)) continue;
          bool expected = false;
          if (!shard.claimed.compare_exchange_strong(expected, true)) continue;
          const bool did = run_shard_pass(shard);
          shard.claimed.store(false);
          if (did) {
            progressed = true;
            passes.fetch_add(1, std::memory_order_relaxed);
          }
        }
        if (progressed || arbiter_->all_done()) continue;
        if (arbiter_->version() != seen) continue;  // grant fired mid-scan
        // Nothing runnable anywhere: on one thread that can only mean the
        // grant protocol wedged (a bug), so fail loudly instead of hanging;
        // with workers, park until another thread's grant frees a tenant.
        CHOREO_REQUIRE_MSG(threads > 1,
                           "sharded session stalled: no runnable tenant in a "
                           "single-threaded schedule");
        waits.fetch_add(1, std::memory_order_relaxed);
        arbiter_->wait_change(seen);
      }
    } catch (...) {
      arbiter_->abort();  // wake parked workers so run_workers can join
      throw;
    }
  };
  util::run_workers(threads, worker);

  run_stats_.epoch_grants = static_cast<std::uint64_t>(n) + arbiter_->grants();
  run_stats_.shard_passes = passes.load();
  run_stats_.idle_waits = waits.load();

  {
    // epoch_grants is deterministic; occupancy and waits are not, so their
    // names carry the `wall` exclusion token (see ShardedOptions::obs).
    obs::Counter grants = opts_.obs.counter("sharded.epoch_grants");
    obs::Counter shard_passes = opts_.obs.counter("sharded.wall_shard_passes");
    obs::Counter idle_waits = opts_.obs.counter("sharded.wall_idle_waits");
    CHOREO_OBS_ADD(grants, opts_.obs, run_stats_.epoch_grants);
    CHOREO_OBS_ADD(shard_passes, opts_.obs, run_stats_.shard_passes);
    CHOREO_OBS_ADD(idle_waits, opts_.obs, run_stats_.idle_waits);
    run_span.arg("tenants", static_cast<double>(n));
    run_span.arg("threads", static_cast<double>(threads));
  }

  std::vector<SessionLog> logs;
  logs.reserve(n);
  stats_.clear();
  for (auto& cell : cells_) {
    CHOREO_ASSERT(cell->state == TenantCell::kDone);
    logs.push_back(std::move(cell->log));
    stats_.push_back(cell->stats);
  }
  cells_.clear();
  shards_.clear();
  arbiter_.reset();
  return merge_tenant_logs(std::move(logs));
}

}  // namespace choreo::core
