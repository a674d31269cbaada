#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "place/cluster.h"
#include "place/rate_model.h"
#include "util/cow_array.h"

namespace choreo::place {

/// The incremental placement engine: the mutable residual state of one
/// cluster plus the indexes that make greedy candidate selection cheap.
///
/// The paper's greedy placer (Algorithm 1, §5) evaluates a residual rate for
/// every (transfer, machine-pair) candidate. Evaluated naively that rate is
/// O(n) per candidate under the hose model (the hose and its cross-traffic
/// share are max-scans over the row), so placing one application is
/// O(transfers · n^2 · n) — fine at the paper's ten VMs, hopeless at the
/// fleet sizes the measurement plane now handles. The engine makes every
/// rate query O(1) and lets the greedy skip most candidates unevaluated:
///
///   * **Static per-machine indexes**, a function of the view alone:
///     cached `hose_bps`, cached hose cross-traffic share, and each row's
///     largest off-diagonal upper bound on any residual rate. Placed
///     transfer counts only ever divide a rate down, so the measured
///     single-connection rate R(m,n) (and kIntraMachineRate on the diagonal)
///     bounds every model from above; the greedy skips any candidate whose
///     bound cannot beat the best exact rate found so far, and any whole row
///     whose largest bound cannot. Per-pair bounds are read from the view
///     itself (upper_bound_bps), so the view and these O(n) indexes form one
///     immutable `Static` block shared by every clone: a view change builds
///     a new block and never touches a published one. Every index is
///     row-local, so the new block re-sweeps only the rows whose rate or
///     cross-traffic chunk the new view does not share with the old one,
///     and a row that shares its cross-traffic chunk keeps its share of it.
///
///   * **Residual indexes as first-class mutable state**: CPU slack,
///     per-path placed-transfer counts and per-source out-of-hose counts,
///     updated in O(1) per tentative assignment and rolled back in O(1) via
///     the Txn undo log — placement algorithms no longer copy O(n^2)
///     working state per call, and sequential arrivals / §2.4 re-placement
///     reuse the committed residuals instead of replaying the cluster. The
///     per-path counts are stored one source row at a time, shared
///     copy-on-write between clones: a clone copies n row handles, and a
///     write copies a row only while another engine still holds it.
///
/// Rates produced here are bit-identical to place::transfer_rate_bps — both
/// go through the residual:: primitives, and the cached per-machine values
/// repeat the uncached helpers' arithmetic in their comparison order. The
/// engine-backed greedy is pinned bit-for-bit against the exhaustive-scan
/// oracle in test_engine_differential.
///
/// One engine is single-threaded by design (the measurement plane is the
/// concurrent one); a Txn mutates the engine in place and must be rolled
/// back (or destroyed) before observable state is read by anyone else.
/// Distinct engines that share rows may live on distinct threads: the
/// share count is atomic (util/cow_array.h), and a row is written in place
/// only by the one engine holding it.
class PlacementEngine {
 public:
  explicit PlacementEngine(ClusterView view);

  const ClusterView& view() const { return static_->view; }
  std::size_t machine_count() const { return static_->view.machine_count(); }

  /// Always-on lightweight instrumentation: plain integers (the engine is
  /// single-threaded by contract), incremented on the hot paths and scraped
  /// into the obs registry by callers (Choreo, PlacementService) as deltas.
  /// Cloned engines carry their parent's totals; scrape deltas, not values.
  struct Counters {
    std::uint64_t txn_ops = 0;            ///< tentative apply_task/apply_transfer
    std::uint64_t candidates_walked = 0;  ///< greedy candidates not skipped by bound
    std::uint64_t placements = 0;         ///< greedy place() searches run
  };
  Counters& counters() const { return counters_; }

  // ---- Residual reads (all O(1)) ----

  double free_cores(std::size_t m) const { return view().cores[m] - used_cores_[m]; }
  /// The CPU feasibility rule every placer shares: demand fits into m's
  /// remaining cores (with the common 1e-9 slack for exact fits).
  bool cpu_fits(std::size_t m, double demand) const {
    return free_cores(m) + 1e-9 >= demand;
  }
  /// Transfers currently placed on path m->n (inter-machine only),
  /// committed plus any tentative Txn applications.
  double transfers_on_path(std::size_t m, std::size_t n) const {
    return on_path_[m].data()[n];
  }
  /// Transfers currently leaving machine m for non-colocated machines.
  double transfers_out_of(std::size_t m) const { return out_of_[m]; }

  /// Residual rate a new transfer m->n would see right now: the O(1)
  /// equivalent of transfer_rate_bps(view(), m, n, model,
  /// transfers_on_path(m, n), transfers_out_of(m)).
  double rate_bps(std::size_t m, std::size_t n, RateModel model) const;

  // ---- Static indexes (replaced by update_view, O(1) to read) ----

  /// view().rate_bps.row(m) for every machine m, cached per view: greedy's
  /// scans hoist this array and read R(m, n) as rate_rows()[m][n], with no
  /// chunk lookup per candidate. Valid until update_view or destruction.
  const double* const* rate_rows() const { return static_->rate_rows.data(); }
  /// Cached ClusterView::hose_bps(m).
  double hose_bps(std::size_t m) const { return static_->rows[m].hose; }
  /// Cached hose_cross_out(view, m).
  double hose_cross_out_of(std::size_t m) const { return static_->rows[m].cross_out; }
  /// Static upper bound on rate_bps(m, n, model) in ANY residual state:
  /// kIntraMachineRate on the diagonal, R(m, n) to a co-located peer, and
  /// otherwise the measured single-connection rate joined with the pipe
  /// model's zero-load rate. (The latter is mathematically R but its two
  /// roundings can land up to two ulps above it, so the bound is taken over
  /// the literally computed value — the greedy's pruning must never skip a
  /// candidate whose exact rate ties the best.) Computed from the view on
  /// each call; under the hose model R(m, n) alone bounds every rate, so
  /// hose scans read the view's rate row instead.
  double upper_bound_bps(std::size_t m, std::size_t n) const {
    if (m == n) return kIntraMachineRate;
    const ClusterView& v = view();
    const double r = static_->rate_rows[m][n];
    if (v.colocated(m, n)) return r;
    const double c = v.cross_traffic.empty() ? 0.0 : v.cross_traffic.row(m)[n];
    return std::max(r, residual::pipe_rate_bps(r * (c + 1.0), c, 0.0));
  }
  /// Largest off-diagonal upper_bound_bps in row m, exactly; -infinity for a
  /// one-machine fleet. A both-endpoints-free greedy search skips row m when
  /// this cannot beat the best exact rate found.
  double peer_bound_max(std::size_t m) const { return static_->rows[m].peer_max; }

  // ---- Committed mutations ----

  /// Records an application's placement: consumes CPU and registers its
  /// inter-machine transfers. Must not be called inside an open Txn.
  void commit(const Application& app, const Placement& placement);
  /// Reverse of commit (same placement the caller committed).
  void release(const Application& app, const Placement& placement);

  /// Swaps in a new view of the same fleet on the same hosts (equal
  /// colocation groups, checked before anything is replaced), keeping the
  /// residual occupancy: the out-of-hose counts depend on the groups alone,
  /// so no replay of running applications is ever needed. Builds a new
  /// static block; clones keep the old one. A row whose rate and
  /// cross-traffic chunks are the ones the old block read (a view copied
  /// from this one shares every chunk it did not write) keeps its indexes,
  /// and every other row takes the constructor's validating sweep, so a
  /// refresh reads O(changed rows x n) rates and writes O(n) indexes. A
  /// swept row of more than 64 peers whose cross-traffic chunk alone is the
  /// old one keeps its hose cross-traffic share and joins only its rates.
  void update_view(ClusterView view);

  /// Copy sharing the view and static indexes, with zero occupancy: every
  /// per-path row is one shared zero row. O(n).
  PlacementEngine clone_unoccupied() const;

  /// Full copy: the same view, static indexes, AND residual occupancy.
  /// What the serving plane's per-worker scratch arenas are refreshed from.
  /// The immutable static block is shared, and so is every per-path row
  /// until one side writes it, so this costs O(n): n row handles plus the
  /// two per-machine vectors. Must not be called inside an open Txn.
  PlacementEngine clone() const;

  // ---- Tentative mutations ----

  /// RAII transaction: O(1) tentative apply of task CPU and transfer
  /// registrations, rolled back LIFO on destruction (or explicit
  /// rollback()). Placement algorithms run their whole search inside one
  /// Txn, so a const ClusterState& is observably unchanged when place()
  /// returns — including on the exception path.
  class Txn {
   public:
    explicit Txn(PlacementEngine& engine)
        : engine_(&engine), mark_(engine.txn_log_.size()) {}
    Txn(const Txn&) = delete;
    Txn& operator=(const Txn&) = delete;
    ~Txn() { rollback(); }

    /// Tentatively consumes `cores` on machine m.
    void apply_task(std::size_t m, double cores) {
      engine_->used_cores_[m] += cores;
      engine_->txn_log_.push_back(Op{m, 0, cores, Op::kTask});
      ++engine_->counters_.txn_ops;
    }
    /// Tentatively registers one transfer m->n (no-op when m == n, exactly
    /// like the committed bookkeeping).
    void apply_transfer(std::size_t m, std::size_t n) {
      if (m == n) return;
      engine_->register_transfer(m, n, +1);
      engine_->txn_log_.push_back(Op{m, n, 0.0, Op::kTransfer});
      ++engine_->counters_.txn_ops;
    }
    /// Undoes everything applied since construction, LIFO.
    void rollback() {
      auto& log = engine_->txn_log_;
      while (log.size() > mark_) {
        const Op& op = log.back();
        if (op.kind == Op::kTask) {
          engine_->used_cores_[op.m] -= op.cores;
        } else {
          engine_->register_transfer(op.m, op.n, -1);
        }
        log.pop_back();
      }
    }

   private:
    PlacementEngine* engine_;
    std::size_t mark_;
  };

 private:
  friend class Txn;

  struct Op {
    std::size_t m = 0;
    std::size_t n = 0;
    double cores = 0.0;
    enum Kind : std::uint8_t { kTask, kTransfer } kind = kTask;
  };

  void register_transfer(std::size_t m, std::size_t n, std::int32_t delta) {
    on_path_[m].mutable_data()[n] += delta;
    if (!view().colocated(m, n)) out_of_[m] += delta;
  }
  void apply(const Application& app, const Placement& placement, int sign);

  /// The view and every index that is a function of it alone, built in one
  /// validating sweep over the view's rows and never mutated: clones share
  /// it, and a view change replaces it. Apart from the view it holds O(n):
  /// per-pair bounds are computed from the view (upper_bound_bps).
  struct Static {
    /// Machine m's indexes: a function of the view's rate and cross-traffic
    /// rows m and the colocation groups alone.
    struct Row {
      double hose;
      double cross_out;
      double peer_max;  // max of upper_bound_bps(m, n) over n != m
    };
    ClusterView view;
    std::vector<const double*> rate_rows;  // view.rate_bps.row(m)
    std::vector<Row> rows;

    /// Throws where ClusterView::validate() would. `previous`, if given, is
    /// the block of a view of the same fleet on the same hosts: a row whose
    /// rate and cross-traffic rows are the very arrays `previous` read
    /// (pointer identity, never a value comparison) takes its Row from
    /// there, and a row of more than 64 peers whose cross-traffic row alone
    /// is one `previous` read takes its cross_out from there and joins only
    /// its rates. That is sound because `previous` keeps its chunks alive,
    /// so no new chunk can reuse their addresses, and a chunk that two views
    /// share is never written in place.
    Static(ClusterView view, const Static* previous);
  };

  /// An unoccupied engine over an already built static block, its rows all
  /// sharing one new zero row.
  explicit PlacementEngine(std::shared_ptr<const Static> statics);

  std::shared_ptr<const Static> static_;

  // Residual indexes (committed plus open-Txn tentative state). on_path_
  // holds one source row of per-path transfer counts per machine, indexed
  // by destination and shared copy-on-write between clones, read without
  // per-access bounds checks — the rate query on the serving hot path
  // touches it once per candidate. Counts are 32-bit integers: a row copy
  // moves half the bytes of doubles, and the rate formulas' int-to-double
  // conversion is exact.
  std::vector<double> used_cores_;
  std::vector<CowArray<std::int32_t>> on_path_;  // one row per source machine
  std::vector<std::int32_t> out_of_;

  std::vector<Op> txn_log_;

  mutable Counters counters_;
};

}  // namespace choreo::place
