#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "place/cluster.h"
#include "place/rate_model.h"

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
///     a new block and never touches a published one.
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
/// share count is atomic, and a row is written in place only by the one
/// engine holding it.
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
    return on_path_[m].counts()[n];
  }
  /// Transfers currently leaving machine m for non-colocated machines.
  double transfers_out_of(std::size_t m) const { return out_of_[m]; }

  /// Residual rate a new transfer m->n would see right now: the O(1)
  /// equivalent of transfer_rate_bps(view(), m, n, model,
  /// transfers_on_path(m, n), transfers_out_of(m)).
  double rate_bps(std::size_t m, std::size_t n, RateModel model) const;

  // ---- Static indexes (replaced by update_view, O(1) to read) ----

  /// Cached ClusterView::hose_bps(m).
  double hose_bps(std::size_t m) const { return static_->hose[m]; }
  /// Cached hose_cross_out(view, m).
  double hose_cross_out_of(std::size_t m) const { return static_->cross_out[m]; }
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
    const std::size_t at = m * machine_count() + n;
    const double r = v.rate_bps.data()[at];
    if (v.colocated(m, n)) return r;
    const double c = v.cross_traffic.empty() ? 0.0 : v.cross_traffic.data()[at];
    return std::max(r, residual::pipe_rate_bps(r * (c + 1.0), c, 0.0));
  }
  /// Largest off-diagonal upper_bound_bps in row m, exactly; -infinity for a
  /// one-machine fleet. A both-endpoints-free greedy search skips row m when
  /// this cannot beat the best exact rate found.
  double peer_bound_max(std::size_t m) const { return static_->peer_max[m]; }

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
  /// static block in the constructor's one validating sweep, which reads the
  /// view's O(n^2) rates and writes O(n) indexes; clones keep the old one.
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
    on_path_[m].mutable_counts()[n] += delta;
    if (!view().colocated(m, n)) out_of_[m] += delta;
  }
  void apply(const Application& app, const Placement& placement, int sign);

  /// One source row of per-path transfer counts (machine_count entries,
  /// indexed by destination), shared copy-on-write: copying a handle shares
  /// the row, and mutable_counts() first copies it unless this handle is
  /// the only one. The share count is atomic because reader threads copy a
  /// published engine's handles while the writer asks whether its own are
  /// unshared; an acquire load of a count of 1 sees every access the
  /// released handles made, so the in-place write cannot race them.
  class PathRow {
   public:
    /// A new row of `size` zero counts.
    explicit PathRow(std::size_t size);
    PathRow(const PathRow& other) noexcept;
    PathRow& operator=(const PathRow&) = delete;
    ~PathRow();

    const std::int32_t* counts() const { return block_->counts(); }
    /// The row for writing, copied first while another handle shares it.
    std::int32_t* mutable_counts() {
      if (block_->refs.load(std::memory_order_acquire) != 1) unshare();
      return block_->counts();
    }

   private:
    /// Header of one allocation: the share count and size, then the counts.
    struct Block {
      std::atomic<std::uint32_t> refs{1};
      std::uint32_t size = 0;
      std::int32_t* counts() { return reinterpret_cast<std::int32_t*>(this + 1); }
    };
    static Block* allocate(std::size_t size);
    static void drop(Block* block) noexcept;
    void unshare();

    Block* block_;
  };

  /// The view and every index that is a function of it alone, built in one
  /// validating sweep over the view's rows and never mutated: clones share
  /// it, and a view change replaces it. Apart from the view it holds O(n):
  /// per-pair bounds are computed from the view (upper_bound_bps).
  struct Static {
    ClusterView view;
    std::vector<double> hose;
    std::vector<double> cross_out;
    std::vector<double> peer_max;  // per row: max of upper_bound_bps(m, n) over n != m

    /// Throws where ClusterView::validate() would.
    explicit Static(ClusterView view);
  };

  /// An unoccupied engine over an already built static block, its rows all
  /// sharing one new zero row.
  explicit PlacementEngine(std::shared_ptr<const Static> statics);

  std::shared_ptr<const Static> static_;

  // Residual indexes (committed plus open-Txn tentative state). on_path_
  // holds one copy-on-write row per source, indexed without per-access
  // bounds checks — the rate query on the serving hot path touches it once
  // per candidate. Counts are 32-bit integers: a row copy moves half the
  // bytes of doubles, and the rate formulas' int-to-double conversion is
  // exact.
  std::vector<double> used_cores_;
  std::vector<PathRow> on_path_;  // one row per source machine
  std::vector<std::int32_t> out_of_;

  std::vector<Op> txn_log_;

  mutable Counters counters_;
};

}  // namespace choreo::place
