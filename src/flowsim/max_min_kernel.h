#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "flowsim/max_min.h"

namespace choreo::flowsim {

/// Incremental max-min fair-share kernel.
///
/// Semantically this computes exactly what `max_min_rates` computes over the
/// currently *active* flows — that function is kept verbatim as the
/// differential oracle, and `test_flowsim_differential` pins this kernel
/// bit-identical to it (exact double equality) over a randomized corpus. The
/// difference is purely mechanical:
///
///   * the flow -> resource incidence lives in one flat CSR array, appended
///     once per flow (a flow's resource set never changes after
///     registration) instead of being rebuilt as nested vectors on every
///     recompute;
///   * each recompute builds a reverse resource -> flow index (counting sort
///     into reused scratch), so freezing the flows of a bottleneck visits
///     only the flows crossing it, not every flow against every resource;
///   * recomputation is scoped to the dirty region: resources carry a
///     connected-component label over the sharing graph of active flows, and
///     an activate/deactivate/capacity event only re-waterfills the
///     component(s) it touched — flows in untouched components keep their
///     rates, which per-component independence makes bit-identical to a full
///     recompute;
///   * every scratch structure is a reused member buffer, grown to its bound
///     as flows and resources are registered, so recomputes perform zero
///     heap allocations whatever region an event happens to dirty.
///
/// Tie-breaking matches the oracle exactly: the bottleneck is the loaded
/// resource with the smallest share, lowest id first; its flows freeze in
/// ascending flow id; a frozen flow's capacity subtraction walks its CSR row
/// in registration order (extra resources before route links, as `Sim`
/// registers them) with the same max(0, .) clamp.
///
/// Component labels are maintained as an over-approximation: activations
/// union components eagerly, deactivations never split them. Each scoped
/// recompute relabels the region it actually visited via a union-find over
/// the region's active flows, so stale merges resolve one recompute later —
/// the region is only ever a superset of the true dirty components, never a
/// subset, which is what correctness needs.
class MaxMinKernel {
 public:
  /// `unconstrained_rate` is assigned to active flows whose resource row is
  /// empty (same role as the oracle's parameter).
  explicit MaxMinKernel(double unconstrained_rate);

  // ---- structure ----------------------------------------------------------

  ResourceId add_resource(double capacity_bps);
  /// Changes a capacity and marks the resource's component dirty.
  void set_capacity(ResourceId id, double capacity_bps);
  double capacity(ResourceId id) const { return capacity_[id]; }
  std::size_t resource_count() const { return capacity_.size(); }

  /// Registers a flow's (immutable) resource row; the flow starts inactive.
  /// Rows may legally be empty, contain duplicates, or reference any
  /// already-registered resource. Returns the flow's id (dense, in
  /// registration order).
  std::size_t add_flow(const ResourceId* row, std::size_t len);
  std::size_t flow_count() const { return row_begin_.size(); }

  // ---- activity -----------------------------------------------------------

  /// Marks the flow active (it competes for its resources) and dirties its
  /// component(s). Empty-row flows get `unconstrained_rate` immediately and
  /// dirty nothing. No-op if already active.
  void activate(std::size_t flow);
  /// Marks the flow inactive and dirties its component. No-op if inactive.
  void deactivate(std::size_t flow);
  bool is_active(std::size_t flow) const { return active_flag_[flow] != 0; }

  /// Currently active flows, ascending by id. `Sim` iterates this instead of
  /// every flow ever created, so long sessions don't degrade linearly.
  const std::vector<std::size_t>& active_flows() const { return active_; }

  /// Releases the flow's CSR row (the flow must be inactive and stay so).
  /// Row storage is compacted once enough of it is dead; flow ids and live
  /// rows are unaffected.
  void retire(std::size_t flow);

  // ---- rates --------------------------------------------------------------

  bool dirty() const { return dirty_; }

  /// Re-waterfills the dirty region and returns the flows whose rate was
  /// recomputed (ascending). Flows outside the returned region keep their
  /// previous rate, bit-identical to what a full recompute would produce.
  /// Returns an empty region when nothing is dirty.
  const std::vector<std::size_t>& recompute();

  /// Last rate computed for the flow (before any per-flow cap the caller
  /// applies). Meaningful only while the flow is active.
  double rate(std::size_t flow) const { return rate_[flow]; }

  // ---- introspection ------------------------------------------------------

  struct Stats {
    std::uint64_t recomputes = 0;        ///< recompute() calls that did work
    std::uint64_t region_flows = 0;      ///< cumulative flows re-waterfilled
    std::uint64_t region_resources = 0;  ///< cumulative resources visited
    std::uint64_t waterfill_rounds = 0;  ///< cumulative bottleneck freezes
    std::uint64_t row_compactions = 0;   ///< CSR storage compactions
  };
  const Stats& stats() const { return stats_; }
  /// Region size of the most recent non-empty recompute.
  std::size_t last_region_flows() const { return region_flows_.size(); }

 private:
  /// row_begin_ sentinel for a retired flow (its row storage was released).
  static constexpr std::size_t kRetiredRow = static_cast<std::size_t>(-1);

  void mark_resource_dirty(ResourceId r);
  std::size_t find_root(std::size_t r);
  void compact_rows();

  double unconstrained_rate_;

  // Resources.
  std::vector<double> capacity_;
  std::vector<std::size_t> label_;       // resource -> component label (a resource id)
  std::vector<char> label_dirty_;        // indexed by label
  std::vector<std::size_t> dirty_labels_;  // for O(dirty) clearing
  bool dirty_ = false;

  // Flow -> resource incidence, CSR.
  std::vector<std::size_t> row_begin_;
  std::vector<std::uint32_t> row_len_;
  std::vector<ResourceId> row_data_;
  std::size_t dead_row_slots_ = 0;

  // Activity.
  std::vector<std::size_t> active_;  // sorted ascending
  std::vector<char> active_flag_;    // flow -> currently active?

  std::vector<double> rate_;

  // Scratch reused across recomputes (allocation-free once warm).
  std::vector<std::size_t> region_flows_;
  std::vector<ResourceId> region_res_;
  std::vector<ResourceId> live_res_;
  std::vector<std::size_t> uf_parent_;     // per resource, region-local validity
  std::vector<std::uint64_t> res_stamp_;   // per resource, region membership epoch
  std::vector<std::uint64_t> frozen_stamp_;  // per flow, freeze epoch
  std::vector<double> remaining_;          // per resource
  std::vector<std::size_t> load_;          // per resource, unfrozen flows
  std::vector<std::size_t> rev_begin_;     // per resource, into rev_flows_
  std::vector<std::size_t> rev_fill_;      // per resource, fill cursor
  std::vector<std::size_t> rev_flows_;     // reverse index payload
  std::uint64_t epoch_ = 0;

  Stats stats_;
};

}  // namespace choreo::flowsim
