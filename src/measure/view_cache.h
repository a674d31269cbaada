#pragma once

#include <cstdint>
#include <vector>

#include "measure/probe_scheduler.h"
#include "util/matrix.h"

namespace choreo::measure {

/// One cached pair estimate with its provenance: when it was measured and
/// what the previous estimate was (the §2.1 "previous hour" predictability
/// signal, applied at the pair level).
struct PairEstimate {
  double rate_bps = 0.0;
  double prev_rate_bps = 0.0;    ///< estimate before the latest refresh
  std::uint64_t epoch = 0;       ///< epoch of the latest refresh
  std::uint64_t measurements = 0;

  bool valid() const { return measurements > 0; }
};

/// Staleness rules for incremental refresh: which cached pairs an epoch's
/// measurement cycle must re-probe.
struct RefreshPolicy {
  /// A pair is stale once its estimate is older than this many epochs.
  std::uint64_t max_age_epochs = 8;
  /// A pair is volatile when its last two estimates disagree by more than
  /// this relative factor — the pair-level analogue of a low §2.1
  /// predictability score. Volatile pairs are re-probed every cycle; an
  /// infinite threshold switches the rule off. Only ViewCache::plan_refresh
  /// reads it: an enabled forecast::PredictivePolicy ranks pairs by forecast
  /// error instead and ignores this rule.
  double volatility_threshold = 0.5;
};

/// What an incremental refresh must probe, and why each pair qualified.
struct RefreshPlan {
  std::vector<ProbePair> pairs;
  std::size_t never_measured = 0;  ///< no estimate yet, or invalidated
  std::size_t stale = 0;
  std::size_t volatile_pairs = 0;
};

/// Epoch-stamped cache of the pairwise rate estimates behind a
/// place::ClusterView. The measurement plane stores every train estimate
/// here; refresh planning walks the cache instead of re-probing the whole
/// n(n-1) matrix, which is what turns §2.4 re-evaluation from a full
/// re-measurement into an incremental one. Sized once, for one tenant's
/// fleet: every pair starts never-measured.
class ViewCache {
 public:
  explicit ViewCache(std::size_t vm_count)
      : vm_count_(vm_count), entries_(vm_count * vm_count) {}

  std::size_t vm_count() const { return vm_count_; }

  const PairEstimate& at(std::size_t src, std::size_t dst) const;

  /// Records one probe result for (src, dst) at `epoch`.
  void store(std::size_t src, std::size_t dst, double rate_bps, std::uint64_t epoch);

  /// Forgets one pair (it becomes never-measured).
  void invalidate(std::size_t src, std::size_t dst);

  /// True when the pair's last two estimates disagree by more than
  /// `threshold` relative to the earlier one.
  bool is_volatile(std::size_t src, std::size_t dst, double threshold) const;

  /// Plans an incremental refresh at `current_epoch`: every never-measured
  /// pair, every pair older than policy.max_age_epochs, and every volatile
  /// pair. On a fresh cache this degenerates to the full
  /// matrix, so first measurement and refresh share one code path.
  RefreshPlan plan_refresh(std::uint64_t current_epoch, const RefreshPolicy& policy) const;

  /// Current rate matrix (zero diagonal; never-measured pairs are zero).
  DoubleMatrix rates() const;

  /// Epoch stamp per pair (zero diagonal / never-measured) — exported into
  /// place::ClusterView::pair_epoch so placers can see what they trust.
  Matrix<std::uint64_t> epochs() const;

  /// Number of pairs with at least one measurement.
  std::size_t measured_pairs() const;

 private:
  std::size_t index(std::size_t src, std::size_t dst) const {
    return src * vm_count_ + dst;
  }

  std::size_t vm_count_;
  std::vector<PairEstimate> entries_;  ///< row-major vm_count x vm_count
};

}  // namespace choreo::measure
