#include "measure/view_cache.h"

#include <algorithm>
#include <cmath>

#include "util/require.h"

namespace choreo::measure {

const PairEstimate& ViewCache::at(std::size_t src, std::size_t dst) const {
  CHOREO_REQUIRE(src < vm_count_ && dst < vm_count_);
  return entries_[index(src, dst)];
}

void ViewCache::store(std::size_t src, std::size_t dst, double rate_bps,
                      std::uint64_t epoch) {
  CHOREO_REQUIRE(src < vm_count_ && dst < vm_count_ && src != dst);
  CHOREO_REQUIRE(rate_bps >= 0.0);
  PairEstimate& e = entries_[index(src, dst)];
  e.prev_rate_bps = e.valid() ? e.rate_bps : rate_bps;
  e.rate_bps = rate_bps;
  e.epoch = epoch;
  ++e.measurements;
}

void ViewCache::invalidate(std::size_t src, std::size_t dst) {
  CHOREO_REQUIRE(src < vm_count_ && dst < vm_count_);
  entries_[index(src, dst)] = PairEstimate{};
}

bool ViewCache::is_volatile(std::size_t src, std::size_t dst, double threshold) const {
  const PairEstimate& e = at(src, dst);
  // One measurement says nothing about stability yet.
  if (e.measurements < 2) return false;
  const double base = std::max(e.prev_rate_bps, 1.0);
  return std::abs(e.rate_bps - e.prev_rate_bps) / base > threshold;
}

RefreshPlan ViewCache::plan_refresh(std::uint64_t current_epoch,
                                    const RefreshPolicy& policy) const {
  CHOREO_REQUIRE(vm_count_ >= 2);
  RefreshPlan plan;
  for (std::size_t i = 0; i < vm_count_; ++i) {
    for (std::size_t j = 0; j < vm_count_; ++j) {
      if (i == j) continue;
      const PairEstimate& e = entries_[index(i, j)];
      if (!e.valid()) {
        ++plan.never_measured;
      } else if (e.epoch + policy.max_age_epochs < current_epoch) {
        ++plan.stale;
      } else if (is_volatile(i, j, policy.volatility_threshold)) {
        ++plan.volatile_pairs;
      } else {
        continue;
      }
      plan.pairs.push_back({i, j});
    }
  }
  return plan;
}

DoubleMatrix ViewCache::rates() const {
  DoubleMatrix out(vm_count_, vm_count_, 0.0);
  for (std::size_t i = 0; i < vm_count_; ++i) {
    for (std::size_t j = 0; j < vm_count_; ++j) {
      if (i != j) out(i, j) = entries_[index(i, j)].rate_bps;
    }
  }
  return out;
}

Matrix<std::uint64_t> ViewCache::epochs() const {
  Matrix<std::uint64_t> out(vm_count_, vm_count_, 0);
  for (std::size_t i = 0; i < vm_count_; ++i) {
    for (std::size_t j = 0; j < vm_count_; ++j) {
      if (i != j) out(i, j) = entries_[index(i, j)].epoch;
    }
  }
  return out;
}

std::size_t ViewCache::measured_pairs() const {
  std::size_t n = 0;
  for (const PairEstimate& e : entries_) {
    if (e.valid()) ++n;
  }
  return n;
}

}  // namespace choreo::measure
