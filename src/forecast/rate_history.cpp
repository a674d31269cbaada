#include "forecast/rate_history.h"

#include "util/require.h"

namespace choreo::forecast {

const RateSample& PairSeries::at(std::size_t k) const {
  CHOREO_REQUIRE(k < count_);
  return ring_[(head_ + k) % capacity_];
}

RateHistory::RateHistory(std::size_t vm_count, std::size_t capacity)
    : vm_count_(vm_count),
      capacity_(capacity),
      samples_(vm_count * vm_count * capacity),
      head_(vm_count * vm_count, 0),
      count_(vm_count * vm_count, 0),
      recorded_(vm_count * vm_count, 0) {
  CHOREO_REQUIRE(capacity >= 2);
}

void RateHistory::record(std::size_t src, std::size_t dst, double rate_bps,
                         std::uint64_t epoch) {
  CHOREO_REQUIRE(src < vm_count_ && dst < vm_count_ && src != dst);
  CHOREO_REQUIRE(rate_bps >= 0.0);
  const std::size_t pair = pair_index(src, dst);
  RateSample* ring = &samples_[pair * capacity_];
  if (count_[pair] < capacity_) {
    ring[(head_[pair] + count_[pair]) % capacity_] = {epoch, rate_bps};
    ++count_[pair];
  } else {
    // Full: overwrite the oldest slot and advance the head.
    ring[head_[pair]] = {epoch, rate_bps};
    head_[pair] = (head_[pair] + 1) % capacity_;
  }
  ++recorded_[pair];
}

PairSeries RateHistory::series(std::size_t src, std::size_t dst) const {
  CHOREO_REQUIRE(src < vm_count_ && dst < vm_count_);
  const std::size_t pair = pair_index(src, dst);
  return PairSeries(&samples_[pair * capacity_], capacity_, head_[pair], count_[pair]);
}

std::size_t RateHistory::sample_count(std::size_t src, std::size_t dst) const {
  CHOREO_REQUIRE(src < vm_count_ && dst < vm_count_);
  return count_[pair_index(src, dst)];
}

std::uint64_t RateHistory::observations(std::size_t src, std::size_t dst) const {
  CHOREO_REQUIRE(src < vm_count_ && dst < vm_count_);
  return recorded_[pair_index(src, dst)];
}

}  // namespace choreo::forecast
