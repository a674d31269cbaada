#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace choreo::forecast {

/// One epoch-stamped rate observation for an ordered VM pair.
struct RateSample {
  std::uint64_t epoch = 0;
  double rate_bps = 0.0;
};

/// Read-only window over one pair's retained samples, oldest first. The
/// window is a view into the RateHistory's ring storage; it is invalidated
/// by the next record() on the history.
class PairSeries {
 public:
  PairSeries() = default;
  PairSeries(const RateSample* ring, std::size_t capacity, std::size_t head,
             std::size_t count)
      : ring_(ring), capacity_(capacity), head_(head), count_(count) {}

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// k-th retained sample, oldest first (k in [0, size())).
  const RateSample& at(std::size_t k) const;
  /// k-th retained sample, newest first (k = 0 is the latest observation).
  const RateSample& from_newest(std::size_t k) const { return at(count_ - 1 - k); }
  const RateSample& newest() const { return from_newest(0); }

 private:
  const RateSample* ring_ = nullptr;
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;  ///< ring slot holding the oldest retained sample
  std::size_t count_ = 0;
};

/// Per-ordered-pair rate history: a fixed-capacity ring buffer of
/// epoch-stamped probe results for every ordered pair of an n-VM fleet.
/// Memory is O(n^2 * capacity) regardless of session length — the forecast
/// plane's raw material. Every probe result the measurement plane stores
/// into the ViewCache is mirrored here (the cache keeps only the latest two
/// estimates; predictors need the recent window). Sized once, for one
/// tenant's fleet.
class RateHistory {
 public:
  RateHistory(std::size_t vm_count, std::size_t capacity);

  std::size_t vm_count() const { return vm_count_; }
  std::size_t capacity() const { return capacity_; }

  /// Records one probe result for (src, dst) at `epoch`, evicting the
  /// oldest retained sample once the pair's ring is full. O(1).
  void record(std::size_t src, std::size_t dst, double rate_bps, std::uint64_t epoch);

  /// Retained samples of one pair, oldest first.
  PairSeries series(std::size_t src, std::size_t dst) const;

  /// Number of retained samples for one pair (0..capacity).
  std::size_t sample_count(std::size_t src, std::size_t dst) const;

  /// Total samples ever recorded for one pair (not capped by capacity).
  std::uint64_t observations(std::size_t src, std::size_t dst) const;

 private:
  std::size_t pair_index(std::size_t src, std::size_t dst) const {
    return src * vm_count_ + dst;
  }

  std::size_t vm_count_;
  std::size_t capacity_;
  /// Ring storage, pair-major: samples_[pair * capacity_ + slot].
  std::vector<RateSample> samples_;
  std::vector<std::size_t> head_;         ///< per pair: slot of the oldest sample
  std::vector<std::size_t> count_;        ///< per pair: retained samples
  std::vector<std::uint64_t> recorded_;   ///< per pair: lifetime observations
};

}  // namespace choreo::forecast
