#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "packetsim/udp_train.h"
#include "util/rng.h"

namespace choreo::packetsim {

/// Timestamp jitter never exceeds this many standard deviations:
/// keyed_normal is bounded by sqrt(106 ln 2) ~= 8.5717 (see box_muller), so
/// a packet's logged time lies within kJitterBoundSigmas * sigma of its
/// arrival. The per-burst summary relies on it to read only a few jitters.
inline constexpr double kJitterBoundSigmas = 9.0;

/// The time a receiver logs for packet `seq` arriving at `arrival`, before
/// the monotone clamp: the arrival plus jitter_s * keyed_normal(seed, seq).
/// A pure function of its arguments, so every path that delivers the same
/// packet at the same instant logs the same time.
inline double jittered_time(double arrival, double jitter_s, std::uint64_t seed,
                            std::uint64_t seq) {
  return jitter_s > 0.0 ? arrival + jitter_s * keyed_normal(seed, seq) : arrival;
}

/// A receiver's log of one packet train, emulating a receiver that logs
/// SO_TIMESTAMPNS kernel timestamps (§3.1). Optional Gaussian jitter models
/// timestamping/interrupt noise, drawn per packet as
/// jittered_time(arrival, jitter, seed, seq); logged times are clamped to be
/// monotonic, as kernel timestamps are.
class RecordingSink {
 public:
  struct Record {
    std::uint64_t flow = 0;
    std::uint64_t seq = 0;
    std::uint32_t burst = 0;
    std::uint32_t wire_bytes = 0;
    double time = 0.0;
  };

  RecordingSink() = default;
  RecordingSink(double timestamp_jitter_s, std::uint64_t seed)
      : jitter_s_(timestamp_jitter_s), seed_(seed) {}

  /// Logs a packet that arrived at `arrival.time`.
  void receive(Record arrival) {
    double t = jittered_time(arrival.time, jitter_s_, seed_, arrival.seq);
    if (!records_.empty()) t = std::max(t, records_.back().time);
    arrival.time = t;
    records_.push_back(arrival);
  }

  const std::vector<Record>& records() const { return records_; }
  std::size_t count() const { return records_.size(); }
  void clear() { records_.clear(); }

 private:
  double jitter_s_ = 0.0;
  std::uint64_t seed_ = 0;
  std::vector<Record> records_;
};

/// What the §3.1 estimator reads of one burst's receiver log: how many of
/// its packets arrived, and the logged time and seq of the first and last.
struct BurstSummary {
  std::uint32_t count = 0;
  std::uint64_t seq_first = 0, seq_last = 0;
  double t_first = 0.0, t_last = 0.0;

  bool operator==(const BurstSummary&) const = default;
};

/// A train's receiver log reduced to one BurstSummary per burst, in burst
/// order (a burst nothing arrived from has count 0).
struct TrainSummary {
  std::vector<BurstSummary> bursts;

  std::size_t received() const {
    std::size_t n = 0;
    for (const BurstSummary& b : bursts) n += b.count;
    return n;
  }
  bool operator==(const TrainSummary&) const = default;
};

/// Summarizes a receiver log of a `params` train: per burst, the first and
/// last record carrying that burst index, in log order.
TrainSummary summarize(const std::vector<RecordingSink::Record>& records,
                       const TrainParams& params);

}  // namespace choreo::packetsim
