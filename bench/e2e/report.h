#pragma once

// Shared vocabulary of the end-to-end benchmark: wall-clock sample sets,
// the output digest, per-input seeds, what one episode records, and the
// Report a run aggregates.

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "yardstick.h"

namespace choreo::e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Samples of one quantity (wall seconds unless stated otherwise).
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  std::size_t count() const { return values_.size(); }
  double sum() const;
  /// The ceil(q * n)-th smallest sample (the rank rule obs::Hist uses);
  /// 0 when empty.
  double quantile(double q) const;

 private:
  std::vector<double> values_;
};

/// Order-sensitive FNV-1a digest of the outputs a run produced (placements
/// and sim-time outcomes), so two runs or two commits can be compared
/// without storing the outputs.
class Digest {
 public:
  void add(std::uint64_t v);
  void add(double v);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

/// Seed of input `k` of a run seeded with `seed` (splitmix64 of both).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t k);

/// Everything one episode (a fresh set-up plus a fixed amount of work drawn
/// from one seed) measured and produced.
struct Episode {
  /// One timed call into the library. `op` names its kind and is a literal.
  struct Call {
    const char* op;
    double wall_s;
  };

  double setup_s = 0.0;
  /// Wall time of the measured loop, including the benchmark's own glue.
  double loop_s = 0.0;
  std::vector<Call> calls;
  /// One entry per placement request: the calls whose wall times sum to its
  /// decision time (equal indices name a single call).
  std::vector<std::array<std::uint32_t, 2>> decides;
  /// Measurement cycles that probed: (call index, pairs probed).
  std::vector<std::array<std::uint32_t, 2>> probes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// One line per failed output check or escaped exception.
  std::vector<std::string> errors;
  Digest digest;
  /// Simulated app response times (finished - arrival), sessions only.
  Samples response_s;
  /// Layer counters (peaks: maximum), by name.
  std::map<std::string, double> totals;
  /// The yardstick this episode's calls are scaled by, and the slices run
  /// between calls: (index of the call they followed, slice wall seconds).
  Yardstick yardstick = kEventYardstick;
  std::vector<std::pair<std::uint32_t, double>> slices;

  /// Records one timed call, then runs a yardstick slice if none ran in the
  /// last kSliceEvery_s; returns the call's index.
  std::uint32_t call(const char* op, double wall_s);
  void add(const std::string& name, double v) { totals[name] += v; }
  void max(const std::string& name, double v) {
    double& slot = totals[name];
    if (v > slot) slot = v;
  }
  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }

  /// Each call's wall time scaled to the nominal host speed by the median of
  /// the yardstick slices nearest to it; the set-up scales by the first ones.
  std::vector<double> scaled_calls() const;
  double scaled_setup_s() const;

 private:
  Clock::time_point last_slice_{};
};

/// Wall seconds between two yardstick slices (1-3% overhead).
inline constexpr double kSliceEvery_s = 0.02;

/// What a run measured, aggregated over its inputs. Each timed quantity is
/// scaled by the yardstick and, where an input ran more than once, counts at
/// its fastest repetition.
struct Report {
  std::size_t inputs = 0;
  std::size_t repeats = 0;
  Samples setup_s;   ///< one per input
  Samples decide_s;  ///< per placement request
  /// Per-call wall time, by operation kind.
  std::map<std::string, Samples> ops;
  /// Sum of the per-call wall times: time inside the timed layer calls.
  double busy_s = 0.0;
  /// Pairs probed, and the wall time of the cycles that probed them.
  double pairs_probed = 0.0;
  double probing_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  /// The first input's outputs and counters. How many inputs a run covers
  /// depends on --seconds; the first input's outputs do not, so they are
  /// what runs of any length, or two commits, compare.
  std::map<std::string, double> first_totals;
  std::uint64_t first_digest = 0;
  Samples first_response_s;

  double op_sum(const std::string& op) const {
    const auto it = ops.find(op);
    return it == ops.end() ? 0.0 : it->second.sum();
  }
};

}  // namespace choreo::e2e
