#pragma once

#include <cstdint>
#include <vector>

#include "workload/generator.h"

namespace choreo::workload {

/// One application observed in the (synthetic) HP Cloud trace: its traffic
/// matrix, observed start time, and an hourly byte series for long-running
/// services (used by the §2.1 predictability analysis).
struct TraceApp {
  place::Application app;
  double start_s = 0.0;
  /// Bytes transferred per hour over the trace, with diurnal structure and
  /// AR(1) noise — "data from the previous hour and the time-of-day are good
  /// predictors of the number of bytes transferred in the next hour".
  std::vector<double> hourly_bytes;
};

struct TraceConfig {
  double duration_hours = 21.0 * 24.0;  ///< "three weeks of network data"
  double apps_per_day = 48.0;           ///< arrival rate, diurnally modulated
  GeneratorConfig gen;
};

/// Advances `t_hours` through the §6.1 arrival process — a diurnally
/// modulated Poisson process sampled by thinning — to the next accepted
/// arrival. Returns false once the trace window is exhausted. Shared by
/// HpCloudTrace (which materializes the trace) and TraceArrivalStream
/// (which streams it), so the two arrival models cannot drift apart.
bool advance_to_next_arrival(Rng& rng, const TraceConfig& config, double& t_hours);

/// Synthetic stand-in for the HP Cloud dataset (§6.1): applications with
/// observed start times over three weeks, real-looking traffic matrices and
/// per-hour transfer volumes. The paper's dataset is proprietary; this
/// generator exercises the same code paths (profiling, prediction, batch
/// and sequential placement) with the statistics the paper describes.
class HpCloudTrace {
 public:
  HpCloudTrace(std::uint64_t seed, TraceConfig config);

  const std::vector<TraceApp>& apps() const { return apps_; }
  const TraceConfig& config() const { return config_; }

  /// §6.2: picks `count` random applications and returns them with arrival
  /// times zeroed (they are combined and placed all at once).
  std::vector<place::Application> sample_batch(Rng& rng, std::size_t count) const;

  /// §6.3: picks `count` applications *consecutive in observed start time*
  /// and returns them ordered by arrival, shifted so the first arrives at 0.
  /// `mean_gap_s`, when positive, rescales inter-arrival gaps to that mean
  /// so that application lifetimes and arrivals overlap the way the paper's
  /// sequences do.
  std::vector<place::Application> sample_sequence(Rng& rng, std::size_t count,
                                                  double mean_gap_s) const;

 private:
  TraceConfig config_;
  std::vector<TraceApp> apps_;
};

/// Accuracy of a next-hour byte predictor over a series: mean/median of
/// |prediction - actual| / actual.
struct PredictorScore {
  double mean_rel_error = 0.0;
  double median_rel_error = 0.0;
  std::size_t samples = 0;
};

/// Predict h[t] = h[t-1].
PredictorScore score_prev_hour(const std::vector<double>& hourly);
/// Predict h[t] = mean of h at the same time-of-day on previous days.
PredictorScore score_time_of_day(const std::vector<double>& hourly,
                                 std::size_t hours_per_day = 24);
/// Predict h[t] = (prev-hour + time-of-day)/2 — the blended predictor.
PredictorScore score_blend(const std::vector<double>& hourly,
                           std::size_t hours_per_day = 24);

}  // namespace choreo::workload
