#include "workload/trace.h"

#include <algorithm>
#include <cmath>

#include "util/require.h"
#include "util/stats.h"

namespace choreo::workload {
namespace {
constexpr double kPi = 3.14159265358979323846;
/// Arrival-rate day/night swing A of the diurnal Poisson rate.
constexpr double kDiurnalAmplitude = 0.5;
/// Hourly-series shape: per-app diurnal amplitude drawn in [0.2, this], then
/// AR(1) log-noise with coefficient rho and innovation sigma.
constexpr double kSeriesDiurnalAmplitudeMax = 0.7;
constexpr double kSeriesAr1Rho = 0.7;
constexpr double kSeriesNoiseSigma = 0.2;
}  // namespace

// Arrivals: non-homogeneous Poisson via thinning, with a diurnal rate
// lambda(t) = base * (1 + A*sin(2*pi*(h - 8)/24)).
bool advance_to_next_arrival(Rng& rng, const TraceConfig& config, double& t_hours) {
  const double base_per_hour = config.apps_per_day / 24.0;
  const double lambda_max = base_per_hour * (1.0 + kDiurnalAmplitude);
  while (true) {
    t_hours += rng.exponential(1.0 / lambda_max);
    if (t_hours >= config.duration_hours) return false;
    const double hour_of_day = std::fmod(t_hours, 24.0);
    const double lambda = base_per_hour *
                          (1.0 + kDiurnalAmplitude *
                                     std::sin(2.0 * kPi * (hour_of_day - 8.0) / 24.0));
    if (rng.chance(std::min(1.0, lambda / lambda_max))) return true;
  }
}

HpCloudTrace::HpCloudTrace(std::uint64_t seed, TraceConfig config)
    : config_(std::move(config)) {
  CHOREO_REQUIRE(config_.duration_hours > 0.0);
  CHOREO_REQUIRE(config_.apps_per_day > 0.0);
  Rng rng(seed);

  double t_hours = 0.0;
  while (advance_to_next_arrival(rng, config_, t_hours)) {
    TraceApp entry;
    entry.app = generate_app(rng, config_.gen);
    entry.start_s = t_hours * 3600.0;
    entry.app.arrival_s = entry.start_s;

    // Hourly byte series for the rest of the trace window.
    const auto hours_left = static_cast<std::size_t>(config_.duration_hours - t_hours);
    if (hours_left >= 2) {
      const double base_bytes = entry.app.traffic_bytes.total();
      const double amp = rng.uniform(0.2, kSeriesDiurnalAmplitudeMax);
      const double phase = rng.uniform(0.0, 24.0);
      double ar = 0.0;
      entry.hourly_bytes.reserve(hours_left);
      for (std::size_t h = 0; h < hours_left; ++h) {
        const double hod = std::fmod(t_hours + static_cast<double>(h), 24.0);
        const double diurnal = 1.0 + amp * std::sin(2.0 * kPi * (hod - phase) / 24.0);
        ar = kSeriesAr1Rho * ar + rng.normal(0.0, kSeriesNoiseSigma);
        entry.hourly_bytes.push_back(base_bytes * diurnal * std::exp(ar));
      }
    }
    apps_.push_back(std::move(entry));
  }
  CHOREO_ASSERT_MSG(apps_.size() >= 8, "trace too short to sample experiments from");
}

std::vector<place::Application> HpCloudTrace::sample_batch(Rng& rng,
                                                           std::size_t count) const {
  CHOREO_REQUIRE(count >= 1 && count <= apps_.size());
  std::vector<place::Application> out;
  out.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    const auto idx = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(apps_.size()) - 1));
    place::Application app = apps_[idx].app;
    app.arrival_s = 0.0;
    out.push_back(std::move(app));
  }
  return out;
}

std::vector<place::Application> HpCloudTrace::sample_sequence(Rng& rng, std::size_t count,
                                                              double mean_gap_s) const {
  CHOREO_REQUIRE(count >= 1 && count <= apps_.size());
  const auto start = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(apps_.size() - count)));
  std::vector<place::Application> out;
  out.reserve(count);
  double raw_gap_sum = 0.0;
  for (std::size_t k = 0; k + 1 < count; ++k) {
    raw_gap_sum += apps_[start + k + 1].start_s - apps_[start + k].start_s;
  }
  const double scale = (mean_gap_s > 0.0 && raw_gap_sum > 0.0 && count > 1)
                           ? mean_gap_s * static_cast<double>(count - 1) / raw_gap_sum
                           : 1.0;
  for (std::size_t k = 0; k < count; ++k) {
    place::Application app = apps_[start + k].app;
    app.arrival_s = (apps_[start + k].start_s - apps_[start].start_s) * scale;
    out.push_back(std::move(app));
  }
  return out;
}

namespace {

PredictorScore score_from_errors(std::vector<double> errors) {
  PredictorScore s;
  s.samples = errors.size();
  if (errors.empty()) return s;
  s.mean_rel_error = mean(errors);
  s.median_rel_error = median(std::move(errors));
  return s;
}

}  // namespace

PredictorScore score_prev_hour(const std::vector<double>& hourly) {
  std::vector<double> errors;
  for (std::size_t t = 1; t < hourly.size(); ++t) {
    if (hourly[t] <= 0.0) continue;
    errors.push_back(std::abs(hourly[t - 1] - hourly[t]) / hourly[t]);
  }
  return score_from_errors(std::move(errors));
}

PredictorScore score_time_of_day(const std::vector<double>& hourly,
                                 std::size_t hours_per_day) {
  CHOREO_REQUIRE(hours_per_day >= 1);
  std::vector<double> errors;
  for (std::size_t t = hours_per_day; t < hourly.size(); ++t) {
    if (hourly[t] <= 0.0) continue;
    double sum = 0.0;
    std::size_t n = 0;
    for (std::size_t back = hours_per_day; back <= t; back += hours_per_day) {
      sum += hourly[t - back];
      ++n;
    }
    const double prediction = sum / static_cast<double>(n);
    errors.push_back(std::abs(prediction - hourly[t]) / hourly[t]);
  }
  return score_from_errors(std::move(errors));
}

PredictorScore score_blend(const std::vector<double>& hourly, std::size_t hours_per_day) {
  CHOREO_REQUIRE(hours_per_day >= 1);
  std::vector<double> errors;
  for (std::size_t t = hours_per_day; t < hourly.size(); ++t) {
    if (hourly[t] <= 0.0) continue;
    double sum = 0.0;
    std::size_t n = 0;
    for (std::size_t back = hours_per_day; back <= t; back += hours_per_day) {
      sum += hourly[t - back];
      ++n;
    }
    const double tod = sum / static_cast<double>(n);
    const double prediction = 0.5 * (hourly[t - 1] + tod);
    errors.push_back(std::abs(prediction - hourly[t]) / hourly[t]);
  }
  return score_from_errors(std::move(errors));
}

}  // namespace choreo::workload
