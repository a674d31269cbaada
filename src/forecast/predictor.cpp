#include "forecast/predictor.h"

#include <algorithm>

#include "util/require.h"

namespace choreo::forecast {

double LastValuePredictor::predict(const PairSeries& series,
                                   std::uint64_t /*target_epoch*/) const {
  CHOREO_REQUIRE(!series.empty());
  return series.newest().rate_bps;
}

EwmaPredictor::EwmaPredictor(double alpha) : alpha_(alpha) {
  CHOREO_REQUIRE(alpha > 0.0 && alpha <= 1.0);
}

double EwmaPredictor::predict(const PairSeries& series,
                              std::uint64_t /*target_epoch*/) const {
  CHOREO_REQUIRE(!series.empty());
  double e = series.at(0).rate_bps;
  for (std::size_t k = 1; k < series.size(); ++k) {
    e = alpha_ * series.at(k).rate_bps + (1.0 - alpha_) * e;
  }
  return e;
}

TimeOfDayPredictor::TimeOfDayPredictor(std::uint64_t period_epochs)
    : period_(period_epochs) {
  CHOREO_REQUIRE(period_epochs >= 1);
}

double TimeOfDayPredictor::predict(const PairSeries& series,
                                   std::uint64_t target_epoch) const {
  CHOREO_REQUIRE(!series.empty());
  // Newest-to-oldest, matching workload::score_time_of_day's accumulation
  // order (back = P, 2P, ...) bit for bit on dense series.
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t k = 0; k < series.size(); ++k) {
    const RateSample& s = series.from_newest(k);
    if (s.epoch % period_ == target_epoch % period_ && s.epoch != target_epoch) {
      sum += s.rate_bps;
      ++n;
    }
  }
  if (n == 0) return series.newest().rate_bps;  // no same-phase history yet
  return sum / static_cast<double>(n);
}

BlendPredictor::BlendPredictor(std::uint64_t period_epochs) : tod_(period_epochs) {}

double BlendPredictor::predict(const PairSeries& series,
                               std::uint64_t target_epoch) const {
  CHOREO_REQUIRE(!series.empty());
  return 0.5 * (last_.predict(series, target_epoch) + tod_.predict(series, target_epoch));
}

std::vector<std::unique_ptr<Predictor>> default_predictor_set() {
  std::vector<std::unique_ptr<Predictor>> out;
  out.push_back(std::make_unique<LastValuePredictor>());
  out.push_back(std::make_unique<EwmaPredictor>());
  out.push_back(std::make_unique<TimeOfDayPredictor>());
  out.push_back(std::make_unique<BlendPredictor>());
  return out;
}

bool CusumDetector::update(double relative_residual) {
  g_pos_ = std::max(0.0, g_pos_ + relative_residual - params_.slack);
  g_neg_ = std::max(0.0, g_neg_ - relative_residual - params_.slack);
  if (g_pos_ > params_.threshold || g_neg_ > params_.threshold) {
    reset();
    return true;
  }
  return false;
}

void CusumDetector::reset() {
  g_pos_ = 0.0;
  g_neg_ = 0.0;
}

}  // namespace choreo::forecast
