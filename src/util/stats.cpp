#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/require.h"

namespace choreo {

double percentile(std::vector<double> values, double q) {
  CHOREO_REQUIRE(!values.empty());
  CHOREO_REQUIRE(q >= 0.0 && q <= 1.0);
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return values[0];
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double mean(const std::vector<double>& values) {
  CHOREO_REQUIRE(!values.empty());
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

double relative_error(double estimate, double truth) {
  CHOREO_REQUIRE(truth != 0.0);
  return std::abs(estimate - truth) / std::abs(truth);
}

Summary summarize(const std::vector<double>& values) {
  CHOREO_REQUIRE(!values.empty());
  Summary s;
  s.count = values.size();
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  s.min = sorted.front();
  s.max = sorted.back();
  s.mean = mean(values);
  double sq = 0.0;
  for (double v : values) sq += (v - s.mean) * (v - s.mean);
  s.stddev = values.size() > 1 ? std::sqrt(sq / static_cast<double>(values.size() - 1)) : 0.0;
  auto pct = [&](double q) {
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
  };
  s.median = pct(0.5);
  s.p05 = pct(0.05);
  s.p90 = pct(0.90);
  s.p95 = pct(0.95);
  s.p99 = pct(0.99);
  return s;
}

Cdf::Cdf(std::vector<double> values) : values_(std::move(values)), sorted_(false) {
  ensure_sorted();
}

void Cdf::add(double v) {
  values_.push_back(v);
  sorted_ = false;
}

void Cdf::ensure_sorted() const {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
}

double Cdf::at(double v) const {
  CHOREO_REQUIRE(!values_.empty());
  ensure_sorted();
  const auto it = std::upper_bound(values_.begin(), values_.end(), v);
  return static_cast<double>(it - values_.begin()) / static_cast<double>(values_.size());
}

double Cdf::quantile(double q) const {
  CHOREO_REQUIRE(!values_.empty());
  CHOREO_REQUIRE(q >= 0.0 && q <= 1.0);
  ensure_sorted();
  if (q <= 0.0) return values_.front();
  const auto idx = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values_.size()))) ;
  return values_[std::min(idx == 0 ? 0 : idx - 1, values_.size() - 1)];
}

double Cdf::fraction_between(double lo, double hi) const {
  CHOREO_REQUIRE(!values_.empty());
  CHOREO_REQUIRE(lo <= hi);
  ensure_sorted();
  const auto a = std::lower_bound(values_.begin(), values_.end(), lo);
  const auto b = std::upper_bound(values_.begin(), values_.end(), hi);
  return static_cast<double>(b - a) / static_cast<double>(values_.size());
}

double Cdf::min() const {
  CHOREO_REQUIRE(!values_.empty());
  ensure_sorted();
  return values_.front();
}

double Cdf::max() const {
  CHOREO_REQUIRE(!values_.empty());
  ensure_sorted();
  return values_.back();
}

std::vector<std::pair<double, double>> Cdf::points(std::size_t max_points) const {
  CHOREO_REQUIRE(max_points >= 2);
  ensure_sorted();
  std::vector<std::pair<double, double>> out;
  if (values_.empty()) return out;
  const std::size_t n = values_.size();
  const std::size_t step = std::max<std::size_t>(1, n / max_points);
  for (std::size_t i = 0; i < n; i += step) {
    out.emplace_back(values_[i], static_cast<double>(i + 1) / static_cast<double>(n));
  }
  if (out.back().first != values_.back() || out.back().second != 1.0) {
    out.emplace_back(values_.back(), 1.0);
  }
  return out;
}

std::string Cdf::to_string(std::size_t max_points) const {
  std::ostringstream os;
  for (const auto& [v, f] : points(max_points)) {
    os << v << "\t" << f << "\n";
  }
  return os.str();
}

void Accumulator::add(double v) {
  if (n_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++n_;
  const double delta = v - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (v - mean_);
}

double Accumulator::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

}  // namespace choreo
