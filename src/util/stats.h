#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace choreo {

/// Summary statistics over a sample.
struct Summary {
  std::size_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double median = 0.0;
  double stddev = 0.0;  ///< sample standard deviation (n-1 denominator)
  double p05 = 0.0;
  double p90 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Computes summary statistics; requires a non-empty sample.
Summary summarize(const std::vector<double>& values);

/// Linear-interpolated percentile, q in [0,1]; requires non-empty sample.
double percentile(std::vector<double> values, double q);

double mean(const std::vector<double>& values);
double median(std::vector<double> values);

/// |a - b| / |b|; used throughout for "relative error vs ground truth".
double relative_error(double estimate, double truth);

/// Empirical cumulative distribution function over a sample.
///
/// Used by every figure-reproduction bench to print CDFs the way the paper
/// plots them (value on x, cumulative fraction on y).
class Cdf {
 public:
  Cdf() = default;
  explicit Cdf(std::vector<double> values);

  void add(double v);
  /// Fraction of samples <= v.
  double at(double v) const;
  /// Smallest sample value with CDF >= q (inverse CDF), q in [0,1].
  double quantile(double q) const;
  /// Fraction of samples within [lo, hi].
  double fraction_between(double lo, double hi) const;

  std::size_t size() const { return sorted_ ? values_.size() : values_.size(); }
  bool empty() const { return values_.empty(); }
  double min() const;
  double max() const;

  /// Rows of (value, cumulative fraction) suitable for plotting; at most
  /// `max_points` rows, evenly spaced across the sorted sample.
  std::vector<std::pair<double, double>> points(std::size_t max_points = 50) const;

  /// Renders the CDF as fixed-width text rows: "value cum_frac".
  std::string to_string(std::size_t max_points = 20) const;

 private:
  void ensure_sorted() const;
  mutable std::vector<double> values_;
  mutable bool sorted_ = true;
};

/// Online mean/variance accumulator (Welford).
class Accumulator {
 public:
  void add(double v);
  std::size_t count() const { return n_; }
  double mean() const { return mean_; }
  double variance() const;  ///< sample variance; 0 when n < 2
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace choreo
