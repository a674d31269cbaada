#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace choreo::e2e {
namespace {

/// Median slice time over the slices within kWindow of `center`: one slow
/// slice (an interrupt) does not move it, a burst lasting a few slices does.
constexpr std::size_t kWindow = 2;

double local_slice_s(const std::vector<std::pair<std::uint32_t, double>>& slices,
                     std::size_t center) {
  const std::size_t lo = center >= kWindow ? center - kWindow : 0;
  const std::size_t hi = std::min(slices.size(), center + kWindow + 1);
  std::vector<double> window;
  for (std::size_t j = lo; j < hi; ++j) window.push_back(slices[j].second);
  std::nth_element(window.begin(), window.begin() + static_cast<std::ptrdiff_t>(window.size() / 2),
                   window.end());
  return window[window.size() / 2];
}

}  // namespace

double Samples::sum() const {
  double s = 0.0;
  for (double v : values_) s += v;
  return s;
}

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t idx =
      std::min(rank <= 1.0 ? std::size_t{0} : static_cast<std::size_t>(rank) - 1,
               sorted.size() - 1);
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(idx),
                   sorted.end());
  return sorted[idx];
}

void Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffu;
    h_ *= 1099511628211ull;
  }
}

void Digest::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

std::uint32_t Episode::call(const char* op, double wall_s) {
  calls.push_back({op, wall_s});
  const auto index = static_cast<std::uint32_t>(calls.size() - 1);
  if (seconds_since(last_slice_) >= kSliceEvery_s) {
    slices.emplace_back(index, yardstick.slice());
    last_slice_ = Clock::now();
  }
  return index;
}

std::vector<double> Episode::scaled_calls() const {
  std::vector<double> out(calls.size());
  std::size_t j = 0;
  for (std::size_t i = 0; i < calls.size(); ++i) {
    // The nearest slice: the first one run after this call.
    while (j + 1 < slices.size() && slices[j].first < i) ++j;
    out[i] = slices.empty() ? calls[i].wall_s
                            : calls[i].wall_s * yardstick.nominal_s / local_slice_s(slices, j);
  }
  return out;
}

double Episode::scaled_setup_s() const {
  return slices.empty() ? setup_s : setup_s * yardstick.nominal_s / local_slice_s(slices, 0);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t k) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + k + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace choreo::e2e
