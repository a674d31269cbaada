#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <mutex>
#include <sstream>

#include "util/json.h"
#include "util/require.h"

namespace choreo::obs {

// --- Gauge packing ---------------------------------------------------------

namespace detail {

std::uint64_t pack_double(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double unpack_double(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

}  // namespace detail

// --- Histogram bucket math -------------------------------------------------

std::size_t Hist::bucket_of(double value) {
  if (!(value > 0.0)) return 0;  // <= 0 and NaN land in the underflow bucket
  int exp = 0;
  const double m = std::frexp(value, &exp);  // value = m * 2^exp, m in [0.5, 1)
  exp -= 1;                                  // express as m' * 2^exp, m' in [1, 2)
  if (exp < kMinExp) return 1;               // clamp into the edge octaves
  if (exp > kMaxExp) return kBuckets - 1;
  // m in [0.5, 1) -> sub-bucket floor((m - 0.5) * 2 * kSubBuckets)
  int sub = static_cast<int>((m - 0.5) * 2.0 * kSubBuckets);
  sub = std::min(std::max(sub, 0), kSubBuckets - 1);
  return 1 + static_cast<std::size_t>(exp - kMinExp) * kSubBuckets +
         static_cast<std::size_t>(sub);
}

double Hist::bucket_width(std::size_t bucket) {
  if (bucket == 0 || bucket >= kBuckets) return 0.0;
  const std::size_t octave = (bucket - 1) / kSubBuckets;
  // Each octave [2^e, 2^(e+1)) splits into kSubBuckets equal slices.
  return std::ldexp(1.0, static_cast<int>(octave) + kMinExp) / kSubBuckets;
}

double Hist::bucket_mid(std::size_t bucket) {
  if (bucket == 0 || bucket >= kBuckets) return 0.0;
  const std::size_t octave = (bucket - 1) / kSubBuckets;
  const std::size_t sub = (bucket - 1) % kSubBuckets;
  const double lo = std::ldexp(1.0, static_cast<int>(octave) + kMinExp) *
                    (1.0 + static_cast<double>(sub) / kSubBuckets);
  return lo + 0.5 * bucket_width(bucket);
}

void Hist::observe(double value, std::uint32_t shard) const {
  if (!base_) return;
  base_[static_cast<std::size_t>(shard) * kBuckets + bucket_of(value)].fetch_add(
      1, std::memory_order_relaxed);
  // Exact extremes via CAS. min/max are commutative and associative, so the
  // converged values are interleaving-independent (deterministic).
  std::uint64_t cur = minmax_[0].load(std::memory_order_relaxed);
  while (value < detail::unpack_double(cur) &&
         !minmax_[0].compare_exchange_weak(cur, detail::pack_double(value),
                                           std::memory_order_relaxed)) {
  }
  cur = minmax_[1].load(std::memory_order_relaxed);
  while (value > detail::unpack_double(cur) &&
         !minmax_[1].compare_exchange_weak(cur, detail::pack_double(value),
                                           std::memory_order_relaxed)) {
  }
}

namespace {

/// Quantile extraction from raw bucket counts: the midpoint of the bucket
/// containing the ceil(q * count)-th sample.
double hist_quantile(const std::uint64_t* buckets, std::size_t n_buckets,
                     std::uint64_t count, double q) {
  if (count == 0) return 0.0;
  q = std::min(std::max(q, 0.0), 1.0);
  const std::uint64_t rank =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(
                                     std::ceil(q * static_cast<double>(count))));
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < n_buckets; ++b) {
    cum += buckets[b];
    if (cum >= rank) return Hist::bucket_mid(b);
  }
  return Hist::bucket_mid(n_buckets - 1);
}

// --- Registry --------------------------------------------------------------

enum class Kind { Counter, Gauge, Hist };

struct Entry {
  Kind kind;
  // Counter: shards slots. Gauge: one slot. Hist: shards * kBuckets counts.
  std::unique_ptr<std::atomic<std::uint64_t>[]> slots;
  // Hist only: packed min at [0], packed max at [1].
  std::unique_ptr<std::atomic<std::uint64_t>[]> minmax;
};

}  // namespace

struct Registry::Impl {
  std::mutex mu;
  std::map<std::string, Entry> entries;  // ordered: snapshots sort by name
};

Registry::Registry(std::uint32_t shards)
    : impl_(std::make_unique<Impl>()), shards_(shards) {
  CHOREO_REQUIRE_MSG(shards >= 1, "a registry needs at least one shard");
}

Registry::~Registry() = default;

Counter Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->entries.find(name);
  if (it == impl_->entries.end()) {
    Entry e;
    e.kind = Kind::Counter;
    e.slots = std::make_unique<std::atomic<std::uint64_t>[]>(shards_);
    for (std::uint32_t s = 0; s < shards_; ++s) e.slots[s].store(0);
    it = impl_->entries.emplace(name, std::move(e)).first;
  }
  CHOREO_REQUIRE_MSG(it->second.kind == Kind::Counter,
                     "metric registered twice with different kinds: " + name);
  return Counter(it->second.slots.get());
}

Gauge Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->entries.find(name);
  if (it == impl_->entries.end()) {
    Entry e;
    e.kind = Kind::Gauge;
    e.slots = std::make_unique<std::atomic<std::uint64_t>[]>(1);
    e.slots[0].store(detail::pack_double(0.0));
    it = impl_->entries.emplace(name, std::move(e)).first;
  }
  CHOREO_REQUIRE_MSG(it->second.kind == Kind::Gauge,
                     "metric registered twice with different kinds: " + name);
  return Gauge(it->second.slots.get());
}

Hist Registry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->entries.find(name);
  if (it == impl_->entries.end()) {
    Entry e;
    e.kind = Kind::Hist;
    const std::size_t n = static_cast<std::size_t>(shards_) * Hist::kBuckets;
    e.slots = std::make_unique<std::atomic<std::uint64_t>[]>(n);
    for (std::size_t i = 0; i < n; ++i) e.slots[i].store(0);
    e.minmax = std::make_unique<std::atomic<std::uint64_t>[]>(2);
    e.minmax[0].store(detail::pack_double(std::numeric_limits<double>::infinity()));
    e.minmax[1].store(detail::pack_double(-std::numeric_limits<double>::infinity()));
    it = impl_->entries.emplace(name, std::move(e)).first;
  }
  CHOREO_REQUIRE_MSG(it->second.kind == Kind::Hist,
                     "metric registered twice with different kinds: " + name);
  return Hist(it->second.slots.get(), it->second.minmax.get());
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot out;
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::vector<std::uint64_t> merged(Hist::kBuckets);
  for (const auto& [name, e] : impl_->entries) {  // map order == name order
    switch (e.kind) {
      case Kind::Counter: {
        std::uint64_t total = 0;  // integer adds: shard order is immaterial
        for (std::uint32_t s = 0; s < shards_; ++s) {
          total += e.slots[s].load(std::memory_order_relaxed);
        }
        out.counters.push_back({name, total});
        break;
      }
      case Kind::Gauge:
        out.gauges.push_back(
            {name, detail::unpack_double(e.slots[0].load(std::memory_order_relaxed))});
        break;
      case Kind::Hist: {
        std::fill(merged.begin(), merged.end(), 0);
        std::uint64_t count = 0;
        for (std::uint32_t s = 0; s < shards_; ++s) {
          const auto* base =
              e.slots.get() + static_cast<std::size_t>(s) * Hist::kBuckets;
          for (std::size_t b = 0; b < Hist::kBuckets; ++b) {
            const std::uint64_t v = base[b].load(std::memory_order_relaxed);
            merged[b] += v;
            count += v;
          }
        }
        MetricsSnapshot::HistValue h;
        h.name = name;
        h.count = count;
        if (count > 0) {
          h.min = detail::unpack_double(e.minmax[0].load(std::memory_order_relaxed));
          h.max = detail::unpack_double(e.minmax[1].load(std::memory_order_relaxed));
          h.p50 = hist_quantile(merged.data(), merged.size(), count, 0.50);
          h.p90 = hist_quantile(merged.data(), merged.size(), count, 0.90);
          h.p99 = hist_quantile(merged.data(), merged.size(), count, 0.99);
        }
        out.hists.push_back(std::move(h));
        break;
      }
    }
  }
  return out;
}

// --- Snapshot export -------------------------------------------------------

const MetricsSnapshot::CounterValue* MetricsSnapshot::find_counter(
    const std::string& name) const {
  for (const auto& c : counters) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const MetricsSnapshot::HistValue* MetricsSnapshot::find_hist(
    const std::string& name) const {
  for (const auto& h : hists) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

std::string MetricsSnapshot::to_json() const {
  std::ostringstream out;
  out << "{\n  \"kind\": \"choreo_metrics\",\n  \"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    out << (i ? ", " : "") << util::json_quote(counters[i].name) << ": "
        << counters[i].value;
  }
  out << "},\n  \"gauges\": {";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    out << (i ? ", " : "") << util::json_quote(gauges[i].name) << ": "
        << util::json_number(gauges[i].value);
  }
  out << "},\n  \"histograms\": {";
  for (std::size_t i = 0; i < hists.size(); ++i) {
    const HistValue& h = hists[i];
    out << (i ? ",\n    " : "\n    ") << util::json_quote(h.name) << ": {\"count\": "
        << h.count << ", \"min\": " << util::json_number(h.min)
        << ", \"max\": " << util::json_number(h.max)
        << ", \"p50\": " << util::json_number(h.p50)
        << ", \"p90\": " << util::json_number(h.p90)
        << ", \"p99\": " << util::json_number(h.p99) << "}";
  }
  out << (hists.empty() ? "" : "\n  ") << "}\n}\n";
  return out.str();
}

void MetricsSnapshot::write_json(const std::string& path) const {
  std::ofstream out(path);
  out << to_json();
  std::cout << "wrote " << path << "\n";
}

}  // namespace choreo::obs
