#pragma once

// Metrics half of the observability plane: a Registry of named counters,
// gauges, and log-bucketed histograms with shard-local accumulation.
//
// Determinism contract: counter adds and histogram bucket increments are
// unsigned-integer additions — commutative and associative — so the merged
// totals in a snapshot are bit-identical for every thread count and every
// interleaving, as long as the *set* of recorded events is deterministic
// (which the deterministic planes pin separately). Gauges are last-write
// and wall-clock-derived metrics are inherently nondeterministic; by
// convention their names carry "wall", and determinism comparisons skip
// them (see docs/ARCHITECTURE.md).
//
// Hot-path cost: one relaxed fetch_add on a pre-resolved slot pointer.
// Components resolve handles (Counter/Gauge/Hist) once at set_observer
// time; a default-constructed handle is a no-op, which is the runtime-off
// branch. Registration is the cold path (mutex + allocation); recording
// never allocates.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace choreo::obs {

class Registry;

namespace detail {
/// Bit-casts between double and the uint64 atomics store (gauges, and the
/// histogram min/max CAS slots).
std::uint64_t pack_double(double v);
double unpack_double(std::uint64_t bits);
}  // namespace detail

/// Handle to a sharded counter. Default-constructed handles drop adds on
/// the floor — instrument unconditionally, attach a registry optionally.
class Counter {
 public:
  Counter() = default;
  void add(std::uint64_t delta, std::uint32_t shard = 0) const {
    if (slots_) slots_[shard].fetch_add(delta, std::memory_order_relaxed);
  }
  void inc(std::uint32_t shard = 0) const { add(1, shard); }
  explicit operator bool() const { return slots_ != nullptr; }

 private:
  friend class Registry;
  explicit Counter(std::atomic<std::uint64_t>* slots) : slots_(slots) {}
  std::atomic<std::uint64_t>* slots_ = nullptr;  // one slot per shard
};

/// Handle to a gauge (last write wins; one global slot, not sharded —
/// gauges are excluded from the cross-thread determinism contract).
class Gauge {
 public:
  Gauge() = default;
  void set(double value) const {
    if (slot_) slot_->store(detail::pack_double(value), std::memory_order_relaxed);
  }
  explicit operator bool() const { return slot_ != nullptr; }

 private:
  friend class Registry;
  explicit Gauge(std::atomic<std::uint64_t>* slot) : slot_(slot) {}
  std::atomic<std::uint64_t>* slot_ = nullptr;
};

/// Log-bucketed histogram handle. Buckets are power-of-two octaves split
/// into kSubBuckets linear sub-buckets (worst-case relative bucket width
/// 1/kSubBuckets), so p50/p90/p99 extraction lands within one bucket of the
/// exact sorted-sample quantile. Bucket counts are integer adds (merge is
/// deterministic); min/max are maintained by CAS on the packed double
/// (max/min are commutative, so they are deterministic too). There is no
/// floating-point sum — FP addition does not commute bit-for-bit.
class Hist {
 public:
  static constexpr int kSubBuckets = 8;
  static constexpr int kMinExp = -64;  // frexp exponent clamp (~5e-20)
  static constexpr int kMaxExp = 63;   //                      (~9e18)
  static constexpr std::size_t kBuckets =
      1 + static_cast<std::size_t>(kMaxExp - kMinExp + 1) * kSubBuckets;

  Hist() = default;
  void observe(double value, std::uint32_t shard = 0) const;
  explicit operator bool() const { return base_ != nullptr; }

  /// Bucket index for a value: 0 is the v <= 0 underflow bucket.
  static std::size_t bucket_of(double value);
  /// Representative value (bucket midpoint) and width of a bucket.
  static double bucket_mid(std::size_t bucket);
  static double bucket_width(std::size_t bucket);

 private:
  friend class Registry;
  Hist(std::atomic<std::uint64_t>* base, std::atomic<std::uint64_t>* minmax)
      : base_(base), minmax_(minmax) {}
  // Per shard: kBuckets counts at base_[shard * kBuckets + b].
  std::atomic<std::uint64_t>* base_ = nullptr;
  // Two global slots: packed min at [0], packed max at [1].
  std::atomic<std::uint64_t>* minmax_ = nullptr;
};

/// One merged, immutable view of a Registry, suitable for comparison across
/// runs and for JSON export. Metrics are sorted by name, so the document is
/// independent of registration order.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    double value = 0.0;
  };
  struct HistValue {
    std::string name;
    std::uint64_t count = 0;
    double min = 0.0;  ///< exact extremes (CAS-maintained, deterministic)
    double max = 0.0;
    double p50 = 0.0;  ///< bucket midpoints — within one bucket of exact
    double p90 = 0.0;
    double p99 = 0.0;
  };

  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistValue> hists;

  /// Serializes via util/json.h — the same escaping rules as BenchJson, so
  /// the strict parser in the test suite and check_bench_json.py both read
  /// it. Shape: {"kind":"choreo_metrics","counters":{...},"gauges":{...},
  /// "histograms":{name:{count,min,max,p50,p90,p99},...}}.
  std::string to_json() const;
  void write_json(const std::string& path) const;

  const CounterValue* find_counter(const std::string& name) const;
  const HistValue* find_hist(const std::string& name) const;
};

/// The metric store. Thread-safety: registration takes a mutex and may
/// allocate; recording through handles is lock-free, allocation-free, and
/// safe from any thread. Registering the same name twice returns the same
/// storage (and requires the same kind). `shards` is fixed at construction;
/// handle methods take the shard index so one handle serves every shard.
class Registry {
 public:
  explicit Registry(std::uint32_t shards = 1);
  ~Registry();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter counter(const std::string& name);
  Gauge gauge(const std::string& name);
  Hist histogram(const std::string& name);

  std::uint32_t shards() const { return shards_; }

  /// Merges every shard (in index order) into one snapshot. Do not call
  /// concurrently with recording if bit-stable output matters — totals read
  /// mid-update are merely torn in time, never corrupted.
  MetricsSnapshot snapshot() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::uint32_t shards_;
};

}  // namespace choreo::obs
