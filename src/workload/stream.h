#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "place/app.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/trace.h"

namespace choreo::workload {

/// Pull-based source of applications ordered by arrival time — how workloads
/// reach the discrete-event session runtime. next() yields applications with
/// non-decreasing `arrival_s` until the stream is exhausted; the runtime
/// holds at most one look-ahead application, so a three-week trace streams
/// through a session in O(1) memory instead of being materialized into a
/// vector up front.
class ArrivalStream {
 public:
  virtual ~ArrivalStream() = default;

  /// The next application (with `arrival_s` set), or nullopt when the
  /// stream is exhausted. Implementations must yield non-decreasing arrival
  /// times.
  virtual std::optional<place::Application> next() = 0;
};

/// Adapter for a pre-materialized workload vector (sorted by arrival time).
/// Non-owning: the vector must outlive the stream.
class VectorArrivalStream final : public ArrivalStream {
 public:
  explicit VectorArrivalStream(const std::vector<place::Application>& apps)
      : apps_(&apps) {}

  std::optional<place::Application> next() override;

 private:
  const std::vector<place::Application>* apps_;
  std::size_t pos_ = 0;
};

/// Streaming equivalent of `HpCloudTrace`'s arrival process: a diurnally
/// modulated Poisson process (thinning) over `generate_app` draws, produced
/// one application at a time. Unlike HpCloudTrace it never materializes the
/// trace (and skips the hourly byte series the predictability analysis
/// needs), so week- or month-long sessions stream at constant memory.
class TraceArrivalStream final : public ArrivalStream {
 public:
  TraceArrivalStream(std::uint64_t seed, TraceConfig config);

  std::optional<place::Application> next() override;

  /// Applications emitted so far.
  std::uint64_t emitted() const { return emitted_; }

 private:
  TraceConfig config_;
  Rng rng_;
  double t_hours_ = 0.0;
  std::uint64_t emitted_ = 0;
};

/// Homogeneous Poisson arrivals over `generate_app` draws: the simplest
/// open-loop workload for scale sweeps.
class GeneratorArrivalStream final : public ArrivalStream {
 public:
  struct Config {
    GeneratorConfig gen;
    /// Mean inter-arrival gap (exponential), seconds.
    double mean_gap_s = 60.0;
    /// Stream ends once an arrival would land past this horizon (0 = no
    /// horizon).
    double duration_s = 0.0;
    /// Stream ends after this many applications (0 = unbounded).
    std::uint64_t max_apps = 0;
  };

  GeneratorArrivalStream(std::uint64_t seed, Config config);

  std::optional<place::Application> next() override;

 private:
  Config config_;
  Rng rng_;
  double t_s_ = 0.0;
  std::uint64_t emitted_ = 0;
};

/// Burstiness modulator: wraps any stream, keeps its applications, and
/// replaces the arrival process with a Markov-modulated Poisson process
/// (MMPP) — states cycle round-robin, each with its own arrival rate and
/// exponential sojourn time, so a calm trace becomes calm/bursty episodes
/// without touching the payloads. Non-owning: `inner` must outlive the
/// modulator.
class MmppArrivalStream final : public ArrivalStream {
 public:
  struct Config {
    /// Arrival rate per state (arrivals/second). Defaults: a calm state and
    /// a 6x burst state.
    std::vector<double> rate_per_s{1.0 / 60.0, 1.0 / 10.0};
    /// Mean sojourn time per state, seconds (exponential).
    std::vector<double> mean_sojourn_s{1800.0, 300.0};
    /// Stream ends once an arrival would land past this horizon (0 = rely on
    /// the inner stream's end).
    double duration_s = 0.0;
  };

  MmppArrivalStream(ArrivalStream& inner, std::uint64_t seed, Config config);

  std::optional<place::Application> next() override;

  /// The state the modulator is currently in (for tests / introspection).
  std::size_t state() const { return state_; }

 private:
  ArrivalStream* inner_;
  Config config_;
  Rng rng_;
  double t_s_ = 0.0;
  std::size_t state_ = 0;
  double sojourn_left_s_ = 0.0;
};

}  // namespace choreo::workload
