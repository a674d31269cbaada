#include "workload/stream.h"

#include <string>

#include "util/require.h"

namespace choreo::workload {

std::optional<place::Application> VectorArrivalStream::next() {
  if (pos_ >= apps_->size()) return std::nullopt;
  return (*apps_)[pos_++];
}

TraceArrivalStream::TraceArrivalStream(std::uint64_t seed, TraceConfig config)
    : config_(std::move(config)), rng_(seed) {
  CHOREO_REQUIRE(config_.duration_hours > 0.0);
  CHOREO_REQUIRE(config_.apps_per_day > 0.0);
}

std::optional<place::Application> TraceArrivalStream::next() {
  // The same arrival process HpCloudTrace materializes, advanced one
  // accepted arrival at a time.
  if (!advance_to_next_arrival(rng_, config_, t_hours_)) return std::nullopt;
  place::Application app = generate_app(rng_, config_.gen);
  // Two appends: GCC 12's -O3 -Wrestrict false-positives on the
  // operator+(const char*, string) temporary here.
  app.name += '-';
  app.name += std::to_string(emitted_++);
  app.arrival_s = t_hours_ * 3600.0;
  return app;
}

GeneratorArrivalStream::GeneratorArrivalStream(std::uint64_t seed, Config config)
    : config_(std::move(config)), rng_(seed) {
  CHOREO_REQUIRE(config_.mean_gap_s > 0.0);
}

std::optional<place::Application> GeneratorArrivalStream::next() {
  if (config_.max_apps > 0 && emitted_ >= config_.max_apps) return std::nullopt;
  t_s_ += rng_.exponential(config_.mean_gap_s);
  if (config_.duration_s > 0.0 && t_s_ >= config_.duration_s) return std::nullopt;
  place::Application app = generate_app(rng_, config_.gen);
  app.name += '-';
  app.name += std::to_string(emitted_++);
  app.arrival_s = t_s_;
  return app;
}

MmppArrivalStream::MmppArrivalStream(ArrivalStream& inner, std::uint64_t seed,
                                     Config config)
    : inner_(&inner), config_(std::move(config)), rng_(seed) {
  CHOREO_REQUIRE(!config_.rate_per_s.empty());
  CHOREO_REQUIRE(config_.rate_per_s.size() == config_.mean_sojourn_s.size());
  for (double r : config_.rate_per_s) CHOREO_REQUIRE(r > 0.0);
  for (double s : config_.mean_sojourn_s) CHOREO_REQUIRE(s > 0.0);
  sojourn_left_s_ = rng_.exponential(config_.mean_sojourn_s[state_]);
}

std::optional<place::Application> MmppArrivalStream::next() {
  // Race the next arrival of the current state's Poisson process against the
  // remaining sojourn; on sojourn expiry, rotate to the next state. The
  // exponential's memorylessness makes redrawing the arrival gap after a
  // state switch exact.
  while (true) {
    const double gap = rng_.exponential(1.0 / config_.rate_per_s[state_]);
    if (gap < sojourn_left_s_) {
      t_s_ += gap;
      sojourn_left_s_ -= gap;
      break;
    }
    t_s_ += sojourn_left_s_;
    state_ = (state_ + 1) % config_.rate_per_s.size();
    sojourn_left_s_ = rng_.exponential(config_.mean_sojourn_s[state_]);
  }
  if (config_.duration_s > 0.0 && t_s_ >= config_.duration_s) return std::nullopt;
  std::optional<place::Application> app = inner_->next();
  if (!app) return std::nullopt;
  app->arrival_s = t_s_;
  return app;
}

}  // namespace choreo::workload
