#pragma once

#include <cstdint>

#include "place/app.h"
#include "util/rng.h"

namespace choreo::workload {

/// Communication patterns of the applications in the HP Cloud dataset class
/// the paper evaluates on: "Hadoop jobs, analytic database workloads,
/// storage/backup services, and scientific or numerical computations" (§1).
enum class Pattern {
  MapReduce,      ///< maps shuffle to reducers; skew configurable
  ScatterGather,  ///< coordinator fans out requests, gathers (large) replies
  Pipeline,       ///< linear chain of stages
  Star,           ///< one hub exchanges heavy traffic with every spoke
  Uniform,        ///< all-to-all with near-equal sizes (the §7.1 "relatively
                  ///< uniform bandwidth usage" case Choreo cannot help much)
};

const char* to_string(Pattern p);

struct GeneratorConfig {
  /// Pattern mix, indexed by Pattern order.
  std::vector<double> pattern_weights{0.35, 0.20, 0.15, 0.15, 0.15};
  std::size_t min_tasks = 4;
  std::size_t max_tasks = 10;
  /// Log-normal transfer sizes: exp(N(log(median_bytes), sigma)), with
  /// sigma fixed in generator.cpp.
  double median_transfer_bytes = 600e6;
  /// Per-task CPU demand, uniform in [min_cpu, max_cpu] rounded to halves
  /// (§6.1: "between 0.5 and four CPU cores").
  double min_cpu = 0.5;
  double max_cpu = 4.0;
  /// MapReduce shuffle skew: 0 = perfectly uniform shuffle, 1 = heavily
  /// skewed. Drawn uniformly in [0, this] per app.
  double max_shuffle_skew = 1.0;
};

/// Draws one application with a random pattern.
place::Application generate_app(Rng& rng, const GeneratorConfig& config);

/// Draws one application with the given pattern.
place::Application generate_app(Rng& rng, Pattern pattern, const GeneratorConfig& config);

}  // namespace choreo::workload
