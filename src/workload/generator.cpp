#include "workload/generator.h"

#include <algorithm>
#include <cmath>

#include "util/require.h"

namespace choreo::workload {
namespace {

/// Sigma of the log-normal transfer-size draw (log-space spread).
constexpr double kSizeSigma = 1.0;

double draw_cpu(Rng& rng, const GeneratorConfig& cfg) {
  const double raw = rng.uniform(cfg.min_cpu, cfg.max_cpu);
  // Round to half-cores, as instance sizing usually is.
  return std::max(cfg.min_cpu, std::round(raw * 2.0) / 2.0);
}

double draw_bytes(Rng& rng, const GeneratorConfig& cfg) {
  return rng.lognormal(std::log(cfg.median_transfer_bytes), kSizeSigma);
}

std::size_t draw_tasks(Rng& rng, const GeneratorConfig& cfg) {
  return static_cast<std::size_t>(
      rng.uniform_int(static_cast<std::int64_t>(cfg.min_tasks),
                      static_cast<std::int64_t>(cfg.max_tasks)));
}

place::Application make_shell(Rng& rng, const GeneratorConfig& cfg, std::size_t tasks,
                              const char* name) {
  place::Application app;
  app.name = name;
  app.cpu_demand.reserve(tasks);
  for (std::size_t t = 0; t < tasks; ++t) app.cpu_demand.push_back(draw_cpu(rng, cfg));
  app.traffic_bytes = DoubleMatrix(tasks, tasks, 0.0);
  return app;
}

place::Application gen_mapreduce(Rng& rng, const GeneratorConfig& cfg) {
  const std::size_t tasks = std::max<std::size_t>(4, draw_tasks(rng, cfg));
  place::Application app = make_shell(rng, cfg, tasks, "mapreduce");
  // Split into maps and reducers (at least one of each, maps >= reducers).
  const std::size_t reducers = std::max<std::size_t>(
      1, static_cast<std::size_t>(rng.uniform_int(1, static_cast<std::int64_t>(tasks / 2))));
  const std::size_t maps = tasks - reducers;
  const double skew = rng.uniform(0.0, cfg.max_shuffle_skew);
  // Per-map output, partitioned over reducers with optional skew: reducer r
  // receives a share proportional to (1-skew) + skew * w_r.
  std::vector<double> reducer_weight(reducers);
  double wsum = 0.0;
  for (double& w : reducer_weight) {
    w = rng.pareto(1.5, 1.0);
    wsum += w;
  }
  for (std::size_t m = 0; m < maps; ++m) {
    const double output = draw_bytes(rng, cfg);
    for (std::size_t r = 0; r < reducers; ++r) {
      const double uniform_share = 1.0 / static_cast<double>(reducers);
      const double skewed_share = reducer_weight[r] / wsum;
      const double share = (1.0 - skew) * uniform_share + skew * skewed_share;
      app.traffic_bytes(m, maps + r) = output * share;
    }
  }
  return app;
}

place::Application gen_scatter_gather(Rng& rng, const GeneratorConfig& cfg) {
  const std::size_t tasks = std::max<std::size_t>(3, draw_tasks(rng, cfg));
  place::Application app = make_shell(rng, cfg, tasks, "scatter-gather");
  const std::size_t workers = tasks - 1;  // task 0 coordinates
  const bool heavy_gather = rng.chance(0.7);
  for (std::size_t w = 1; w <= workers; ++w) {
    const double request = draw_bytes(rng, cfg) * (heavy_gather ? 0.05 : 1.0);
    const double reply = draw_bytes(rng, cfg) * (heavy_gather ? 1.0 : 0.05);
    app.traffic_bytes(0, w) = request;
    app.traffic_bytes(w, 0) = reply;
  }
  return app;
}

place::Application gen_pipeline(Rng& rng, const GeneratorConfig& cfg) {
  const std::size_t tasks = std::max<std::size_t>(3, draw_tasks(rng, cfg));
  place::Application app = make_shell(rng, cfg, tasks, "pipeline");
  for (std::size_t t = 0; t + 1 < tasks; ++t) {
    app.traffic_bytes(t, t + 1) = draw_bytes(rng, cfg);
  }
  return app;
}

place::Application gen_star(Rng& rng, const GeneratorConfig& cfg) {
  const std::size_t tasks = std::max<std::size_t>(3, draw_tasks(rng, cfg));
  place::Application app = make_shell(rng, cfg, tasks, "star");
  for (std::size_t s = 1; s < tasks; ++s) {
    app.traffic_bytes(0, s) = draw_bytes(rng, cfg);
    if (rng.chance(0.5)) app.traffic_bytes(s, 0) = draw_bytes(rng, cfg) * 0.3;
  }
  return app;
}

place::Application gen_uniform(Rng& rng, const GeneratorConfig& cfg) {
  const std::size_t tasks = std::max<std::size_t>(3, draw_tasks(rng, cfg));
  place::Application app = make_shell(rng, cfg, tasks, "uniform");
  // All pairs exchange nearly the same amount: little for Choreo to exploit.
  const double base = draw_bytes(rng, cfg) / static_cast<double>(tasks);
  for (std::size_t i = 0; i < tasks; ++i) {
    for (std::size_t j = 0; j < tasks; ++j) {
      if (i == j) continue;
      app.traffic_bytes(i, j) = base * rng.uniform(0.9, 1.1);
    }
  }
  return app;
}

}  // namespace

const char* to_string(Pattern p) {
  switch (p) {
    case Pattern::MapReduce: return "mapreduce";
    case Pattern::ScatterGather: return "scatter-gather";
    case Pattern::Pipeline: return "pipeline";
    case Pattern::Star: return "star";
    case Pattern::Uniform: return "uniform";
  }
  return "?";
}

place::Application generate_app(Rng& rng, Pattern pattern, const GeneratorConfig& cfg) {
  CHOREO_REQUIRE(cfg.min_tasks >= 3 && cfg.min_tasks <= cfg.max_tasks);
  CHOREO_REQUIRE(cfg.median_transfer_bytes > 0.0);
  CHOREO_REQUIRE(cfg.min_cpu > 0.0 && cfg.min_cpu <= cfg.max_cpu);
  place::Application app;
  switch (pattern) {
    case Pattern::MapReduce: app = gen_mapreduce(rng, cfg); break;
    case Pattern::ScatterGather: app = gen_scatter_gather(rng, cfg); break;
    case Pattern::Pipeline: app = gen_pipeline(rng, cfg); break;
    case Pattern::Star: app = gen_star(rng, cfg); break;
    case Pattern::Uniform: app = gen_uniform(rng, cfg); break;
  }
  app.validate();
  return app;
}

place::Application generate_app(Rng& rng, const GeneratorConfig& cfg) {
  CHOREO_REQUIRE(cfg.pattern_weights.size() == 5);
  const auto pick = static_cast<Pattern>(rng.weighted_index(cfg.pattern_weights));
  return generate_app(rng, pick, cfg);
}

}  // namespace choreo::workload
