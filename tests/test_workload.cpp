#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "workload/generator.h"
#include "workload/stream.h"
#include "workload/trace.h"

namespace choreo::workload {
namespace {

TEST(Generator, AllPatternsProduceValidApps) {
  Rng rng(1);
  GeneratorConfig cfg;
  for (Pattern p : {Pattern::MapReduce, Pattern::ScatterGather, Pattern::Pipeline,
                    Pattern::Star, Pattern::Uniform}) {
    for (int i = 0; i < 10; ++i) {
      const place::Application app = generate_app(rng, p, cfg);
      app.validate();
      EXPECT_GE(app.task_count(), 3u);
      EXPECT_LE(app.task_count(), cfg.max_tasks);
      EXPECT_GT(app.traffic_bytes.total(), 0.0);
      for (double c : app.cpu_demand) {
        EXPECT_GE(c, cfg.min_cpu);
        EXPECT_LE(c, cfg.max_cpu);
      }
    }
  }
}

TEST(Generator, MapReduceIsBipartite) {
  Rng rng(2);
  GeneratorConfig cfg;
  const place::Application app = generate_app(rng, Pattern::MapReduce, cfg);
  // Some split point: tasks before it only send, tasks after only receive.
  for (std::size_t i = 0; i < app.task_count(); ++i) {
    const bool sends = app.traffic_bytes.row_sum(i) > 0.0;
    const bool receives = app.traffic_bytes.col_sum(i) > 0.0;
    EXPECT_TRUE(sends != receives) << "task " << i << " both sends and receives";
  }
}

TEST(Generator, UniformPatternHasLowVariance) {
  Rng rng(3);
  GeneratorConfig cfg;
  const place::Application app = generate_app(rng, Pattern::Uniform, cfg);
  double lo = 1e300, hi = 0.0;
  for (std::size_t i = 0; i < app.task_count(); ++i) {
    for (std::size_t j = 0; j < app.task_count(); ++j) {
      if (i == j) continue;
      lo = std::min(lo, app.traffic_bytes(i, j));
      hi = std::max(hi, app.traffic_bytes(i, j));
    }
  }
  EXPECT_LT(hi / lo, 1.5);  // the §7.1 "relatively uniform" case
}

TEST(Generator, PipelineIsAChain) {
  Rng rng(4);
  const place::Application app = generate_app(rng, Pattern::Pipeline, GeneratorConfig{});
  std::size_t transfers = 0;
  for (std::size_t i = 0; i < app.task_count(); ++i) {
    for (std::size_t j = 0; j < app.task_count(); ++j) {
      if (app.traffic_bytes(i, j) > 0.0) {
        ++transfers;
        EXPECT_EQ(j, i + 1);
      }
    }
  }
  EXPECT_EQ(transfers, app.task_count() - 1);
}

TEST(Generator, WeightedMixIsDeterministicPerSeed) {
  Rng a(5), b(5);
  const auto app1 = generate_app(a, GeneratorConfig{});
  const auto app2 = generate_app(b, GeneratorConfig{});
  EXPECT_EQ(app1.name, app2.name);
  EXPECT_TRUE(app1.traffic_bytes == app2.traffic_bytes);
}

TEST(Trace, GeneratesThreeWeeksOfApps) {
  TraceConfig cfg;
  cfg.apps_per_day = 24.0;
  const HpCloudTrace trace(7, cfg);
  EXPECT_GT(trace.apps().size(), 200u);  // ~500 expected over 21 days
  double last = -1.0;
  for (const TraceApp& a : trace.apps()) {
    EXPECT_GT(a.start_s, last);  // strictly ordered arrivals
    last = a.start_s;
    EXPECT_LE(a.start_s, cfg.duration_hours * 3600.0);
  }
}

TEST(Trace, SampleBatchZeroesArrivals) {
  const HpCloudTrace trace(7, TraceConfig{});
  Rng rng(9);
  const auto batch = trace.sample_batch(rng, 3);
  ASSERT_EQ(batch.size(), 3u);
  for (const auto& app : batch) EXPECT_DOUBLE_EQ(app.arrival_s, 0.0);
}

TEST(Trace, SampleSequencePreservesOrderAndRescalesGaps) {
  const HpCloudTrace trace(7, TraceConfig{});
  Rng rng(9);
  const auto seq = trace.sample_sequence(rng, 4, /*mean_gap_s=*/60.0);
  ASSERT_EQ(seq.size(), 4u);
  EXPECT_DOUBLE_EQ(seq[0].arrival_s, 0.0);
  double total_gap = 0.0;
  for (std::size_t i = 1; i < seq.size(); ++i) {
    EXPECT_GE(seq[i].arrival_s, seq[i - 1].arrival_s);
    total_gap += seq[i].arrival_s - seq[i - 1].arrival_s;
  }
  EXPECT_NEAR(total_gap / 3.0, 60.0, 1e-6);
}

TEST(Predictors, GoodOnDiurnalSeries) {
  // Build a synthetic series matching the generator's model and confirm the
  // §2.1 claim: prev-hour and time-of-day predict the next hour well.
  TraceConfig cfg;
  const HpCloudTrace trace(11, cfg);
  // Find an app with a long series.
  const TraceApp* chosen = nullptr;
  for (const TraceApp& a : trace.apps()) {
    if (a.hourly_bytes.size() > 24 * 7) {
      chosen = &a;
      break;
    }
  }
  ASSERT_NE(chosen, nullptr);
  const PredictorScore prev = score_prev_hour(chosen->hourly_bytes);
  const PredictorScore tod = score_time_of_day(chosen->hourly_bytes);
  const PredictorScore blend = score_blend(chosen->hourly_bytes);
  EXPECT_GT(prev.samples, 100u);
  // "Good predictors": well under a factor of two.
  EXPECT_LT(prev.mean_rel_error, 0.5);
  EXPECT_LT(tod.mean_rel_error, 0.8);
  EXPECT_LT(blend.mean_rel_error, 0.5);
}

TEST(Predictors, PrevHourExactOnConstantSeries) {
  const std::vector<double> flat(50, 42.0);
  EXPECT_DOUBLE_EQ(score_prev_hour(flat).mean_rel_error, 0.0);
  EXPECT_DOUBLE_EQ(score_time_of_day(flat, 10).mean_rel_error, 0.0);
  EXPECT_DOUBLE_EQ(score_blend(flat, 10).mean_rel_error, 0.0);
}

TEST(Predictors, EmptySeries) {
  EXPECT_EQ(score_prev_hour({}).samples, 0u);
  EXPECT_EQ(score_time_of_day({}).samples, 0u);
}

// ---- arrival streams (workload/stream.h) ----------------------------------

TEST(Streams, VectorStreamYieldsAllInOrder) {
  Rng rng(3);
  GeneratorConfig cfg;
  std::vector<place::Application> apps;
  for (int i = 0; i < 4; ++i) {
    apps.push_back(generate_app(rng, cfg));
    apps.back().arrival_s = 10.0 * i;
  }
  VectorArrivalStream stream(apps);
  for (int i = 0; i < 4; ++i) {
    const auto app = stream.next();
    ASSERT_TRUE(app.has_value());
    EXPECT_EQ(app->name, apps[static_cast<std::size_t>(i)].name);
    EXPECT_DOUBLE_EQ(app->arrival_s, 10.0 * i);
  }
  EXPECT_FALSE(stream.next().has_value());
}

TEST(Streams, TraceStreamMatchesTraceStatistics) {
  // Monotone arrivals inside the horizon, valid apps, and a Poisson count
  // within a loose band of apps_per_day * days.
  TraceConfig cfg;
  cfg.duration_hours = 7.0 * 24.0;
  cfg.apps_per_day = 24.0;
  TraceArrivalStream stream(99, cfg);
  double last = 0.0;
  std::size_t count = 0;
  while (const auto app = stream.next()) {
    app->validate();
    EXPECT_GE(app->arrival_s, last);
    EXPECT_LT(app->arrival_s, cfg.duration_hours * 3600.0);
    last = app->arrival_s;
    ++count;
  }
  EXPECT_EQ(count, stream.emitted());
  const double expected = cfg.apps_per_day * 7.0;
  EXPECT_GT(static_cast<double>(count), expected * 0.6);
  EXPECT_LT(static_cast<double>(count), expected * 1.4);

  // Same seed => identical stream (arrival-by-arrival).
  TraceArrivalStream a(123, cfg), b(123, cfg);
  for (int i = 0; i < 20; ++i) {
    const auto x = a.next();
    const auto y = b.next();
    ASSERT_EQ(x.has_value(), y.has_value());
    if (!x) break;
    EXPECT_EQ(x->arrival_s, y->arrival_s);
    EXPECT_EQ(x->name, y->name);
    EXPECT_EQ(x->cpu_demand, y->cpu_demand);
  }
}

TEST(Streams, GeneratorStreamHonorsCaps) {
  GeneratorArrivalStream::Config cfg;
  cfg.mean_gap_s = 30.0;
  cfg.max_apps = 25;
  GeneratorArrivalStream stream(7, cfg);
  double last = 0.0;
  std::size_t count = 0;
  while (const auto app = stream.next()) {
    app->validate();
    EXPECT_GE(app->arrival_s, last);
    last = app->arrival_s;
    ++count;
  }
  EXPECT_EQ(count, 25u);

  GeneratorArrivalStream::Config bounded = cfg;
  bounded.max_apps = 0;
  bounded.duration_s = 600.0;
  GeneratorArrivalStream stream2(7, bounded);
  while (const auto app = stream2.next()) EXPECT_LT(app->arrival_s, 600.0);
}

TEST(Streams, MmppModulatorIsBurstierThanPoisson) {
  // Payloads come from the inner stream; timing is replaced by a two-state
  // MMPP whose rate contrast makes inter-arrival gaps over-dispersed
  // relative to a plain Poisson process (coefficient of variation > 1).
  GeneratorArrivalStream::Config inner_cfg;
  inner_cfg.mean_gap_s = 30.0;
  inner_cfg.max_apps = 4000;
  GeneratorArrivalStream inner(21, inner_cfg);
  MmppArrivalStream::Config mmpp;
  mmpp.rate_per_s = {1.0 / 120.0, 1.0 / 5.0};
  mmpp.mean_sojourn_s = {1200.0, 300.0};
  MmppArrivalStream stream(inner, 22, mmpp);

  std::vector<double> gaps;
  double last = 0.0;
  while (const auto app = stream.next()) {
    EXPECT_GE(app->arrival_s, last);
    gaps.push_back(app->arrival_s - last);
    last = app->arrival_s;
  }
  ASSERT_GT(gaps.size(), 500u);
  double sum = 0.0;
  for (double g : gaps) sum += g;
  const double mean_gap = sum / static_cast<double>(gaps.size());
  double var = 0.0;
  for (double g : gaps) var += (g - mean_gap) * (g - mean_gap);
  var /= static_cast<double>(gaps.size());
  const double cv = std::sqrt(var) / mean_gap;
  EXPECT_GT(cv, 1.1);

  // Determinism: same seeds => same arrival instants.
  GeneratorArrivalStream inner2(21, inner_cfg);
  MmppArrivalStream stream2(inner2, 22, mmpp);
  GeneratorArrivalStream inner3(21, inner_cfg);
  MmppArrivalStream stream3(inner3, 22, mmpp);
  for (int i = 0; i < 50; ++i) {
    const auto x = stream2.next();
    const auto y = stream3.next();
    ASSERT_EQ(x.has_value(), y.has_value());
    if (!x) break;
    EXPECT_EQ(x->arrival_s, y->arrival_s);
  }
}

}  // namespace
}  // namespace choreo::workload
