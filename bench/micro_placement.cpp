// §5 microbenchmarks (google-benchmark): the greedy algorithm scales to
// larger task counts and machine counts, while the Appendix ILP blows up —
// the paper's reason for preferring the greedy ("this ILP occasionally took
// a very long time to solve"). Also exercises the simplex and the fluid
// simulator so performance regressions in the substrates are visible.

#include <benchmark/benchmark.h>

#include "flowsim/sim.h"
#include "lp/simplex.h"
#include "measure/probe_scheduler.h"
#include "measure/view_cache.h"
#include "net/topology.h"
#include "oracles/exhaustive_greedy.h"
#include "place/greedy.h"
#include "place/ilp.h"
#include "serve/service.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace {

using namespace choreo;

place::ClusterView random_view(Rng& rng, std::size_t machines) {
  place::ClusterView view;
  view.rate_bps = DoubleMatrix(machines, machines, 0.0);
  for (std::size_t i = 0; i < machines; ++i) {
    for (std::size_t j = 0; j < machines; ++j) {
      if (i != j) view.rate_bps(i, j) = rng.uniform(3e8, 1.1e9);
    }
  }
  view.cross_traffic = DoubleMatrix(machines, machines, 0.0);
  view.cores.assign(machines, 4.0);
  view.colocation_group.resize(machines);
  for (std::size_t m = 0; m < machines; ++m) view.colocation_group[m] = static_cast<int>(m);
  return view;
}

/// A copy of `view` with about `percent`% of its pair rates re-drawn, and
/// with `cross` those pairs' cross-traffic estimates too: what a measurement
/// cycle that saw that share of the fleet move publishes.
place::ClusterView perturbed(const place::ClusterView& view, Rng& rng, std::int64_t percent,
                             bool cross) {
  place::ClusterView out = view;
  const std::size_t machines = view.machine_count();
  for (std::size_t i = 0; i < machines; ++i) {
    for (std::size_t j = 0; j < machines; ++j) {
      if (i != j && rng.chance(static_cast<double>(percent) / 100.0)) {
        out.rate_bps(i, j) = rng.uniform(3e8, 1.1e9);
        if (cross) out.cross_traffic(i, j) = rng.uniform(0.0, 3.0);
      }
    }
  }
  return out;
}

place::Application random_app(Rng& rng, std::size_t tasks) {
  workload::GeneratorConfig cfg;
  cfg.min_tasks = tasks;
  cfg.max_tasks = tasks;
  cfg.max_cpu = 1.5;
  return workload::generate_app(rng, cfg);
}

void BM_GreedyPlacement(benchmark::State& state) {
  Rng rng(42);
  const auto machines = static_cast<std::size_t>(state.range(0));
  const auto tasks = static_cast<std::size_t>(state.range(1));
  const place::ClusterView view = random_view(rng, machines);
  const place::Application app = random_app(rng, tasks);
  place::ClusterState cluster(view);
  place::GreedyPlacer greedy(place::RateModel::Hose);
  for (auto _ : state) {
    benchmark::DoNotOptimize(greedy.place(app, cluster));
  }
}
BENCHMARK(BM_GreedyPlacement)
    ->Args({10, 6})
    ->Args({10, 10})
    ->Args({20, 10})
    ->Args({40, 10})
    ->Args({40, 20})
    ->Args({200, 10})
    ->Args({500, 10});

// The pre-refactor Algorithm 1: full candidate scan with O(n) hose rate
// evaluations. Kept benchmarked next to the engine-backed placer so the
// gap (and any regression that erodes it) stays visible.
void BM_GreedyPlacementExhaustive(benchmark::State& state) {
  Rng rng(42);
  const auto machines = static_cast<std::size_t>(state.range(0));
  const auto tasks = static_cast<std::size_t>(state.range(1));
  const place::ClusterView view = random_view(rng, machines);
  const place::Application app = random_app(rng, tasks);
  place::ClusterState cluster(view);
  place::ExhaustiveGreedyPlacer greedy(place::RateModel::Hose);
  for (auto _ : state) {
    benchmark::DoNotOptimize(greedy.place(app, cluster));
  }
}
BENCHMARK(BM_GreedyPlacementExhaustive)->Args({40, 10})->Args({200, 10});

// One measurement cycle's placement-plane cost at scale: swapping a fresh
// view into an occupied state (static bounds rebuilt from the view,
// residuals kept). The second argument is the share of pairs (%) each new
// view changes; iterations alternate between two views that differ in
// exactly those pairs. The two views share the chunks of every row neither
// changed, and only the other rows are swept: at 0% none, while 1% of the
// pairs of a 500-VM view touches nearly every row. The third argument is 1
// when those pairs' cross traffic changes too: at 0 a swept row keeps its
// cross-traffic share and joins its rates alone, at 1 it joins both.
void BM_EngineUpdateView(benchmark::State& state) {
  Rng rng(42);
  const auto machines = static_cast<std::size_t>(state.range(0));
  const place::ClusterView view = random_view(rng, machines);
  const place::ClusterView views[2] = {
      view, perturbed(view, rng, state.range(1), state.range(2) != 0)};
  place::ClusterState cluster(view);
  place::GreedyPlacer greedy(place::RateModel::Hose);
  const place::Application app = random_app(rng, 10);
  cluster.commit(app, greedy.place(app, cluster));
  std::size_t i = 0;
  for (auto _ : state) {
    // The production path (Choreo::measure_network) moves a view in; keep
    // the copy (one handle per row chunk) outside the timer.
    state.PauseTiming();
    place::ClusterView fresh = views[++i % 2];
    state.ResumeTiming();
    cluster.update_view(std::move(fresh));
    benchmark::DoNotOptimize(cluster.free_cores(0));
  }
}
BENCHMARK(BM_EngineUpdateView)
    ->ArgNames({"vms", "changed_pct", "cross"})
    ->Args({50, 100, 0})
    ->Args({200, 100, 0})
    ->Args({500, 0, 0})
    ->Args({500, 1, 0})
    ->Args({500, 100, 0})
    ->Args({500, 1, 1})
    ->Args({500, 100, 1});

// Serving-plane arena costs: what a §2.4 hypothetical re-placement pays for
// a zero-occupancy scratch state...
void BM_EngineCloneUnoccupied(benchmark::State& state) {
  Rng rng(42);
  const auto machines = static_cast<std::size_t>(state.range(0));
  const place::ClusterView view = random_view(rng, machines);
  place::ClusterState cluster(view);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster.clone_unoccupied());
  }
}
BENCHMARK(BM_EngineCloneUnoccupied)->Arg(100)->Arg(500);

// ...and what a serving-plane Scratch refresh pays for a copy with the
// residual occupancy included (one per reader thread per published epoch).
// The view and static indexes are shared, and so are the per-path count
// rows until one side writes them, so this prices O(n): a row handle per
// machine plus two O(n) vectors.
void BM_EngineClone(benchmark::State& state) {
  Rng rng(42);
  const auto machines = static_cast<std::size_t>(state.range(0));
  const place::ClusterView view = random_view(rng, machines);
  place::ClusterState cluster(view);
  place::GreedyPlacer greedy(place::RateModel::Hose);
  const place::Application app = random_app(rng, 10);
  cluster.commit(app, greedy.place(app, cluster));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster.clone());
  }
}
BENCHMARK(BM_EngineClone)->Arg(100)->Arg(500);

// The serving plane's writer path: clone the current snapshot's state, swap
// the refreshed view in, publish the next epoch. Readers keep serving the
// old snapshot throughout; this is the full measurement-cycle cost they
// never wait on. The second argument is the share of pairs (%) each
// published view changes, as in BM_EngineUpdateView.
void BM_SnapshotPublish(benchmark::State& state) {
  Rng rng(42);
  const auto machines = static_cast<std::size_t>(state.range(0));
  const place::ClusterView view = random_view(rng, machines);
  const place::ClusterView views[2] = {view, perturbed(view, rng, state.range(1), false)};
  serve::PlacementService service(view, place::RateModel::Hose);
  std::size_t i = 0;
  for (auto _ : state) {
    state.PauseTiming();
    place::ClusterView fresh = views[++i % 2];  // the copy the producer hands in
    state.ResumeTiming();
    service.publish_view(std::move(fresh));
    benchmark::DoNotOptimize(service.epoch());
  }
}
BENCHMARK(BM_SnapshotPublish)
    ->ArgNames({"vms", "changed_pct"})
    ->Args({100, 100})
    ->Args({500, 0})
    ->Args({500, 1})
    ->Args({500, 100});

void BM_IlpPlacement(benchmark::State& state) {
  Rng rng(42);
  const auto machines = static_cast<std::size_t>(state.range(0));
  const auto tasks = static_cast<std::size_t>(state.range(1));
  const place::ClusterView view = random_view(rng, machines);
  const place::Application app = random_app(rng, tasks);
  place::ClusterState cluster(view);
  lp::IlpOptions opts;
  opts.max_nodes = 20000;
  place::IlpPlacer ilp(place::RateModel::Hose, opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ilp.place(app, cluster));
  }
}
BENCHMARK(BM_IlpPlacement)->Args({3, 4})->Args({4, 4})->Args({4, 5})->Unit(benchmark::kMillisecond);

void BM_BruteForcePlacement(benchmark::State& state) {
  Rng rng(42);
  const auto machines = static_cast<std::size_t>(state.range(0));
  const auto tasks = static_cast<std::size_t>(state.range(1));
  const place::ClusterView view = random_view(rng, machines);
  const place::Application app = random_app(rng, tasks);
  place::ClusterState cluster(view);
  place::BruteForcePlacer brute(place::RateModel::Hose);
  for (auto _ : state) {
    benchmark::DoNotOptimize(brute.place(app, cluster));
  }
}
BENCHMARK(BM_BruteForcePlacement)->Args({4, 5})->Args({5, 6})->Args({5, 7})
    ->Unit(benchmark::kMillisecond);

// §4.1 measurement-plane hot path: edge-coloring the full n(n-1) ordered
// pair set into conflict-free rounds. This runs on every full sweep and
// must stay cheap out to production fleet sizes.
void BM_ProbeScheduleFullMatrix(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto pairs = measure::all_ordered_pairs(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(measure::schedule_probes(n, pairs));
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(n));
}
BENCHMARK(BM_ProbeScheduleFullMatrix)->Arg(10)->Arg(50)->Arg(100)->Arg(200)->Complexity();

// Incremental refreshes schedule sparse subsets (the pairs a ViewCache
// flags), which is the common case in steady state.
void BM_ProbeScheduleSparseSubset(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(99);
  std::vector<measure::ProbePair> pairs;
  for (const measure::ProbePair& p : measure::all_ordered_pairs(n)) {
    if (rng.chance(0.05)) pairs.push_back(p);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(measure::schedule_probes(n, pairs));
  }
}
BENCHMARK(BM_ProbeScheduleSparseSubset)->Arg(50)->Arg(200);

// Refresh planning walks the whole cache each cycle; it must stay trivially
// cheap next to the probes it saves.
void BM_ViewCachePlanRefresh(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  measure::ViewCache cache(n);
  Rng rng(7);
  for (const measure::ProbePair& p : measure::all_ordered_pairs(n)) {
    cache.store(p.src, p.dst, rng.uniform(3e8, 1.1e9),
                static_cast<std::uint64_t>(rng.uniform_int(1, 20)));
  }
  measure::RefreshPolicy policy;
  policy.max_age_epochs = 10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.plan_refresh(21, policy));
  }
}
BENCHMARK(BM_ViewCachePlanRefresh)->Arg(50)->Arg(200);

void BM_SimplexSolve(benchmark::State& state) {
  Rng rng(7);
  const auto vars = static_cast<std::size_t>(state.range(0));
  lp::Model model;
  for (std::size_t i = 0; i < vars; ++i) model.add_variable(rng.uniform(-5, 5), 0.0, 10.0);
  for (std::size_t r = 0; r < vars; ++r) {
    std::vector<lp::Term> terms;
    for (std::size_t i = 0; i < vars; ++i) terms.push_back({i, rng.uniform(0.0, 3.0)});
    model.add_constraint(std::move(terms), lp::Sense::LessEq, rng.uniform(10.0, 50.0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(lp::solve_lp(model));
  }
}
BENCHMARK(BM_SimplexSolve)->Arg(10)->Arg(30)->Arg(60);

void BM_FluidSimTenFlows(benchmark::State& state) {
  net::TreeParams params;
  params.pods = 2;
  params.racks_per_pod = 2;
  params.hosts_per_rack = 4;
  const net::Topology topo = make_multi_rooted_tree(params);
  const auto hosts = topo.nodes_of_kind(net::NodeKind::Host);
  for (auto _ : state) {
    const net::Router router(topo);
    flowsim::Sim sim(router);
    for (std::size_t f = 0; f < 10; ++f) {
      flowsim::FlowSpec spec;
      spec.src = hosts[f % hosts.size()];
      spec.dst = hosts[(f + 5) % hosts.size()];
      spec.bytes = 1e8;
      spec.flow_key = f;
      sim.add_flow(spec);
    }
    sim.run_to_completion();
    benchmark::DoNotOptimize(sim.makespan());
  }
}
BENCHMARK(BM_FluidSimTenFlows)->Unit(benchmark::kMillisecond);

}  // namespace
