// Serving-plane QPS / tail latency: the epoch-swapped PlacementService under
// concurrent readers with paced background view churn, plus the batched
// joint planner vs the one-at-a-time greedy.
//
// Claims enforced:
//   1. Correctness under churn: every query returns a complete placement and
//      a snapshot epoch that existed; per-thread scratch arenas refresh at
//      most once per published epoch.
//   2. Read scaling: with >= 8 hardware threads, 4 reader threads sustain
//      >= 3x the placements/sec of 1 thread at 100 VMs (readers hold the
//      snapshot mutex only to copy its pointer, and place outside it; the
//      only shared write is that pointer's swap). On smaller hosts the
//      largest swept reader count the host has threads for is gated at
//      0.375x per reader (1.5x at 4 readers). Each 100-VM point is the
//      median-QPS run of five. Skipped on a one-thread host and in --smoke
//      (CI runners shard cores).
//   3. Batched quality: planning K queued applications jointly (the fig10a
//      combine mechanism applied online) never degrades the joint makespan
//      vs placing them one at a time, and stays within the fig09 band of the
//      exact optimum on instances small enough to enumerate; the batch
//      planner's §5.2 ILP route is exercised on a warm-start-tractable
//      instance.
//
// `--smoke` shrinks the sweep for CI; `--json[=PATH]` additionally emits the
// machine-readable BENCH_tbl_serve_qps.json.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>

#include "bench_common.h"
#include "obs/metrics.h"
#include "place/greedy.h"
#include "place/ilp.h"
#include "place/rate_model.h"
#include "serve/batch.h"
#include "serve/service.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace {

using namespace choreo;
using units::mbps;

place::ClusterView synthetic_fleet(Rng& rng, std::size_t machines) {
  place::ClusterView view;
  view.rate_bps = DoubleMatrix(machines, machines, 0.0);
  for (std::size_t i = 0; i < machines; ++i) {
    for (std::size_t j = 0; j < machines; ++j) {
      if (i != j) {
        view.rate_bps(i, j) = rng.chance(0.2) ? rng.uniform(mbps(300), mbps(900))
                                              : rng.uniform(mbps(900), mbps(1100));
      }
    }
  }
  view.cross_traffic = DoubleMatrix(machines, machines, 0.0);
  for (std::size_t i = 0; i < machines; ++i) {
    for (std::size_t j = 0; j < machines; ++j) {
      if (i != j && rng.chance(0.2)) view.cross_traffic(i, j) = rng.uniform(0.5, 3.0);
    }
  }
  view.colocation_group.resize(machines);
  for (std::size_t m = 0; m < machines; ++m) view.colocation_group[m] = static_cast<int>(m);
  view.cores.assign(machines, 8.0);
  return view;
}

std::vector<place::Application> query_apps(std::uint64_t seed, std::size_t count,
                                           std::size_t min_tasks, std::size_t max_tasks) {
  Rng rng(seed);
  workload::GeneratorConfig gen;
  gen.min_tasks = min_tasks;
  gen.max_tasks = max_tasks;
  gen.max_cpu = 1.0;
  std::vector<place::Application> apps;
  for (std::size_t a = 0; a < count; ++a) apps.push_back(workload::generate_app(rng, gen));
  return apps;
}

struct QpsResult {
  double qps = 0.0;
  double p50_us = 0.0;  ///< from the obs histogram (bucket midpoint)
  double p99_us = 0.0;
  double exact_p50_us = 0.0;  ///< from the full sorted latency vector
  double exact_p99_us = 0.0;
  std::uint64_t refreshes = 0;   ///< scratch rebuilds across all threads
  std::uint64_t publishes = 0;   ///< view swaps the churn thread got in
  bool complete = true;          ///< every query returned a full placement
  bool epochs_valid = true;      ///< every recorded epoch was 1..last
  bool hist_within_bucket = true;  ///< hist p50/p99 within one bucket of exact
};

/// The exact quantile under the histogram's rank rule: the ceil(q*n)-th
/// smallest sample. (util::percentile interpolates between order statistics,
/// a different rule — the one-bucket resolution bound only holds rank
/// against rank.)
double exact_rank_quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t idx = rank <= 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

/// A histogram quantile is "within one bucket" of the exact sorted-sample
/// quantile when the two values land in the same or adjacent log buckets —
/// the resolution bound Hist documents (pinned again in test_obs_registry).
bool within_one_bucket(double hist_value, double exact_value) {
  const std::size_t bh = obs::Hist::bucket_of(hist_value);
  const std::size_t be = obs::Hist::bucket_of(exact_value);
  return bh <= be + 1 && be <= bh + 1;
}

/// Runs `threads` reader threads for `queries_per_thread` placements each
/// against one service, while a churn thread republishes alternative views
/// of the same fleet, one view per `queries_per_publish` queries answered
/// across all readers. Pacing by answered queries gives every reader count
/// the same swap rate per query, so the one-reader point measures reader
/// cost rather than a publisher spinning beside it.
QpsResult run_qps(const place::ClusterView& base,
                  const std::vector<place::ClusterView>& churn_views,
                  const std::vector<place::Application>& apps, std::size_t threads,
                  std::size_t queries_per_thread, std::size_t queries_per_publish) {
  serve::PlacementService service(base, place::RateModel::Hose);
  QpsResult res;

  // Per-reader-shard latency histogram: the p50/p99 the table reports come
  // from here, not from sorting the raw vector (which is kept only to pin
  // the histogram's one-bucket resolution bound).
  obs::Registry registry(static_cast<std::uint32_t>(threads));
  const obs::Hist lat_hist = registry.histogram("serve.latency_us");

  // Readers count answered queries and bump `due` at every
  // queries_per_publish-th; the publisher sleeps until `due` moves past what
  // it has published, then publishes one view per step it is behind.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> answered{0};
  std::atomic<std::uint64_t> due{0};
  std::atomic<std::uint64_t> publishes{0};
  std::thread publisher([&] {
    for (std::uint64_t i = 0;; ++i) {
      due.wait(i);
      if (stop.load()) break;
      service.publish_view(churn_views[i % churn_views.size()]);
      publishes.fetch_add(1, std::memory_order_relaxed);
    }
  });

  std::vector<std::vector<double>> lat_us(threads);
  std::vector<std::uint64_t> refreshes(threads, 0);
  std::atomic<int> incomplete{0};
  std::atomic<int> bad_epoch{0};

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> readers;
  readers.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    readers.emplace_back([&, t] {
      serve::Scratch scratch;
      lat_us[t].reserve(queries_per_thread);
      for (std::size_t q = 0; q < queries_per_thread; ++q) {
        const place::Application& app = apps[(t + q * threads) % apps.size()];
        const auto q0 = std::chrono::steady_clock::now();
        const serve::PlacementService::Result r = service.place(app, scratch);
        const auto q1 = std::chrono::steady_clock::now();
        const double us = std::chrono::duration<double, std::micro>(q1 - q0).count();
        lat_us[t].push_back(us);
        lat_hist.observe(us, static_cast<std::uint32_t>(t));
        if (!r.placement.complete()) incomplete.fetch_add(1, std::memory_order_relaxed);
        if (r.epoch == 0) bad_epoch.fetch_add(1, std::memory_order_relaxed);
        if ((answered.fetch_add(1) + 1) % queries_per_publish == 0) {
          due.fetch_add(1);
          due.notify_one();
        }
      }
      refreshes[t] = scratch.refreshes();
    });
  }
  for (std::thread& th : readers) th.join();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  stop.store(true);
  due.fetch_add(1);
  due.notify_one();
  publisher.join();

  std::vector<double> all;
  for (const auto& v : lat_us) all.insert(all.end(), v.begin(), v.end());
  res.qps = static_cast<double>(threads * queries_per_thread) / wall_s;
  const obs::MetricsSnapshot snap = registry.snapshot();
  const obs::MetricsSnapshot::HistValue* hv = snap.find_hist("serve.latency_us");
  res.p50_us = hv ? hv->p50 : 0.0;
  res.p99_us = hv ? hv->p99 : 0.0;
  res.exact_p50_us = exact_rank_quantile(all, 0.50);
  res.exact_p99_us = exact_rank_quantile(all, 0.99);
  res.hist_within_bucket = hv != nullptr && hv->count == all.size() &&
                           within_one_bucket(res.p50_us, res.exact_p50_us) &&
                           within_one_bucket(res.p99_us, res.exact_p99_us);
  for (std::uint64_t r : refreshes) res.refreshes += r;
  res.publishes = publishes.load();
  res.complete = incomplete.load() == 0;
  res.epochs_valid = bad_epoch.load() == 0;
  // A scratch arena refreshes at most once per published epoch it observed,
  // plus the initial build.
  const std::uint64_t max_refreshes_per_thread = res.publishes + 1;
  for (std::uint64_t r : refreshes) {
    if (r > max_refreshes_per_thread) res.epochs_valid = false;
  }
  return res;
}

/// Concatenates per-app placements into a placement of combine(apps) — the
/// sequential baseline evaluated on the joint objective.
place::Placement concat_placements(const std::vector<place::Placement>& parts) {
  place::Placement joint;
  for (const place::Placement& p : parts) {
    joint.machine_of_task.insert(joint.machine_of_task.end(), p.machine_of_task.begin(),
                                 p.machine_of_task.end());
  }
  return joint;
}

struct QualityResult {
  double sequential_s = 0.0;  ///< joint makespan of one-at-a-time placements
  double batched_s = 0.0;     ///< joint makespan of the batched plan
  double optimal_s = 0.0;     ///< exact optimum (brute-force enumeration)
};

/// A two-task app with one or two cross-task transfers. CPU demand 1.5 on
/// 2-core machines forces one task per machine, so every transfer crosses
/// the network and the instance is never degenerate (a colocated batch
/// would have makespan 0 and compare nothing).
place::Application tiny_app(Rng& rng) {
  place::Application app;
  app.cpu_demand = {1.5, 1.5};
  app.traffic_bytes = DoubleMatrix(2, 2, 0.0);
  app.traffic_bytes(0, 1) = rng.uniform(1e8, 1e9);
  if (rng.chance(0.5)) app.traffic_bytes(1, 0) = rng.uniform(1e8, 1e9);
  return app;
}

QualityResult run_quality(std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t machines = 4 + seed % 2;
  place::ClusterView view = synthetic_fleet(rng, machines);
  view.cores.assign(machines, 2.0);
  // Two 2-task apps: 4-task joint instances the Appendix ILP solves exactly
  // in well under a second (6-task joints already blow up branch-and-bound).
  Rng arng(seed * 131 + 17);
  const std::vector<place::Application> apps = {tiny_app(arng), tiny_app(arng)};
  std::vector<const place::Application*> ptrs;
  for (const place::Application& a : apps) ptrs.push_back(&a);
  const place::Application joint_app = place::combine(apps);

  QualityResult res;

  // Sequential: place one at a time, committing in between (the historical
  // retry drain), then score the concatenation on the joint objective.
  {
    place::ClusterState state(view);
    place::GreedyPlacer greedy(place::RateModel::Hose);
    std::vector<place::Placement> parts;
    for (const place::Application& a : apps) {
      parts.push_back(greedy.place(a, state));
      state.commit(a, parts.back());
    }
    res.sequential_s = place::estimate_completion_s(joint_app, concat_placements(parts),
                                                    view, place::RateModel::Hose);
  }

  // Batched: one joint greedy placement over the union of transfers.
  {
    place::ClusterState state(view);
    serve::BatchArrivalOptions opts;
    opts.enabled = true;
    opts.max_batch = apps.size();
    const serve::BatchPlan plan =
        serve::plan_batch(ptrs, state, place::RateModel::Hose, opts);
    res.batched_s = place::estimate_completion_s(joint_app, plan.joint, view,
                                                 place::RateModel::Hose);
  }

  // Exact optimum by enumeration — the oracle fig09 uses (the Appendix ILP
  // proves optimality only on instances where colocation is allowed; on
  // these CPU-forced-spread instances its branch-and-bound blows up, so the
  // ILP path is exercised separately below on a tractable instance).
  {
    place::ClusterState state(view);
    place::BruteForcePlacer optimal(place::RateModel::Hose);
    const place::Placement p = optimal.place(joint_app, state);
    res.optimal_s =
        place::estimate_completion_s(joint_app, p, view, place::RateModel::Hose);
  }
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace choreo;
  using namespace choreo::bench;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const std::string json_path = json_path_from_args(argc, argv, "tbl_serve_qps");
  BenchJson json("tbl_serve_qps");
  json.config("smoke", smoke ? "true" : "false");
  json.config("hardware_concurrency",
              static_cast<double>(std::thread::hardware_concurrency()));

  const std::vector<std::size_t> fleet_sizes =
      smoke ? std::vector<std::size_t>{50, 100} : std::vector<std::size_t>{100, 250, 500};
  const std::vector<std::size_t> thread_counts =
      smoke ? std::vector<std::size_t>{1, 2} : std::vector<std::size_t>{1, 2, 4, 8};

  header(std::string("Serving plane: placement QPS under churn, ") +
         std::to_string(fleet_sizes.front()) + " -> " +
         std::to_string(fleet_sizes.back()) + " VMs" + (smoke ? " [smoke]" : ""));

  const std::vector<place::Application> apps = query_apps(42, 64, 6, 10);

  // The 100-VM points carry the read-scaling gate. Each runs kGateRepeats
  // times and reports its median-QPS run: a single ~0.1 s point let one
  // descheduled reader on a small shared host decide the ratio.
  constexpr std::size_t kGateRepeats = 5;

  Table t({"VMs", "threads", "QPS", "p50 (us)", "p99 (us)", "swaps", "refreshes"});
  bool complete_ok = true, epoch_ok = true, hist_ok = true;
  std::vector<double> qps_100;  // parallel to thread_counts: median QPS at 100 VMs

  for (std::size_t n : fleet_sizes) {
    Rng rng(n * 1000 + 7);
    const place::ClusterView base = synthetic_fleet(rng, n);
    std::vector<place::ClusterView> churn_views;
    for (std::uint64_t s = 0; s < 4; ++s) {
      Rng crng(n * 1000 + 11 + s);
      churn_views.push_back(synthetic_fleet(crng, n));
    }
    // Enough queries per thread for stable percentiles, fewer at the large
    // fleets where each placement costs more. The 100-VM points carry the
    // read-scaling gate, so they run ~0.1 s per reader: at 300 queries
    // (~3 ms) scheduler noise alone moved the 4-vs-1 ratio from 0.8x to 6x.
    // One view swap per 1/20 of a reader's queries: a lone reader is due 20
    // swaps, and N readers 20N over N times the queries. At 250 and 500 VMs
    // one publish outlasts many queries, so those rows get only the swaps
    // the publisher completes before the readers finish.
    const std::size_t queries =
        smoke ? 20 : (n >= 500 ? 50 : (n >= 250 ? 100 : 10000));
    const std::size_t queries_per_publish = std::max<std::size_t>(1, queries / 20);

    const std::size_t repeats = (!smoke && n == 100) ? kGateRepeats : 1;
    for (std::size_t threads : thread_counts) {
      std::vector<QpsResult> runs;
      for (std::size_t k = 0; k < repeats; ++k) {
        runs.push_back(
            run_qps(base, churn_views, apps, threads, queries, queries_per_publish));
        complete_ok &= runs.back().complete;
        epoch_ok &= runs.back().epochs_valid;
        hist_ok &= runs.back().hist_within_bucket;
      }
      std::sort(runs.begin(), runs.end(),
                [](const QpsResult& a, const QpsResult& b) { return a.qps < b.qps; });
      const QpsResult& r = runs[runs.size() / 2];
      if (n == 100) qps_100.push_back(r.qps);
      t.add_row({fmt(static_cast<double>(n), 0), fmt(static_cast<double>(threads), 0),
                 fmt(r.qps, 0), fmt(r.p50_us, 1), fmt(r.p99_us, 1),
                 fmt(static_cast<double>(r.publishes), 0),
                 fmt(static_cast<double>(r.refreshes), 0)});
      json.row()
          .row("section", "qps")
          .row("vms", static_cast<double>(n))
          .row("threads", static_cast<double>(threads))
          .row("qps", r.qps)
          .row("p50_us", r.p50_us)
          .row("p99_us", r.p99_us)
          .row("exact_p50_us", r.exact_p50_us)
          .row("exact_p99_us", r.exact_p99_us)
          .row("view_swaps", static_cast<double>(r.publishes))
          .row("scratch_refreshes", static_cast<double>(r.refreshes));
    }
  }
  std::cout << t.to_string();

  check(complete_ok, "every query under churn returned a complete placement");
  check(epoch_ok,
        "snapshot epochs are valid and scratch arenas refresh at most once per "
        "published epoch");
  check(hist_ok,
        "obs histogram p50/p99 land within one log bucket of the exact "
        "sorted-sample quantiles at every (fleet, threads) point");

  // Gate 4 readers at 3x on a host with >= 8 hardware threads; on a smaller
  // host, the largest swept reader count it has threads for, at 0.375x per
  // reader (as tbl_session_scale gates its threads).
  const unsigned cores = std::thread::hardware_concurrency();
  std::size_t gate_threads = 4;
  double bound = 3.0;
  if (cores < 8) {
    gate_threads = 1;
    for (std::size_t threads : thread_counts) {
      if (threads <= cores) gate_threads = std::max(gate_threads, threads);
    }
    bound = 0.375 * static_cast<double>(gate_threads);
  }
  if (!smoke && gate_threads >= 2) {
    const auto qps_at = [&](std::size_t threads) {
      const auto it = std::find(thread_counts.begin(), thread_counts.end(), threads);
      return qps_100[static_cast<std::size_t>(it - thread_counts.begin())];
    };
    const std::string readers = std::to_string(gate_threads);
    std::cout << readers << "-thread vs 1-thread median QPS at 100 VMs: "
              << fmt(qps_at(gate_threads) / qps_at(1), 2) << "x\n";
    check(qps_at(gate_threads) >= bound * qps_at(1),
          readers + " reader threads sustain >= " + fmt(bound, 2) +
              "x the single-thread placement rate at 100 VMs (snapshot reads lock "
              "only for a pointer copy)");
  } else {
    std::cout << "  [SKIP] read-scaling check needs >= 2 hardware threads and a "
                 "full (non-smoke) run\n";
  }

  header(std::string("Batched joint placement vs sequential greedy vs optimal") +
         (smoke ? " [smoke]" : ""));
  const std::size_t quality_seeds = smoke ? 6 : 24;
  double seq_total = 0.0, batch_total = 0.0;
  std::vector<double> vs_optimal;
  for (std::uint64_t s = 0; s < quality_seeds; ++s) {
    const QualityResult q = run_quality(s);
    seq_total += q.sequential_s;
    batch_total += q.batched_s;
    if (q.optimal_s > 0.0) vs_optimal.push_back(q.batched_s / q.optimal_s);
    json.row()
        .row("section", "quality")
        .row("seed", static_cast<double>(s))
        .row("sequential_s", q.sequential_s)
        .row("batched_s", q.batched_s)
        .row("optimal_s", q.optimal_s);
  }
  Table q({"plan", "total joint makespan (s)"});
  q.add_row({"sequential greedy", fmt(seq_total, 2)});
  q.add_row({"batched greedy", fmt(batch_total, 2)});
  std::cout << q.to_string();
  const double vs_opt_median = vs_optimal.empty() ? 0.0 : median(vs_optimal);
  std::cout << "median batched/optimal makespan ratio: " << fmt(vs_opt_median, 3)
            << " (" << vs_optimal.size() << "/" << quality_seeds
            << " non-degenerate instances)\n";

  check(batch_total <= seq_total * 1.0001,
        "batched joint planning never degrades total joint makespan vs "
        "one-at-a-time greedy");
  check(!vs_optimal.empty() && vs_opt_median <= 1.25,
        "batched greedy stays within the fig09 band (median <= 1.25x the exact "
        "optimum) on small instances");

  // The §5.2 ILP path of the batch planner, on an instance where colocation
  // is allowed (branch-and-bound proves optimality from the greedy warm
  // start quickly there; CPU-forced-spread instances blow it up, which is
  // the paper's own reason for preferring the greedy).
  {
    Rng rng(3);
    const std::size_t machines = 4;
    place::ClusterView view = synthetic_fleet(rng, machines);
    view.cores.assign(machines, 2.0);
    Rng arng(991);
    std::vector<place::Application> ilp_apps = {tiny_app(arng), tiny_app(arng)};
    for (place::Application& a : ilp_apps) a.cpu_demand = {1.0, 1.0};
    std::vector<const place::Application*> ptrs;
    for (const place::Application& a : ilp_apps) ptrs.push_back(&a);
    place::ClusterState state(view);
    serve::BatchArrivalOptions opts;
    opts.enabled = true;
    opts.max_batch = ilp_apps.size();
    opts.ilp_task_limit = 4;
    const serve::BatchPlan plan =
        serve::plan_batch(ptrs, state, place::RateModel::Hose, opts);
    check(plan.used_ilp && plan.joint.complete() &&
              plan.placements.size() == ilp_apps.size(),
          "the batch planner routes small joint instances through the ILP and "
          "splits a complete placement per app");
  }

  // Throughput of the batch planner itself: planning K apps jointly vs K
  // separate placements at 100 VMs (reported, not gated — the win is
  // quality; the joint app is bigger so per-app cost can go either way).
  {
    Rng rng(424242);
    const place::ClusterView view = synthetic_fleet(rng, 100);
    place::ClusterState state(view);
    const std::vector<place::Application> batch_apps = query_apps(7, 4, 6, 8);
    std::vector<const place::Application*> ptrs;
    for (const place::Application& a : batch_apps) ptrs.push_back(&a);
    serve::BatchArrivalOptions opts;
    opts.enabled = true;
    opts.max_batch = batch_apps.size();
    place::GreedyPlacer greedy(place::RateModel::Hose);

    const std::size_t reps = smoke ? 5 : 30;
    const auto tb = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < reps; ++r) {
      const serve::BatchPlan plan =
          serve::plan_batch(ptrs, state, place::RateModel::Hose, opts);
      if (plan.placements.size() != batch_apps.size()) complete_ok = false;
    }
    const double batch_ms =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - tb).count() *
        1e3 / static_cast<double>(reps);
    const auto ts = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < reps; ++r) {
      for (const place::Application& a : batch_apps) {
        if (!greedy.place(a, state).complete()) complete_ok = false;
      }
    }
    const double seq_ms =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - ts).count() *
        1e3 / static_cast<double>(reps);
    std::cout << "planning 4 apps at 100 VMs: batched " << fmt(batch_ms, 2)
              << " ms, sequential " << fmt(seq_ms, 2) << " ms\n";
    json.row()
        .row("section", "throughput")
        .row("batched_ms", batch_ms)
        .row("sequential_ms", seq_ms);
  }

  if (!json_path.empty()) json.write(json_path);
  return finish();
}
