// Beyond-paper: scaling the discrete-event control plane. Two claims the
// session-runtime refactor makes, each enforced here:
//
//   1. Constant-memory streaming — a multi-week diurnal trace flows through
//      core::SessionRuntime via workload::TraceArrivalStream without being
//      materialized: the runtime's live state (event queue + in-flight +
//      waiting apps) is bounded by the fleet, not the trace length, so a
//      7-day session peaks at the same footprint as a 2-day one.
//
//   2. Near-linear multi-tenant throughput — N tenants on disjoint VM
//      slices of one cloud, interleaved on the shared clock, process events
//      at a per-event cost that stays flat as tenants are added (each
//      tenant's placement state is its own; only the clock and the epoch
//      counter are shared).
//
//   3. Deterministic thread scaling — the same tenant sweep routed through
//      the sharded control plane (core::ShardedSession) at --threads
//      1/2/4/8 produces a merged log bit-identical to the single-threaded
//      oracle at every thread count, while events/sec grows with threads
//      (gated at 0.375x per thread, at the largest swept thread count the
//      host has cores for).
//
// `--smoke` runs the reduced CI sweep (still covering a full 7-day trace
// and a threads={1,2} determinism check); the exit code is non-zero on any
// [FAIL] line.

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/sharded.h"
#include "oracles/multi_tenant_session.h"
#include "workload/stream.h"

namespace {

using namespace choreo;

core::ControllerConfig session_config() {
  core::ControllerConfig config;
  // Ground-truth view: this bench times the control plane, not the
  // measurement plane (tbl_measurement_overhead owns that story).
  config.choreo.use_measured_view = false;
  config.choreo.reevaluate_period_s = 1800.0;
  return config;
}

struct StreamRun {
  std::uint64_t arrivals = 0;
  std::size_t peak_state = 0;  ///< peak events + in-flight + waiting
  double wall_ms = 0.0;
  std::uint64_t events = 0;
};

StreamRun run_streaming_session(double days, double apps_per_day,
                                std::size_t fleet, std::uint64_t seed) {
  cloud::Cloud cloud(cloud::ec2_2013(), seed);
  const auto vms = cloud.allocate_vms(fleet);
  workload::TraceConfig trace;
  trace.duration_hours = days * 24.0;
  trace.apps_per_day = apps_per_day;
  trace.gen.min_tasks = 3;
  trace.gen.max_tasks = 6;
  trace.gen.max_cpu = 1.5;
  workload::TraceArrivalStream stream(seed * 13 + 1, trace);

  core::RuntimeOptions options;
  options.record_events = false;
  options.record_outcomes = false;
  core::SessionRuntime runtime(cloud, vms, session_config(), std::move(options));

  const auto t0 = std::chrono::steady_clock::now();
  const core::SessionLog log = runtime.run(stream);
  const auto t1 = std::chrono::steady_clock::now();

  StreamRun out;
  out.arrivals = runtime.stats().arrivals;
  out.peak_state = runtime.stats().peak_queue + runtime.stats().peak_in_flight +
                   runtime.stats().peak_waiting;
  out.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  out.events = runtime.stats().events_processed;
  bench::check(log.events.empty() && log.apps.empty(),
               "streaming mode materializes no per-event or per-app state");
  return out;
}

struct TenantRun {
  std::uint64_t events = 0;
  std::uint64_t apps = 0;
  double wall_ms = 0.0;
};

/// Tenant specs for a sweep: identical for every run with the same
/// arguments, so the oracle and every sharded configuration replay the
/// exact same workload on the exact same cloud.
std::vector<core::TenantSpec> make_tenants(
    cloud::Cloud& cloud, std::size_t tenants, std::size_t fleet,
    double mean_gap_s, double duration_s, std::uint64_t seed,
    std::vector<std::unique_ptr<workload::GeneratorArrivalStream>>& streams) {
  std::vector<core::TenantSpec> specs;
  for (std::size_t i = 0; i < tenants; ++i) {
    workload::GeneratorArrivalStream::Config cfg;
    cfg.gen.min_tasks = 3;
    cfg.gen.max_tasks = 6;
    cfg.gen.max_cpu = 1.5;
    cfg.mean_gap_s = mean_gap_s;
    cfg.duration_s = duration_s;
    streams.push_back(std::make_unique<workload::GeneratorArrivalStream>(
        seed * 100 + i, cfg));
    core::TenantSpec spec;
    spec.name = "tenant" + std::to_string(i);
    spec.vms = cloud.allocate_vms(fleet);
    spec.config = session_config();
    spec.stream = streams.back().get();
    specs.push_back(std::move(spec));
  }
  return specs;
}

TenantRun run_tenant_sweep(std::size_t tenants, std::size_t fleet,
                           double mean_gap_s, double duration_s,
                           std::uint64_t seed) {
  cloud::Cloud cloud(cloud::ec2_2013(), seed);
  std::vector<std::unique_ptr<workload::GeneratorArrivalStream>> streams;
  std::vector<core::TenantSpec> specs =
      make_tenants(cloud, tenants, fleet, mean_gap_s, duration_s, seed, streams);
  core::MultiTenantOptions options;
  options.record_events = false;
  options.record_outcomes = false;
  core::MultiTenantSession session(cloud, std::move(specs), options);

  const auto t0 = std::chrono::steady_clock::now();
  const core::MultiTenantLog result = session.run();
  const auto t1 = std::chrono::steady_clock::now();

  TenantRun out;
  out.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  for (const core::SessionRuntime::Stats& s : session.tenant_stats()) {
    out.events += s.events_processed;
    out.apps += s.arrivals;
  }
  bench::check(result.aggregate.total_runtime_s > 0.0,
               "multi-tenant aggregate accounting is populated");
  return out;
}

// ---- sharded thread scaling -------------------------------------------------

struct ThreadRun {
  core::MultiTenantLog log;
  double wall_ms = 0.0;
  std::uint64_t events = 0;
};

/// One full tenant sweep with recording on (the merged logs are what the
/// determinism check compares). threads == 0 runs the single-threaded
/// MultiTenantSession oracle; anything else the sharded control plane.
ThreadRun run_thread_sweep(std::size_t tenants, std::size_t fleet,
                           double mean_gap_s, double duration_s,
                           std::uint64_t seed, unsigned threads) {
  cloud::Cloud cloud(cloud::ec2_2013(), seed);
  std::vector<std::unique_ptr<workload::GeneratorArrivalStream>> streams;
  std::vector<core::TenantSpec> specs =
      make_tenants(cloud, tenants, fleet, mean_gap_s, duration_s, seed, streams);

  ThreadRun out;
  const auto t0 = std::chrono::steady_clock::now();
  if (threads == 0) {
    core::MultiTenantSession session(cloud, std::move(specs));
    out.log = session.run();
    for (const auto& s : session.tenant_stats()) out.events += s.events_processed;
  } else {
    core::ShardedOptions options;
    options.threads = threads;
    core::ShardedSession session(cloud, std::move(specs), options);
    out.log = session.run();
    for (const auto& s : session.tenant_stats()) out.events += s.events_processed;
  }
  const auto t1 = std::chrono::steady_clock::now();
  out.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace choreo::bench;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  // ---- constant-memory streaming ------------------------------------------
  const double apps_per_day = smoke ? 12.0 : 48.0;
  const std::size_t stream_fleet = smoke ? 6 : 8;
  const std::vector<double> days = smoke ? std::vector<double>{2.0, 7.0}
                                         : std::vector<double>{2.0, 7.0, 21.0};
  header("Session runtime: constant-memory trace streaming" +
         std::string(smoke ? " [smoke]" : ""));
  Table st({"trace days", "arrivals", "events", "peak live state", "wall (ms)"});
  std::vector<StreamRun> stream_runs;
  for (double d : days) {
    stream_runs.push_back(run_streaming_session(d, apps_per_day, stream_fleet, 42));
    const StreamRun& r = stream_runs.back();
    st.add_row({fmt(d, 0), std::to_string(r.arrivals), std::to_string(r.events),
                std::to_string(r.peak_state), fmt(r.wall_ms, 1)});
  }
  std::cout << st.to_string();

  const StreamRun& shortest = stream_runs.front();
  const StreamRun& longest = stream_runs.back();
  check(longest.arrivals > shortest.arrivals * 2,
        "longer traces stream proportionally more applications");
  check(longest.peak_state <= shortest.peak_state * 2 + 16,
        "peak live state is bounded by the fleet, not the trace length "
        "(constant-memory streaming)");
  check(days.back() >= 7.0 && longest.arrivals > 0,
        "a >= 1-week trace streamed end to end");

  // ---- multi-tenant scaling ----------------------------------------------
  const std::vector<std::size_t> tenant_counts =
      smoke ? std::vector<std::size_t>{1, 2} : std::vector<std::size_t>{1, 2, 4};
  const std::vector<std::size_t> fleets =
      smoke ? std::vector<std::size_t>{6} : std::vector<std::size_t>{8, 16};
  const double duration_s = smoke ? 1500.0 : 4800.0;
  header("Session runtime: tenants x fleet x arrival rate" +
         std::string(smoke ? " [smoke]" : ""));
  Table tt({"tenants", "fleet/tenant", "mean gap (s)", "apps", "events",
            "wall (ms)", "us/event"});
  double per_event_1 = 0.0, per_event_max = 0.0;
  for (std::size_t fleet : fleets) {
    for (std::size_t tenants : tenant_counts) {
      for (double gap : {30.0}) {
        const TenantRun r = run_tenant_sweep(tenants, fleet, gap, duration_s, 7);
        const double per_event =
            r.events > 0 ? r.wall_ms * 1000.0 / static_cast<double>(r.events) : 0.0;
        tt.add_row({std::to_string(tenants), std::to_string(fleet), fmt(gap, 0),
                    std::to_string(r.apps), std::to_string(r.events),
                    fmt(r.wall_ms, 1), fmt(per_event, 1)});
        if (fleet == fleets.front() && tenants == tenant_counts.front()) {
          per_event_1 = per_event;
        }
        if (fleet == fleets.front() && tenants == tenant_counts.back()) {
          per_event_max = per_event;
        }
      }
    }
  }
  std::cout << tt.to_string();
  check(per_event_1 > 0.0 && per_event_max > 0.0, "tenant sweeps processed events");
  check(per_event_max <= per_event_1 * 3.0,
        "per-event cost stays near-flat as tenants are added "
        "(near-linear event-throughput growth)");

  // ---- sharded control plane: --threads sweep -----------------------------
  // The oracle (MultiTenantSession) runs once; every sharded configuration
  // must reproduce its merged log bit-identically while events/sec scales
  // with threads. The speedup gate is scaled to the host: it runs at the
  // largest swept thread count the host has cores for — determinism is
  // asserted everywhere, unconditionally.
  const std::size_t shard_tenants = smoke ? 8 : 100;
  const std::size_t shard_fleet = smoke ? 4 : 6;
  const double shard_duration_s = smoke ? 1200.0 : 1800.0;
  const std::vector<unsigned> thread_counts =
      smoke ? std::vector<unsigned>{1, 2} : std::vector<unsigned>{1, 2, 4, 8};
  header("Sharded control plane: --threads sweep @ " +
         std::to_string(shard_tenants) + " tenants" +
         std::string(smoke ? " [smoke]" : ""));

  const ThreadRun oracle =
      run_thread_sweep(shard_tenants, shard_fleet, 30.0, shard_duration_s, 7, 0);
  Table sh({"threads", "events", "wall (ms)", "events/sec", "speedup", "identical"});
  const double oracle_eps =
      oracle.wall_ms > 0.0
          ? static_cast<double>(oracle.events) * 1000.0 / oracle.wall_ms
          : 0.0;
  sh.add_row({"oracle", std::to_string(oracle.events), fmt(oracle.wall_ms, 1),
              fmt(oracle_eps, 0), "1.00", "-"});
  const unsigned cores = std::thread::hardware_concurrency();
  unsigned gate_threads = 0;  // largest swept count <= cores
  for (unsigned threads : thread_counts) {
    if (threads <= cores) gate_threads = std::max(gate_threads, threads);
  }
  double wall_threads_1 = 0.0, wall_gate = 0.0;
  for (unsigned threads : thread_counts) {
    const ThreadRun r = run_thread_sweep(shard_tenants, shard_fleet, 30.0,
                                         shard_duration_s, 7, threads);
    const bool identical = r.log.tenants == oracle.log.tenants &&
                           r.log.aggregate == oracle.log.aggregate;
    check(identical, "threads=" + std::to_string(threads) +
                         " merged log is bit-identical to the oracle");
    check(r.events == oracle.events,
          "threads=" + std::to_string(threads) + " processed the same events");
    const double eps =
        r.wall_ms > 0.0 ? static_cast<double>(r.events) * 1000.0 / r.wall_ms : 0.0;
    const double speedup = r.wall_ms > 0.0 ? oracle.wall_ms / r.wall_ms : 0.0;
    sh.add_row({std::to_string(threads), std::to_string(r.events),
                fmt(r.wall_ms, 1), fmt(eps, 0), fmt(speedup, 2),
                identical ? "yes" : "NO"});
    if (threads == 1) wall_threads_1 = r.wall_ms;
    if (threads == gate_threads) wall_gate = r.wall_ms;
  }
  std::cout << sh.to_string();

  // 0.375 x threads: 3x at 8 threads, 1.5x at 4.
  if (!smoke && gate_threads >= 2 && wall_gate > 0.0) {
    const double bound = 0.375 * gate_threads;
    check(wall_threads_1 / wall_gate >= bound,
          "threads=" + std::to_string(gate_threads) + " is >= " + fmt(bound, 2) +
              "x faster than threads=1 at " + std::to_string(shard_tenants) +
              " tenants");
  } else {
    std::cout << "[skip] speedup assertion (cores=" << cores
              << (smoke ? ", smoke mode" : "") << ")\n";
  }

  return finish();
}
