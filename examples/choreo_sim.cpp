// choreo_sim: the repository's experiment driver. Spin up an emulated
// provider, rent VMs, measure, place a workload with any algorithm, execute
// it, and print the outcome — everything the fig10 benches do, but
// parameterized from the command line so new scenarios need no recompile.
//
//   choreo_sim --provider ec2 --vms 10 --apps 2 --algorithm greedy --seed 7
//   choreo_sim --mode sequence --apps 4 --algorithm round-robin
//   choreo_sim --mode session --tenants 3 --vms 8 --duration-hours 12 --bursty
//   choreo_sim --mode session --tenants 8 --threads 4   # sharded, same output
//   choreo_sim --mode agents --vms 20 --cycles 8 --loss 0.2 --crash-rate 0.02
//   choreo_sim --mode session --agents --batch --trace=trace.json --metrics=m.json
//   choreo_sim --help
//
// --trace=PATH writes a Chrome trace-event JSON (load it at ui.perfetto.dev)
// with one lane per tenant; --metrics=PATH dumps the obs registry snapshot.
// Either flag also runs an executed-transfer spot check after a session so
// the trace covers the flowsim plane end to end.
//
// --mode session drives the discrete-event core::SessionRuntime: N tenants
// on disjoint VM slices of one cloud, each streaming a diurnal trace
// workload (optionally MMPP-bursty), their logs merged on one clock — a
// manual scenario harness for the control plane. --outcomes=PATH writes one
// JSON line per app (see write_outcomes); tools/run_diff.py compares two
// such files.
//
// --mode agents drives the distributed measurement plane: one host agent
// per VM reporting to a ClusterAgent over a simulated transport whose
// fault profile (--loss / --duplicate / --delay-max / --crash-rate) is set
// from the command line, with a per-cycle view of what survived the wire.

#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "agent/options.h"
#include "agent/plane.h"
#include "core/sharded.h"
#include "measure/throughput_matrix.h"
#include "obs/observer.h"
#include "place/baselines.h"
#include "place/greedy.h"
#include "place/ilp.h"
#include "util/args.h"
#include "util/json.h"
#include "util/table.h"
#include "util/units.h"
#include "workload/stream.h"
#include "workload/trace.h"

namespace {

using namespace choreo;

std::unique_ptr<place::Placer> make_placer(const std::string& name,
                                           place::RateModel model, std::uint64_t seed) {
  if (name == "greedy") return std::make_unique<place::GreedyPlacer>(model);
  if (name == "random") return std::make_unique<place::RandomPlacer>(seed);
  if (name == "round-robin") return std::make_unique<place::RoundRobinPlacer>();
  if (name == "min-machines") return std::make_unique<place::MinMachinesPlacer>();
  if (name == "ilp") return std::make_unique<place::IlpPlacer>(model);
  throw PreconditionError("unknown algorithm: " + name +
                          " (greedy|random|round-robin|min-machines|ilp)");
}

/// Passes a stream through and keeps every app it yields, in order: the
/// app's ordinal in its tenant's log is its index here.
class RecordingStream final : public workload::ArrivalStream {
 public:
  explicit RecordingStream(workload::ArrivalStream& inner) : inner_(&inner) {}

  std::optional<place::Application> next() override {
    std::optional<place::Application> app = inner_->next();
    if (app) apps.push_back(*app);
    return app;
  }

  std::vector<place::Application> apps;

 private:
  workload::ArrivalStream* inner_;
};

/// A double as JSON, to 17 significant digits so equal lines mean equal
/// doubles; null when absent (negative times mark "never").
std::string exact(double v, bool present = true) {
  if (!present) return "null";
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

/// One JSON line per app of every tenant, in tenant then arrival order:
/// tenant, app ordinal, name, arrival, placed and wait (null if never
/// placed), rejected, placement (task -> cloud VM id), the session's
/// estimated completion, and the executed completion — placed_s plus the
/// makespan of the app's transfers run alone on the cloud at its final
/// placement, under a background realization keyed by (tenant, ordinal).
void write_outcomes(const std::string& path, const cloud::Cloud& cloud,
                    const core::MultiTenantLog& result,
                    const std::vector<std::vector<cloud::VmId>>& tenant_vms,
                    const std::vector<std::unique_ptr<RecordingStream>>& recorders) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  for (std::size_t i = 0; i < result.tenants.size(); ++i) {
    const std::vector<core::AppOutcome>& apps = result.tenants[i].apps;
    for (std::size_t k = 0; k < apps.size(); ++k) {
      const core::AppOutcome& o = apps[k];
      const place::Application& app = recorders[i]->apps.at(k);
      const bool placed = o.placed_s >= 0.0;
      std::string placement = "[";
      std::vector<cloud::Cloud::Transfer> transfers;
      if (placed) {
        const std::vector<std::size_t>& machine = o.placement.machine_of_task;
        for (std::size_t t = 0; t < machine.size(); ++t) {
          if (t > 0) placement += ",";
          placement += std::to_string(tenant_vms[i][machine[t]]);
        }
        for (std::size_t a = 0; a < app.task_count(); ++a) {
          for (std::size_t b = 0; b < app.task_count(); ++b) {
            const double bytes = app.traffic_bytes(a, b);
            if (bytes <= 0.0) continue;
            transfers.push_back({tenant_vms[i][machine[a]], tenant_vms[i][machine[b]],
                                 bytes, 0.0});
          }
        }
      }
      placement += "]";
      double executed = o.placed_s;
      if (!transfers.empty()) {
        executed += cloud.execute(transfers, (static_cast<std::uint64_t>(i) << 32) | (k + 1))
                        .makespan_s;
      }
      out << "{\"tenant\":" << i << ",\"app\":" << k
          << ",\"name\":" << util::json_quote(o.name)
          << ",\"arrival_s\":" << exact(o.arrival_s)
          << ",\"placed_s\":" << exact(o.placed_s, placed)
          << ",\"wait_s\":" << exact(o.placed_s - o.arrival_s, placed)
          << ",\"rejected\":" << (o.rejected ? "true" : "false")
          << ",\"placement\":" << placement
          << ",\"est_finish_s\":" << exact(o.finished_s, placed && o.finished_s >= 0.0)
          << ",\"exec_finish_s\":" << exact(executed, placed) << "}\n";
    }
  }
}

cloud::ProviderProfile make_profile(const std::string& name) {
  if (name == "ec2") return cloud::ec2_2013();
  if (name == "ec2-2012") return cloud::ec2_2012();
  if (name == "rackspace") return cloud::rackspace();
  throw PreconditionError("unknown provider: " + name + " (ec2|ec2-2012|rackspace)");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace choreo;

  Args args;
  args.add_option("provider", "ec2", "cloud model: ec2 | ec2-2012 | rackspace");
  args.add_option("vms", "10", "VMs to rent (per tenant in session mode)");
  args.add_option("apps", "2", "applications to place");
  args.add_option("mode", "batch",
                  "batch (combine & place at once) | sequence | session | agents");
  args.add_option("algorithm", "greedy",
                  "greedy | random | round-robin | min-machines | ilp");
  args.add_option("rate-model", "hose", "hose | pipe (for greedy/ilp)");
  args.add_option("seed", "1", "experiment seed");
  args.add_option("mean-gap", "60", "sequence mode: mean inter-arrival gap (s)");
  args.add_option("tenants", "2", "session mode: tenants sharing the cloud");
  args.add_option("duration-hours", "6", "session mode: trace length per tenant");
  args.add_option("apps-per-day", "48", "session mode: per-tenant arrival rate");
  args.add_option("threads", "1",
                  "session mode: worker threads, each running whole tenants "
                  "in the sharded control plane (1 runs inline; output is "
                  "identical either way)");
  args.add_option("cycles", "8", "agents mode: measurement cycles to run");
  args.add_option("loss", "0", "agents mode: per-message loss probability");
  args.add_option("duplicate", "0", "agents mode: per-message duplicate probability");
  args.add_option("delay-max", "0", "agents mode: max delivery delay (cycles)");
  args.add_option("crash-rate", "0", "agents mode: per-agent crash probability/cycle");
  args.add_option("report-budget", "0",
                  "agents mode: max samples per StatsReport (0 = unlimited)");
  args.add_option("trace", "",
                  "write a Chrome trace-event JSON of the run to this path "
                  "(open in Perfetto)");
  args.add_option("metrics", "",
                  "write the metrics-registry snapshot JSON to this path");
  args.add_option("outcomes", "",
                  "session mode: write one JSON line per app to this path "
                  "(compare two runs with tools/run_diff.py)");
  args.add_flag("agents",
                "session mode: measure through the distributed agent plane "
                "(--loss/--crash-rate etc. apply per tenant)");
  args.add_flag("batch",
                "session mode: batched joint placement of queued arrivals");
  args.add_flag("bursty", "session mode: MMPP-modulate the arrival process");
  args.add_flag("forecast",
                "enable the forecast plane: predictability-driven refresh + "
                "uncertainty-discounted placement rates");
  args.add_flag("truth", "place on ground-truth rates instead of packet trains");
  args.add_flag("help", "show this help");

  try {
    args.parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n" << args.usage("choreo_sim");
    return 2;
  }
  if (args.get_flag("help")) {
    std::cout << args.usage("choreo_sim");
    return 0;
  }

  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const auto n_vms = static_cast<std::size_t>(args.get_int("vms"));
  const auto n_apps = static_cast<std::size_t>(args.get_int("apps"));
  const place::RateModel model =
      args.get("rate-model") == "pipe" ? place::RateModel::Pipe : place::RateModel::Hose;

  cloud::Cloud cloud(make_profile(args.get("provider")), seed);
  const auto vms = cloud.allocate_vms(n_vms);
  std::cout << "provider " << cloud.profile().name << ", " << n_vms << " VMs, seed "
            << seed << "\n";

  // Observability plane: a sharded registry (counter totals merge
  // deterministically) and/or a ring-buffered tracer, attached to every
  // plane the chosen mode drives. Lane 0 is the driver; tenants get their
  // own lanes below.
  constexpr std::uint32_t kObsShards = 16;
  const std::string trace_path = args.get("trace");
  const std::string metrics_path = args.get("metrics");
  std::unique_ptr<obs::Registry> registry;
  std::unique_ptr<obs::Tracer> tracer;
  obs::Observer obsv;
  if (!metrics_path.empty()) {
    registry = std::make_unique<obs::Registry>(kObsShards);
    obsv.metrics = registry.get();
  }
  if (!trace_path.empty()) {
    tracer = std::make_unique<obs::Tracer>(std::size_t{1} << 18);
    tracer->set_lane_name(0, "driver");
    obsv.tracer = tracer.get();
  }
  if (obsv.enabled()) cloud.set_observer(obsv);
  const auto write_obs = [&] {
    if (registry) registry->snapshot().write_json(metrics_path);
    if (tracer) tracer->write_json(trace_path);
  };

  measure::MeasurementPlan plan;
  plan.train.bursts = 10;
  plan.train.burst_length = args.get("provider") == "rackspace" ? 2000 : 200;

  if (args.get("mode") == "batch") {
    // Workload from the synthetic HP-Cloud trace; measurement (or ground
    // truth with --truth) up front, placement by the chosen algorithm.
    const workload::HpCloudTrace trace(seed * 7 + 5, workload::TraceConfig{});
    Rng rng(seed * 11 + 3);
    const place::ClusterView view =
        args.get_flag("truth") ? measure::true_cluster_view(cloud, vms, seed)
                               : measure::measured_cluster_view(cloud, vms, plan, seed);
    const auto placer = make_placer(args.get("algorithm"), model, seed);
    const place::Application combined = place::combine(trace.sample_batch(rng, n_apps));
    place::ClusterState state(view);
    const place::Placement placement = placer->place(combined, state);

    Table t({"task", "machine", "cpu"});
    for (std::size_t i = 0; i < combined.task_count(); ++i) {
      t.add_row({std::to_string(i), std::to_string(placement.machine_of_task[i]),
                 fmt(combined.cpu_demand[i], 1)});
    }
    std::cout << t.to_string();

    std::vector<cloud::Cloud::Transfer> transfers;
    for (std::size_t i = 0; i < combined.task_count(); ++i) {
      for (std::size_t j = 0; j < combined.task_count(); ++j) {
        const double b = combined.traffic_bytes(i, j);
        if (b <= 0.0) continue;
        transfers.push_back({vms[placement.machine_of_task[i]],
                             vms[placement.machine_of_task[j]], b, 0.0});
      }
    }
    const double est = place::estimate_completion_s(combined, placement, view, model);
    std::cout << "estimated completion: " << fmt(est, 2) << " s\n";
    if (!transfers.empty()) {
      const auto result = cloud.execute(transfers, seed + 1);
      std::cout << "executed completion:  " << fmt(result.makespan_s, 2) << " s ("
                << transfers.size() << " transfers)\n";
    }
    write_obs();
    return 0;
  }

  // The per-pair refresh mix a session spent its probes on (and saved them
  // with): the Choreo::last_measure() counters summed over every cycle.
  const auto print_probe_mix = [](const core::SessionLog& log) {
    std::cout << "probe mix: " << log.pairs_probed << " probed ("
              << log.pairs_volatile << " volatile, " << log.pairs_unpredictable
              << " unpredictable, " << log.pairs_changepoint
              << " change-point); " << log.pairs_predictable
              << " skipped on forecasts, " << log.pairs_predicted
              << " view entries predicted\n";
  };

  if (args.get("mode") == "sequence") {
    const workload::HpCloudTrace trace(seed * 7 + 5, workload::TraceConfig{});
    Rng rng(seed * 11 + 3);
    auto apps = trace.sample_sequence(rng, n_apps, args.get_double("mean-gap"));
    core::ControllerConfig config;
    config.choreo.plan = plan;
    config.choreo.rate_model = model;
    config.choreo.use_measured_view = !args.get_flag("truth");
    config.choreo.forecast.enabled = args.get_flag("forecast");
    config.choreo.obs = obsv.with_lane(1, 1 % kObsShards);
    if (tracer) tracer->set_lane_name(1, "controller");
    workload::VectorArrivalStream stream(apps);
    const core::SessionLog log = core::SessionRuntime(cloud, vms, config).run(stream);

    Table t({"t (s)", "event", "detail"});
    for (const core::SessionEvent& e : log.events) {
      t.add_row({fmt(e.time_s, 0), core::to_string(e.kind), log.detail(e)});
    }
    std::cout << t.to_string();
    std::cout << "total runtime (sum over apps): " << fmt(log.total_runtime_s, 1)
              << " s; re-evaluations: " << log.reevaluations << " ("
              << log.reevaluations_adopted << " adopted, " << log.tasks_migrated
              << " tasks migrated)\n";
    print_probe_mix(log);
    write_obs();
    return 0;
  }

  if (args.get("mode") == "session") {
    const auto n_tenants = static_cast<std::size_t>(args.get_int("tenants"));
    workload::TraceConfig trace_cfg;
    trace_cfg.duration_hours = args.get_double("duration-hours");
    trace_cfg.apps_per_day = args.get_double("apps-per-day");
    trace_cfg.gen.min_tasks = 3;
    trace_cfg.gen.max_tasks = 6;
    trace_cfg.gen.max_cpu = 2.0;

    // Per-tenant workload streams: a diurnal trace, optionally re-timed by
    // the MMPP burstiness modulator. Streams must outlive the session.
    std::vector<std::unique_ptr<workload::ArrivalStream>> streams;
    std::vector<core::TenantSpec> tenants;
    const std::string outcomes_path = args.get("outcomes");
    std::vector<std::unique_ptr<RecordingStream>> recorders;
    std::vector<std::vector<cloud::VmId>> tenant_vms;
    for (std::size_t i = 0; i < n_tenants; ++i) {
      auto trace_stream = std::make_unique<workload::TraceArrivalStream>(
          seed * 1000 + i, trace_cfg);
      workload::ArrivalStream* source = trace_stream.get();
      streams.push_back(std::move(trace_stream));
      if (args.get_flag("bursty")) {
        // Calm/burst states scaled to the configured arrival rate, so
        // --apps-per-day still governs the long-run average under --bursty.
        workload::MmppArrivalStream::Config mmpp;
        const double base_rate_per_s = trace_cfg.apps_per_day / 86400.0;
        mmpp.rate_per_s = {0.5 * base_rate_per_s, 3.0 * base_rate_per_s};
        mmpp.mean_sojourn_s = {1800.0, 300.0};
        mmpp.duration_s = trace_cfg.duration_hours * 3600.0;
        streams.push_back(std::make_unique<workload::MmppArrivalStream>(
            *source, seed * 2000 + i, mmpp));
        source = streams.back().get();
      }
      core::TenantSpec spec;
      spec.vms = (i == 0) ? vms : cloud.allocate_vms(n_vms);
      spec.config.choreo.plan = plan;
      spec.config.choreo.rate_model = model;
      spec.config.choreo.use_measured_view = !args.get_flag("truth");
      spec.config.choreo.forecast.enabled = args.get_flag("forecast");
      if (args.get_flag("batch")) spec.config.batch.enabled = true;
      if (args.get_flag("agents")) {
        spec.config.agents.enabled = true;
        spec.config.agents.transport.seed = seed * 17 + 3 + i;
        spec.config.agents.transport.fault.loss = args.get_double("loss");
        spec.config.agents.transport.fault.duplicate = args.get_double("duplicate");
        spec.config.agents.transport.fault.delay_max_cycles =
            static_cast<std::uint32_t>(args.get_int("delay-max"));
        spec.config.agents.crash_rate = args.get_double("crash-rate");
        spec.config.agents.crash_seed = seed + 11 + i;
      }
      const auto lane = static_cast<std::uint32_t>(1 + i);
      spec.config.choreo.obs = obsv.with_lane(lane, lane % kObsShards);
      if (tracer) tracer->set_lane_name(lane, "tenant" + std::to_string(i));
      if (!outcomes_path.empty()) {
        recorders.push_back(std::make_unique<RecordingStream>(*source));
        source = recorders.back().get();
      }
      spec.stream = source;
      tenant_vms.push_back(spec.vms);
      tenants.push_back(std::move(spec));
    }

    // The sharded control plane: its output is bit-identical for any
    // thread count, and at one thread it runs inline.
    core::ShardedOptions sharded;
    sharded.threads = static_cast<unsigned>(args.get_int("threads"));
    sharded.obs = obsv;
    core::ShardedSession session(cloud, std::move(tenants), sharded);
    const core::MultiTenantLog result = session.run();
    const std::vector<core::SessionRuntime::Stats>& tenant_stats = session.tenant_stats();
    std::cout << "sharded control plane: " << sharded.threads << " threads\n";
    if (!outcomes_path.empty()) {
      write_outcomes(outcomes_path, cloud, result, tenant_vms, recorders);
    }

    Table t({"tenant", "apps", "rejected", "reevals (adopted)", "migrated",
             "runtime sum (s)", "measure wall (s)", "probes"});
    for (std::size_t i = 0; i < result.tenants.size(); ++i) {
      const core::SessionLog& log = result.tenants[i];
      t.add_row({"tenant" + std::to_string(i), std::to_string(log.apps.size()),
                 std::to_string(log.rejected),
                 std::to_string(log.reevaluations) + " (" +
                     std::to_string(log.reevaluations_adopted) + ")",
                 std::to_string(log.tasks_migrated), fmt(log.total_runtime_s, 1),
                 fmt(log.measurement_wall_s, 1), std::to_string(log.pairs_probed)});
    }
    const core::SessionLog& agg = result.aggregate;
    t.add_row({"aggregate", std::to_string(agg.apps.size()),
               std::to_string(agg.rejected),
               std::to_string(agg.reevaluations) + " (" +
                   std::to_string(agg.reevaluations_adopted) + ")",
               std::to_string(agg.tasks_migrated), fmt(agg.total_runtime_s, 1),
               fmt(agg.measurement_wall_s, 1), std::to_string(agg.pairs_probed)});
    std::cout << t.to_string();

    std::uint64_t events = 0;
    std::size_t peak_state = 0;
    for (const core::SessionRuntime::Stats& s : tenant_stats) {
      events += s.events_processed;
      peak_state += s.peak_queue + s.peak_in_flight + s.peak_waiting;
    }
    std::cout << "aggregate events: " << agg.events.size() << " merged, " << events
              << " processed; peak runtime state (events+apps): " << peak_state
              << "\n";
    print_probe_mix(agg);

    if (obsv.enabled()) {
      // Executed-transfer spot check: place a small sampled batch on ground
      // truth and run its transfers through the fluid simulator — the
      // estimated-vs-executed cross-check, and the reason a traced session
      // also covers the flowsim plane.
      const workload::HpCloudTrace trace(seed * 7 + 5, workload::TraceConfig{});
      Rng rng(seed * 11 + 3);
      const place::ClusterView view = measure::true_cluster_view(cloud, vms, seed);
      place::GreedyPlacer greedy(model);
      // Step the batch down until the joint application fits the fleet.
      for (std::size_t batch = 3; batch >= 1; --batch) {
        const place::Application combined =
            place::combine(trace.sample_batch(rng, batch));
        place::ClusterState state(view);
        place::Placement placement;
        try {
          placement = greedy.place(combined, state);
        } catch (const place::PlacementError&) {
          continue;
        }
        std::vector<cloud::Cloud::Transfer> transfers;
        for (std::size_t i = 0; i < combined.task_count(); ++i) {
          for (std::size_t j = 0; j < combined.task_count(); ++j) {
            const double b = combined.traffic_bytes(i, j);
            if (b <= 0.0) continue;
            transfers.push_back({vms[placement.machine_of_task[i]],
                                 vms[placement.machine_of_task[j]], b, 0.0});
          }
        }
        if (transfers.empty()) continue;
        const double est =
            place::estimate_completion_s(combined, placement, view, model);
        const auto exec = cloud.execute(transfers, seed + 1);
        std::cout << "flowsim spot-check: estimated " << fmt(est, 2)
                  << " s, executed " << fmt(exec.makespan_s, 2) << " s ("
                  << transfers.size() << " transfers)\n";
        break;
      }
    }
    write_obs();
    return 0;
  }

  if (args.get("mode") == "agents") {
    agent::AgentOptions opts;
    opts.enabled = true;
    opts.transport.seed = seed * 17 + 3;
    opts.transport.fault.loss = args.get_double("loss");
    opts.transport.fault.duplicate = args.get_double("duplicate");
    opts.transport.fault.delay_max_cycles =
        static_cast<std::uint32_t>(args.get_int("delay-max"));
    opts.crash_rate = args.get_double("crash-rate");
    opts.crash_seed = seed + 11;
    opts.max_samples_per_report = static_cast<std::size_t>(args.get_int("report-budget"));

    measure::RefreshPolicy refresh;
    forecast::ForecastOptions forecast;
    forecast.enabled = args.get_flag("forecast");
    agent::AgentPlane plane(cloud, vms, plan, refresh, forecast, opts);
    if (obsv.enabled()) plane.set_observer(obsv);

    const auto n_cycles = static_cast<std::uint64_t>(args.get_int("cycles"));
    Table t({"epoch", "planned", "probed", "missing", "defaulted", "reports",
             "wall (s)"});
    for (std::uint64_t epoch = 1; epoch <= n_cycles; ++epoch) {
      const forecast::MeasureReport rep = plane.run_cycle(epoch).report;
      t.add_row({std::to_string(epoch), std::to_string(rep.agent_pairs_planned),
                 std::to_string(rep.pairs_probed), std::to_string(rep.agent_pairs_missing),
                 std::to_string(rep.pairs_defaulted), std::to_string(rep.agent_reports),
                 fmt(rep.wall_time_s, 1)});
    }
    std::cout << t.to_string();

    const agent::AgentPlane::Stats s = plane.stats();
    std::cout << "transport: " << s.transport.sent << " sent, "
              << s.transport.delivered << " delivered, " << s.transport.dropped
              << " dropped, " << s.transport.duplicated << " duplicated, "
              << s.transport.delayed << " delayed ("
              << fmt(static_cast<double>(s.transport.bytes_sent) / 1e6, 2)
              << " MB on the wire)\n";
    std::cout << "agents: " << s.reports_sent << " reports ("
              << s.retransmits << " retransmits, " << s.samples_deferred
              << " samples deferred), " << s.crashes << " crashes, " << s.restarts
              << " restarts; controller dropped " << s.cluster.duplicates_dropped
              << " duplicates, " << s.cluster.stale_generation_dropped
              << " stale-generation reports, re-synced " << s.cluster.resyncs
              << " incarnations\n";
    write_obs();
    return 0;
  }

  std::cerr << "unknown --mode " << args.get("mode") << "\n" << args.usage("choreo_sim");
  return 2;
}
