// choreo_bench: the repository's end-to-end benchmark.
//
//   choreo_bench --workload=session_fixed --seed=1 --seconds=30 --json=OUT.json
//   choreo_bench --workload=all --seed=2
//   choreo_bench --workload=serve_500vm --trace=TRACE.json --metrics=METRICS.json
//   choreo_bench --smoke --workload=all
//
// A run covers several inputs of one workload, each an episode (a fresh
// set-up plus a fixed amount of work drawn from derive_seed(seed, input)).
// How many inputs a run covers follows from --seconds and the workload
// alone, never from how fast the code runs, so two commits measure the same
// inputs. All calls into the library are timed from outside and scaled by a
// host-speed yardstick (yardstick.h). --smoke runs its one input twice,
// counts each call at its fastest repetition, and requires the repetitions
// to produce identical outputs. It prints every metric as `name value unit`,
// checks the outputs, and exits non-zero if any check fails or any
// operation failed.
//
// With --trace, the first half of the budget runs untraced as above, then
// every input runs once more with an obs::Tracer and Registry attached. That
// pass yields the trace and the per-layer metrics; its slowdown against the
// untraced pass is the tracing overhead.
//
// --workload=all runs each workload in its own child process, so peak RSS
// and warm caches never leak from one workload into the next.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/args.h"
#include "util/json.h"
#include "workloads.h"

namespace {

using namespace choreo;
using namespace choreo::e2e;

/// Nominal episode wall times (see Workload::episode_s).
constexpr double kFixedEpisode_s = 5.0;
constexpr double kAgentsEpisode_s = 5.0;
constexpr double kServeEpisode_s = 2.5;

struct Workload {
  std::string name;
  /// Trace lane names, lane 1 upwards.
  std::vector<std::string> lanes;
  /// Wall seconds of one episode, with its checks and yardstick slices, on
  /// the shared 4-core Xeon host the benchmark was sized on; sets how many
  /// inputs a run covers.
  double episode_s;
  std::function<Episode(std::uint64_t, const obs::Observer&)> episode;
};

std::vector<Workload> make_workloads(bool smoke) {
  SessionShape fixed;
  if (smoke) {
    fixed.tenants = 2;
    fixed.hours = 0.05;
  }
  SessionShape agents = fixed;
  agents.agents_batch = true;
  ServeShape serve;
  if (smoke) {
    serve.vms = 60;
    serve.hours = 0.005;
  }
  std::vector<std::string> tenants;
  for (std::size_t i = 0; i < fixed.tenants; ++i) tenants.push_back("tenant" + std::to_string(i));
  return {
      {"session_fixed", tenants, kFixedEpisode_s,
       [fixed](std::uint64_t s, const obs::Observer& o) {
         return run_session_episode(fixed, s, o);
       }},
      {"session_agents", tenants, kAgentsEpisode_s,
       [agents](std::uint64_t s, const obs::Observer& o) {
         return run_session_episode(agents, s, o);
       }},
      {"serve_500vm", {"client"}, kServeEpisode_s,
       [serve](std::uint64_t s, const obs::Observer& o) {
         return run_serve_episode(serve, s, o);
       }},
  };
}

/// One episode. An exception escaping a layer call counts as one failed
/// operation, is reported, and ends the run (`aborted`).
Episode run_episode(const Workload& w, std::uint64_t seed, const obs::Observer& obsv,
                    bool& aborted) {
  try {
    return w.episode(seed, obsv);
  } catch (const std::exception& e) {
    Episode ep;
    ep.attempted = 1;
    ep.failed = 1;
    ep.errors.push_back(std::string("exception escaped a layer call: ") + e.what());
    aborted = true;
    return ep;
  }
}

/// runs[input][repetition]
using Runs = std::vector<std::vector<Episode>>;

/// Inputs whose `repeats` runs each fit in `budget_s` on the host the
/// episode times were taken on; at least one.
std::size_t input_count(const Workload& w, double budget_s, std::size_t repeats) {
  const double fit = budget_s / (w.episode_s * static_cast<double>(repeats));
  return std::max<std::size_t>(1, static_cast<std::size_t>(fit));
}

/// Every input once, then every input repeats - 1 more times.
Runs untraced_pass(const Workload& w, std::uint64_t seed, std::size_t inputs,
                   std::size_t repeats, bool& aborted) {
  Runs runs;
  while (!aborted && runs.size() < inputs) {
    runs.push_back({run_episode(w, derive_seed(seed, runs.size()), obs::Observer{}, aborted)});
  }
  for (std::size_t r = 1; r < repeats && !aborted; ++r) {
    for (std::size_t k = 0; k < runs.size() && !aborted; ++k) {
      runs[k].push_back(run_episode(w, derive_seed(seed, k), obs::Observer{}, aborted));
    }
  }
  return runs;
}

/// Folds the repetitions of every input into one Report. Each timed quantity
/// of an input (every call, the set-up) is scaled to the nominal host speed
/// within its repetition, then counts at its fastest repetition; the
/// repetitions must agree on every output.
Report aggregate(const Runs& runs) {
  Report rep;
  rep.inputs = runs.size();
  rep.repeats = runs.empty() ? 0 : runs.front().size();
  for (std::size_t k = 0; k < runs.size(); ++k) {
    const std::vector<Episode>& reps = runs[k];
    const Episode& first = reps.front();
    bool consistent = true;
    for (const Episode& e : reps) {
      consistent = consistent && e.calls.size() == first.calls.size() &&
                   e.digest.value() == first.digest.value() && e.errors == first.errors;
      for (std::size_t i = 0; consistent && i < e.calls.size(); ++i) {
        consistent = e.calls[i].op == first.calls[i].op;
      }
    }
    const std::string input = "input " + std::to_string(k) + ": ";
    for (const std::string& e : first.errors) rep.errors.push_back(input + e);
    rep.attempted += first.attempted;
    rep.failed += first.failed;
    if (!consistent) {
      rep.errors.push_back(input + "repetitions of one input produced different outputs");
      for (std::size_t r = 1; r < reps.size(); ++r) {
        if (reps[r].errors == first.errors) continue;
        for (const std::string& e : reps[r].errors) {
          rep.errors.push_back(input + "repetition " + std::to_string(r) + ": " + e);
        }
      }
      continue;
    }

    std::vector<double> wall = first.scaled_calls();
    double setup_s = first.scaled_setup_s();
    for (std::size_t r = 1; r < reps.size(); ++r) {
      const std::vector<double> again = reps[r].scaled_calls();
      for (std::size_t i = 0; i < wall.size(); ++i) wall[i] = std::min(wall[i], again[i]);
      setup_s = std::min(setup_s, reps[r].scaled_setup_s());
    }
    rep.setup_s.add(setup_s);
    for (std::size_t i = 0; i < wall.size(); ++i) {
      rep.ops[first.calls[i].op].add(wall[i]);
      rep.busy_s += wall[i];
    }
    for (const auto& [a, b] : first.decides) rep.decide_s.add(a == b ? wall[a] : wall[a] + wall[b]);
    for (const auto& [call, pairs] : first.probes) {
      rep.probing_s += wall[call];
      rep.pairs_probed += pairs;
    }
    if (k == 0) {
      rep.first_totals = first.totals;
      rep.first_digest = first.digest.value();
      rep.first_response_s = first.response_s;
    }
  }
  return rep;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Peak resident set of this process image. Linux carries the pre-exec
/// image's peak into getrusage's ru_maxrss, so a benchmark started from a
/// larger parent (run.py's Python) would report the parent's peak; VmHWM
/// counts only this image.
double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// The end-to-end metrics; the same names on every workload.
std::vector<Metric> end_to_end(const Report& r) {
  return {
      {"setup_s", r.setup_s.quantile(0.5), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"requests_per_s", ratio(static_cast<double>(r.decide_s.count()), r.busy_s), "1/s"},
      {"decide_p50_us", r.decide_s.quantile(0.50) * 1e6, "us"},
      {"decide_p90_us", r.decide_s.quantile(0.90) * 1e6, "us"},
  };
}

/// The per-layer metrics the benchmark computes itself (trace_summary.py adds
/// the self-time shares). The same names on every workload; a layer the
/// workload bypasses reads 0. Counts come from the first input, timings from
/// the untraced pass.
std::vector<Metric> per_layer(const Report& u, double trace_overhead_pct,
                              const obs::MetricsSnapshot& snap) {
  const auto first = [&u](const std::string& name) {
    const auto it = u.first_totals.find(name);
    return it == u.first_totals.end() ? 0.0 : it->second;
  };
  const auto counter = [&snap](const std::string& name) {
    const obs::MetricsSnapshot::CounterValue* c = snap.find_counter(name);
    return c ? static_cast<double>(c->value) : 0.0;
  };
  const auto share = [&u](const std::string& op) { return ratio(u.op_sum(op), u.busy_s); };
  // Sessions count candidates through Choreo's registry scrape; serving
  // through the replayed queries' engines.
  const double candidates_per_app =
      counter("place.apps") > 0.0
          ? ratio(counter("place.candidates_walked"), counter("place.apps"))
          : ratio(first("place.replayed_candidates"), first("place.replayed_apps"));
  const double success =
      first("place.attempts") > 0.0
          ? ratio(first("place.placements"), first("place.attempts"))
          : ratio(static_cast<double>(u.attempted - u.failed), static_cast<double>(u.attempted));
  return {
      {"trace_overhead_pct", trace_overhead_pct, "%"},
      {"core.measure_share", share("measure_refresh"), "ratio"},
      {"core.arrival_share", share("arrival"), "ratio"},
      {"core.retry_share", share("retry"), "ratio"},
      {"core.reeval_share", share("reeval"), "ratio"},
      {"core.departure_share", share("departure"), "ratio"},
      {"core.events", first("core.events"), "count"},
      {"core.peak_waiting", first("core.peak_waiting"), "count"},
      {"measure.cycles", first("measure.cycles"), "count"},
      {"measure.pairs_probed", first("measure.pairs_probed"), "count"},
      {"measure.rounds", first("measure.rounds"), "count"},
      {"measure.empty_cycle_ratio",
       ratio(first("measure.empty_cycles"), first("measure.cycles")), "ratio"},
      {"measure.pairs_per_s", ratio(u.pairs_probed, u.probing_s), "1/s"},
      {"measure.probe_model_s_per_app", ratio(first("probe_model_s"), first("apps")),
       "sim_s"},
      {"place.success_ratio", success, "ratio"},
      {"place.candidates_per_app", candidates_per_app, "count"},
      {"place.batch_attempts", first("place.batch_attempts"), "count"},
      {"place.batch_mean_size",
       ratio(first("place.batch_size_sum"), first("place.batch_attempts")), "count"},
      {"place.app_response_p50_s", u.first_response_s.quantile(0.50), "sim_s"},
      {"place.app_response_p99_s", u.first_response_s.quantile(0.99), "sim_s"},
      {"agent.reports", first("agent.reports"), "count"},
      {"agent.retransmits", first("agent.retransmits"), "count"},
      {"agent.wire_mb", first("agent.wire_bytes") / 1e6, "MB"},
      {"serve.query_share", share("query"), "ratio"},
      {"serve.publish_share", share("publish"), "ratio"},
      {"serve.commit_share", share("commit"), "ratio"},
      {"serve.release_share", share("release"), "ratio"},
  };
}

std::string fmt_value(double v) {
  std::ostringstream out;
  out.precision(12);
  out << v;
  return out.str();
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::cout << m.name << " " << fmt_value(m.value) << " " << m.unit << "\n";
  }
}

/// Absolute per-operation timings: not gated, but what a reader wants next
/// to the shares.
void print_ops(const Report& r) {
  const auto line = [](const std::string& op, const Samples& s) {
    std::printf("  %-18s n=%-8zu sum %10.4f s  p50 %11.2f us  p90 %11.2f us  p99 %11.2f us\n",
                op.c_str(), s.count(), s.sum(), s.quantile(0.5) * 1e6,
                s.quantile(0.9) * 1e6, s.quantile(0.99) * 1e6);
  };
  line("decide", r.decide_s);
  for (const auto& [op, s] : r.ops) line("op " + op, s);
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", " : "") + util::json_quote(metrics[i].name) +
           ": {\"value\": " + util::json_number(metrics[i].value) +
           ", \"unit\": " + util::json_quote(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

struct Cli {
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool smoke = false;
  std::string json, trace, metrics;
};

/// Runs one workload in this process; returns the exit code.
int run_workload(const Workload& w, const Cli& cli) {
  const bool traced = !cli.trace.empty();
  const Clock::time_point t0 = Clock::now();
  bool aborted = false;
  // A measured run spends its budget on distinct inputs. Across seeds the
  // inputs' own variety is most of the spread, and the fastest of three
  // repetitions of each call, tried first, made decide_p50_us and setup_s
  // less steady rather than more.
  const std::size_t repeats = cli.smoke ? 2 : 1;
  const std::size_t inputs =
      cli.smoke ? 1 : input_count(w, traced ? cli.seconds / 2.0 : cli.seconds, repeats);
  const Runs runs = untraced_pass(w, cli.seed, inputs, repeats, aborted);
  Report r = aggregate(runs);
  const std::vector<Metric> e2e = end_to_end(r);
  std::vector<Metric> layer;
  if (traced && !aborted) {
    obs::Registry registry(1);
    obs::Tracer tracer(std::size_t{1} << 20);
    for (std::size_t i = 0; i < w.lanes.size(); ++i) {
      tracer.set_lane_name(static_cast<std::uint32_t>(i + 1), w.lanes[i]);
    }
    obs::Observer obsv;
    obsv.metrics = &registry;
    obsv.tracer = &tracer;
    // Each input once more, traced, against its first untraced repetition.
    Runs traced_runs, first_runs;
    double traced_loop_s = 0.0;
    for (std::size_t k = 0; k < runs.size() && !aborted; ++k) {
      traced_runs.push_back({run_episode(w, derive_seed(cli.seed, k), obsv, aborted)});
      first_runs.push_back({runs[k].front()});
      traced_loop_s += traced_runs.back().front().loop_s;
      if (traced_runs.back().front().digest.value() != runs[k].front().digest.value()) {
        r.errors.push_back("input " + std::to_string(k) +
                           ": traced and untraced runs produced different outputs");
      }
    }
    const Report t = aggregate(traced_runs);
    for (const std::string& e : t.errors) r.errors.push_back("traced: " + e);
    // The unscaled loop wall the trace's self times are shares of.
    registry.gauge("bench.wall_loop_s").set(traced_loop_s);
    const obs::MetricsSnapshot snap = registry.snapshot();
    layer = per_layer(r, (ratio(t.busy_s, aggregate(first_runs).busy_s) - 1.0) * 100.0, snap);
    tracer.write_json(cli.trace);
    if (!cli.metrics.empty()) snap.write_json(cli.metrics);
    if (tracer.dropped() != 0) r.errors.push_back("the tracer dropped spans");
  }

  const bool ok = r.errors.empty() && r.failed == 0;
  std::cout << "== " << w.name << ": seed " << cli.seed << ", " << r.inputs << " input(s) x "
            << r.repeats << (traced ? " + traced pass" : "") << ", "
            << fmt_value(seconds_since(t0)) << " s wall ==\n";
  print_metrics(e2e);
  print_metrics(layer);
  std::cout << "  samples: setup " << r.setup_s.count() << ", decide " << r.decide_s.count()
            << "; ops attempted " << r.attempted << ", failed " << r.failed
            << " (fail_ratio "
            << fmt_value(ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted)))
            << ")\n";
  print_ops(r);
  if (r.first_response_s.count() > 0) {
    std::cout << "  first input: " << r.first_response_s.count()
              << " apps, app response p50 " << fmt_value(r.first_response_s.quantile(0.5))
              << " sim s, p99 " << fmt_value(r.first_response_s.quantile(0.99)) << " sim s\n";
  }
  std::cout << "  digest " << hex(r.first_digest) << " (first input)\n";
  for (const std::string& e : r.errors) std::cout << "  [FAIL] " << e << "\n";
  std::cout << (ok ? "  [PASS] " : "  [FAIL] ") << "output checks and failure accounting\n";

  if (!cli.json.empty()) {
    std::ostringstream doc;
    doc << "{\"workload\": " << util::json_quote(w.name) << ", \"seed\": " << cli.seed
        << ", \"inputs\": " << r.inputs << ", \"repeats\": " << r.repeats
        << ", \"correct\": " << (r.errors.empty() ? "true" : "false")
        << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
        << ", \"digest\": " << util::json_quote(hex(r.first_digest)) << ", \"errors\": [";
    for (std::size_t i = 0; i < r.errors.size(); ++i) {
      doc << (i ? ", " : "") << util::json_quote(r.errors[i]);
    }
    doc << "], \"end_to_end\": " << metrics_json(e2e)
        << ", \"per_layer\": " << metrics_json(layer) << "}\n";
    std::ofstream out(cli.json);
    out << doc.str();
    if (!out.flush()) {
      std::cerr << "cannot write " << cli.json << "\n";
      return 1;
    }
  }
  return ok ? 0 : 1;
}

/// PATH.json -> PATH_<workload>.json, for --workload=all.
std::string per_workload(const std::string& path, const std::string& workload) {
  if (path.empty()) return path;
  const std::size_t dot = path.rfind(".json");
  return dot == std::string::npos ? path + "_" + workload
                                  : path.substr(0, dot) + "_" + workload + ".json";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  args.add_option("workload", "all",
                  "session_fixed | session_agents | serve_500vm | all");
  args.add_option("seed", "1", "workload seed (2 is the held-out seed)");
  args.add_option("seconds", "30", "wall seconds one run measures");
  args.add_option("json", "", "write the run's result document to this path");
  args.add_option("trace", "",
                  "traced run: write the Chrome trace here (per-layer metrics)");
  args.add_option("metrics", "", "traced run: write the registry snapshot here");
  args.add_flag("smoke", "tiny sizes, one input run twice");
  args.add_flag("help", "show this help");
  Cli cli;
  std::string which;
  try {
    args.parse(argc, argv);
    if (args.get_flag("help")) {
      std::cout << args.usage("choreo_bench");
      return 0;
    }
    cli.seed = static_cast<std::uint64_t>(args.get_int("seed"));
    cli.seconds = args.get_double("seconds");
    cli.smoke = args.get_flag("smoke");
    cli.json = args.get("json");
    cli.trace = args.get("trace");
    cli.metrics = args.get("metrics");
    which = args.get("workload");
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n" << args.usage("choreo_bench");
    return 2;
  }

  const std::vector<Workload> all = make_workloads(cli.smoke);
  if (which != "all") {
    for (const Workload& w : all) {
      if (w.name == which) return run_workload(w, cli);
    }
    std::cerr << "unknown workload " << which << "\n" << args.usage("choreo_bench");
    return 2;
  }

  int status = 0;
  for (const Workload& w : all) {
    Cli child = cli;
    child.json = per_workload(cli.json, w.name);
    child.trace = per_workload(cli.trace, w.name);
    child.metrics = per_workload(cli.metrics, w.name);
    std::cout.flush();
    const pid_t pid = fork();
    if (pid < 0) {
      std::perror("fork");
      return 1;
    }
    if (pid == 0) {
      const int rc = run_workload(w, child);
      std::cout.flush();
      _exit(rc);
    }
    int wstatus = 0;
    if (waitpid(pid, &wstatus, 0) < 0 || !WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
      std::cout << "workload " << w.name << " failed\n";
      status = 1;
    }
  }
  return status;
}
