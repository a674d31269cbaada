#pragma once

// Shared helpers for the figure-reproduction bench binaries. Each binary
// regenerates one figure or in-text table of the paper and prints (a) the
// data series as the paper plots it and (b) a PASS/FAIL line for the
// qualitative claim it reproduces, so `for b in build/bench/*; do $b; done`
// doubles as a reproduction check.

#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cloud/cloud.h"
#include "place/app.h"
#include "place/cluster.h"
#include "util/json.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/units.h"
#include "workload/trace.h"

namespace choreo::bench {

/// Workload calibration for the §6 experiments. The HP Cloud dataset mixes
/// network-skewed applications with flat ones ("we observed this [uniform]
/// traffic pattern in some map-reduce applications", §7.1), and its
/// applications are dense enough that every placement algorithm co-locates a
/// fair number of task pairs by construction — both of which pull the mean
/// gain toward the paper's 8-14% band rather than letting a sparse, highly
/// skewed workload exaggerate Choreo's advantage.
inline workload::TraceConfig paper_trace_config() {
  workload::TraceConfig cfg;
  cfg.gen.min_tasks = 6;
  cfg.gen.max_tasks = 12;
  cfg.gen.pattern_weights = {0.30, 0.12, 0.08, 0.15, 0.35};
  cfg.gen.max_shuffle_skew = 0.8;
  return cfg;
}

inline int g_checks_failed = 0;

/// Prints a PASS/FAIL line for one qualitative claim of the paper.
inline void check(bool ok, const std::string& claim) {
  std::cout << (ok ? "  [PASS] " : "  [FAIL] ") << claim << "\n";
  if (!ok) ++g_checks_failed;
}

inline void header(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n";
}

inline int finish() {
  if (g_checks_failed > 0) {
    std::cout << "\n" << g_checks_failed << " reproduction check(s) FAILED\n";
    return 1;
  }
  std::cout << "\nall reproduction checks passed\n";
  return 0;
}

/// Machine-readable bench output: one JSON document per binary with the
/// bench name, its configuration, and one object per metric row — so CI (or
/// a plotting script) can track the reproduction metrics across commits
/// without scraping the human-readable tables. Values are stored
/// pre-serialized (numbers unquoted, strings escaped), which keeps this
/// header dependency-free.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  void config(const std::string& key, const std::string& value) {
    config_.emplace_back(key, quote(value));
  }
  void config(const std::string& key, double value) {
    config_.emplace_back(key, number(value));
  }

  /// Starts a metric row; fill it with the row(...) setters that follow.
  BenchJson& row() {
    rows_.emplace_back();
    return *this;
  }
  BenchJson& row(const std::string& key, const std::string& value) {
    rows_.back().emplace_back(key, quote(value));
    return *this;
  }
  BenchJson& row(const std::string& key, double value) {
    rows_.back().emplace_back(key, number(value));
    return *this;
  }

  std::string to_string() const {
    std::ostringstream out;
    out << "{\n  \"name\": " << quote(name_) << ",\n  \"config\": {";
    for (std::size_t i = 0; i < config_.size(); ++i) {
      out << (i ? ", " : "") << quote(config_[i].first) << ": " << config_[i].second;
    }
    out << "},\n  \"rows\": [\n";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      out << "    {";
      for (std::size_t i = 0; i < rows_[r].size(); ++i) {
        out << (i ? ", " : "") << quote(rows_[r][i].first) << ": " << rows_[r][i].second;
      }
      out << (r + 1 < rows_.size() ? "},\n" : "}\n");
    }
    out << "  ]\n}\n";
    return out.str();
  }

  /// Writes the document to `path` and prints where it went.
  void write(const std::string& path) const {
    std::ofstream out(path);
    out << to_string();
    std::cout << "wrote " << path << "\n";
  }

 private:
  // One escaping rule set for every JSON surface in the repo (util/json.h):
  // the obs plane's metrics/trace exports reuse these, so the strict parser
  // in test_bench_json.cpp covers them all.
  static std::string quote(const std::string& s) { return util::json_quote(s); }
  static std::string number(double v) { return util::json_number(v); }

  std::string name_;
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
};

/// Parses a `--json[=PATH]` argument: empty string when absent, PATH (or the
/// default `BENCH_<name>.json`) when present. A bare `--json=` means "the
/// default path" too — an empty PATH must not collide with the
/// output-disabled sentinel and silently drop the document.
inline std::string json_path_from_args(int argc, char** argv, const std::string& name) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" || arg == "--json=") return "BENCH_" + name + ".json";
    if (arg.rfind("--json=", 0) == 0) return arg.substr(7);
  }
  return "";
}

/// Prints a CDF the way the paper's figures are read: value at a grid of
/// cumulative fractions.
inline void print_cdf(const std::string& name, const Cdf& cdf, const std::string& unit) {
  Table t({"fraction", name + " (" + unit + ")"});
  for (double q : {0.01, 0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 1.0}) {
    t.add_row({fmt(q, 2), fmt(cdf.quantile(q), 1)});
  }
  std::cout << t.to_string();
}

/// Relative speed-up of Choreo vs an alternative: (t_alt - t_choreo)/t_alt
/// (§6.2's definition: five hours random, four hours Choreo -> 20%).
inline double relative_speedup(double t_choreo, double t_alt) {
  return (t_alt - t_choreo) / t_alt;
}

struct SpeedupStats {
  double improved_fraction = 0.0;
  double mean_pct = 0.0;
  double median_pct = 0.0;
  double max_pct = 0.0;
  double mean_improved_pct = 0.0;    ///< restricted to improving runs
  double median_improved_pct = 0.0;
  double median_slowdown_pct = 0.0;  ///< restricted to degrading runs
};

inline SpeedupStats speedup_stats(const std::vector<double>& speedups) {
  SpeedupStats s;
  if (speedups.empty()) return s;
  std::vector<double> improved, degraded;
  for (double v : speedups) {
    if (v > 0.0) {
      improved.push_back(v);
    } else if (v < 0.0) {
      degraded.push_back(-v);
    }
  }
  s.improved_fraction = static_cast<double>(improved.size()) /
                        static_cast<double>(speedups.size());
  s.mean_pct = mean(speedups) * 100.0;
  s.median_pct = median(speedups) * 100.0;
  s.max_pct = summarize(speedups).max * 100.0;
  if (!improved.empty()) {
    s.mean_improved_pct = mean(improved) * 100.0;
    s.median_improved_pct = median(improved) * 100.0;
  }
  if (!degraded.empty()) s.median_slowdown_pct = median(degraded) * 100.0;
  return s;
}

inline void print_speedup_stats(const std::string& vs, const SpeedupStats& s) {
  Table t({"vs " + vs, "value"});
  t.add_row({"runs improved", fmt_pct(s.improved_fraction)});
  t.add_row({"mean speed-up", fmt(s.mean_pct, 1) + "%"});
  t.add_row({"median speed-up", fmt(s.median_pct, 1) + "%"});
  t.add_row({"max speed-up", fmt(s.max_pct, 1) + "%"});
  t.add_row({"mean (improved runs)", fmt(s.mean_improved_pct, 1) + "%"});
  t.add_row({"median (improved runs)", fmt(s.median_improved_pct, 1) + "%"});
  t.add_row({"median slowdown (degraded runs)", fmt(s.median_slowdown_pct, 1) + "%"});
  std::cout << t.to_string();
}

/// Executes a placed application on the cloud; returns the application's
/// running time (all transfers start at `start_s`; runtime is the latest
/// completion minus start).
inline double execute_placement(const cloud::Cloud& cloud, const std::vector<cloud::VmId>& vms,
                                const place::Application& app,
                                const place::Placement& placement, std::uint64_t epoch) {
  std::vector<cloud::Cloud::Transfer> transfers;
  for (std::size_t i = 0; i < app.task_count(); ++i) {
    for (std::size_t j = 0; j < app.task_count(); ++j) {
      const double b = app.traffic_bytes(i, j);
      if (b <= 0.0) continue;
      transfers.push_back({vms[placement.machine_of_task[i]],
                           vms[placement.machine_of_task[j]], b, 0.0});
    }
  }
  if (transfers.empty()) return 0.0;
  return cloud.execute(transfers, epoch).makespan_s;
}

}  // namespace choreo::bench
