#include "place/ilp.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "place/greedy.h"

namespace choreo::place {

Placement IlpPlacer::place(const Application& app, const ClusterState& state) {
  app.validate();
  const ClusterView& view = state.view();
  const std::size_t J = app.task_count();
  const std::size_t M = view.machine_count();
  const DoubleMatrix& B = app.traffic_bytes;

  lp::Model model;

  // X_im: task i on machine m.
  std::vector<std::vector<std::size_t>> X(J, std::vector<std::size_t>(M));
  for (std::size_t i = 0; i < J; ++i) {
    for (std::size_t m = 0; m < M; ++m) {
      X[i][m] = model.add_binary(0.0);
    }
  }
  // z: the makespan (seconds).
  const std::size_t Z = model.add_variable(1.0);

  // Pairs with traffic in either direction get linking variables.
  struct Pair {
    std::size_t i, j;                       // i < j
    std::vector<std::vector<std::size_t>> z;  // z[m][n]: i on m, j on n
  };
  std::vector<Pair> pairs;
  for (std::size_t i = 0; i < J; ++i) {
    for (std::size_t j = i + 1; j < J; ++j) {
      if (B(i, j) <= 0.0 && B(j, i) <= 0.0) continue;
      Pair p{i, j, std::vector<std::vector<std::size_t>>(M, std::vector<std::size_t>(M))};
      for (std::size_t m = 0; m < M; ++m) {
        for (std::size_t n = 0; n < M; ++n) {
          p.z[m][n] = model.add_binary(0.0);
        }
      }
      pairs.push_back(std::move(p));
    }
  }

  // Each task on exactly one machine.
  for (std::size_t i = 0; i < J; ++i) {
    std::vector<lp::Term> terms;
    for (std::size_t m = 0; m < M; ++m) terms.push_back({X[i][m], 1.0});
    model.add_constraint(std::move(terms), lp::Sense::Equal, 1.0);
  }
  // Application constraints (tech report [20] formulation: all expressible
  // as linear rows over X).
  for (const auto& [task, machine] : app.constraints.pinned) {
    CHOREO_REQUIRE_MSG(machine < M, "pinned machine out of range");
    model.add_constraint({{X[task][machine], 1.0}}, lp::Sense::Equal, 1.0);
  }
  for (const auto& [a, b] : app.constraints.separate) {
    for (std::size_t m = 0; m < M; ++m) {
      for (std::size_t n = 0; n < M; ++n) {
        if (m == n || view.colocated(m, n)) {
          model.add_constraint({{X[a][m], 1.0}, {X[b][n], 1.0}}, lp::Sense::LessEq, 1.0);
        }
      }
    }
  }
  for (const PlacementConstraints::LatencyBound& l : app.constraints.latency) {
    CHOREO_REQUIRE_MSG(!view.hops.empty(),
                       "latency constraints need ClusterView::hops");
    for (std::size_t m = 0; m < M; ++m) {
      for (std::size_t n = 0; n < M; ++n) {
        const double hops = (m == n) ? 0.0 : view.hops(m, n);
        if (hops > static_cast<double>(l.max_hops)) {
          model.add_constraint({{X[l.a][m], 1.0}, {X[l.b][n], 1.0}}, lp::Sense::LessEq,
                               1.0);
        }
      }
    }
  }
  // CPU capacities.
  for (std::size_t m = 0; m < M; ++m) {
    std::vector<lp::Term> terms;
    for (std::size_t i = 0; i < J; ++i) terms.push_back({X[i][m], app.cpu_demand[i]});
    model.add_constraint(std::move(terms), lp::Sense::LessEq, state.free_cores(m));
  }
  // Linking: z_imjn <= X_im, z_imjn <= X_jn, and sum over (m,n) = 1.
  for (const Pair& p : pairs) {
    std::vector<lp::Term> sum_terms;
    for (std::size_t m = 0; m < M; ++m) {
      for (std::size_t n = 0; n < M; ++n) {
        model.add_constraint({{p.z[m][n], 1.0}, {X[p.i][m], -1.0}}, lp::Sense::LessEq, 0.0);
        model.add_constraint({{p.z[m][n], 1.0}, {X[p.j][n], -1.0}}, lp::Sense::LessEq, 0.0);
        sum_terms.push_back({p.z[m][n], 1.0});
      }
    }
    model.add_constraint(std::move(sum_terms), lp::Sense::Equal, 1.0);
  }

  // Bottleneck drain-time rows: z >= sum(bytes over the bottleneck)/rate —
  // the S matrix of the Appendix. The i<j convention means the transfer
  // i->j (B_ij bytes) rides pair variable z[m][n] on path (m,n), while j->i
  // (B_ji) rides it on (n,m).
  //
  // Both models get one row per machine path (a path never drains faster
  // than its measured single-connection rate); the hose model adds one row
  // per source machine aggregating everything that leaves it for another
  // host (S_{mi,mj} = 1). These rows mirror estimate_completion_s exactly,
  // so the ILP optimizes the same objective the evaluator scores.
  for (std::size_t m = 0; m < M; ++m) {
    for (std::size_t n = 0; n < M; ++n) {
      if (m == n) continue;
      std::vector<lp::Term> terms{{Z, 1.0}};
      bool any = false;
      const double rate = view.rate_bps(m, n);
      for (const Pair& p : pairs) {
        if (B(p.i, p.j) > 0.0) {
          terms.push_back({p.z[m][n], -B(p.i, p.j) * 8.0 / rate});
          any = true;
        }
        if (B(p.j, p.i) > 0.0) {
          terms.push_back({p.z[n][m], -B(p.j, p.i) * 8.0 / rate});
          any = true;
        }
      }
      if (any) model.add_constraint(std::move(terms), lp::Sense::GreaterEq, 0.0);
    }
  }
  if (model_ == RateModel::Hose) {
    for (std::size_t m = 0; m < M; ++m) {
      std::vector<lp::Term> terms{{Z, 1.0}};
      bool any = false;
      const double hose = view.hose_bps(m);
      for (std::size_t n = 0; n < M; ++n) {
        if (m == n || view.colocated(m, n)) continue;
        for (const Pair& p : pairs) {
          if (B(p.i, p.j) > 0.0) {
            terms.push_back({p.z[m][n], -B(p.i, p.j) * 8.0 / hose});
            any = true;
          }
          if (B(p.j, p.i) > 0.0) {
            terms.push_back({p.z[n][m], -B(p.j, p.i) * 8.0 / hose});
            any = true;
          }
        }
      }
      if (any) model.add_constraint(std::move(terms), lp::Sense::GreaterEq, 0.0);
    }
  }

  // Warm start from the greedy placement.
  lp::IlpOptions opts = options_;
  try {
    GreedyPlacer greedy(model_);
    const Placement warm = greedy.place(app, state);
    opts.warm_start_objective =
        estimate_completion_s(app, warm, view, model_) + 1e-9;
  } catch (const PlacementError&) {
    // No greedy warm start; branch-and-bound runs cold.
  }

  const lp::Solution sol = lp::solve_ilp(model, opts);
  if (sol.status != lp::SolveStatus::Optimal || sol.values.empty()) {
    // Budget exhausted without a proven optimum: fall back to greedy, which
    // is exactly the paper's posture ("solving ILPs can be slow in
    // practice", §2.3).
    GreedyPlacer greedy(model_);
    return greedy.place(app, state);
  }

  Placement placement;
  placement.machine_of_task.assign(J, kUnplaced);
  for (std::size_t i = 0; i < J; ++i) {
    for (std::size_t m = 0; m < M; ++m) {
      if (sol.values[X[i][m]] > 0.5) {
        placement.machine_of_task[i] = m;
        break;
      }
    }
    CHOREO_ASSERT(placement.machine_of_task[i] != kUnplaced);
  }
  return placement;
}

Placement BruteForcePlacer::place(const Application& app, const ClusterState& state) {
  app.validate();
  const ClusterView& view = state.view();
  const std::size_t J = app.task_count();
  const std::size_t M = view.machine_count();

  double combos = 1.0;
  for (std::size_t i = 0; i < J; ++i) combos *= static_cast<double>(M);
  CHOREO_REQUIRE_MSG(combos <= static_cast<double>(max_assignments_),
                     "brute force would enumerate " << combos << " assignments");

  std::vector<double> free_cores(M);
  for (std::size_t m = 0; m < M; ++m) free_cores[m] = state.free_cores(m);

  Placement current;
  current.machine_of_task.assign(J, kUnplaced);
  Placement best;
  double best_time = std::numeric_limits<double>::infinity();

  // Depth-first over tasks with CPU pruning.
  const std::function<void(std::size_t)> recurse = [&](std::size_t task) {
    if (task == J) {
      const double t = estimate_completion_s(app, current, view, model_);
      if (t < best_time) {
        best_time = t;
        best = current;
      }
      return;
    }
    for (std::size_t m = 0; m < M; ++m) {
      if (free_cores[m] + 1e-9 < app.cpu_demand[task]) continue;
      if (!assignment_allowed(app.constraints, view, current, task, m)) continue;
      current.machine_of_task[task] = m;
      free_cores[m] -= app.cpu_demand[task];
      recurse(task + 1);
      free_cores[m] += app.cpu_demand[task];
      current.machine_of_task[task] = kUnplaced;
    }
  };
  recurse(0);

  if (!best.complete()) {
    throw PlacementError("brute force: no CPU-feasible assignment exists");
  }
  last_objective_ = best_time;
  return best;
}

}  // namespace choreo::place
