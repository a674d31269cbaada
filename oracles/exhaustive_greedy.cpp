#include "oracles/exhaustive_greedy.h"

#include <algorithm>
#include <string>
#include <vector>

#include "place/constraints.h"
#include "util/matrix.h"

namespace choreo::place {

Placement ExhaustiveGreedyPlacer::place(const Application& app, const ClusterState& state) {
  app.validate();
  const ClusterView& view = state.view();
  const std::size_t J = app.task_count();
  const std::size_t M = view.machine_count();

  Placement placement;
  placement.machine_of_task.assign(J, kUnplaced);

  // Local working copies so tentative decisions feed later rate estimates.
  std::vector<double> free_cores(M);
  for (std::size_t m = 0; m < M; ++m) free_cores[m] = state.free_cores(m);
  DoubleMatrix on_path(M, M, 0.0);
  std::vector<double> out_of(M, 0.0);

  const auto rate = [&](std::size_t m, std::size_t n) {
    return transfer_rate_bps(view, m, n, model_,
                             state.transfers_on_path(m, n) + on_path(m, n),
                             state.transfers_out_of(m) + out_of[m]);
  };

  const auto cpu_fits = [&](std::size_t task, std::size_t machine, double extra = 0.0) {
    return free_cores[machine] + 1e-9 >= app.cpu_demand[task] + extra;
  };

  const auto allowed = [&](std::size_t task, std::size_t machine) {
    return assignment_allowed(app.constraints, view, placement, task, machine);
  };

  const auto register_transfer = [&](std::size_t m, std::size_t n) {
    if (m == n) return;
    on_path(m, n) += 1.0;
    if (!view.colocated(m, n)) out_of[m] += 1.0;
  };

  const auto assign = [&](std::size_t task, std::size_t machine) {
    placement.machine_of_task[task] = machine;
    free_cores[machine] -= app.cpu_demand[task];
  };

  for (const TransferDemand& tr : sorted_transfers(app)) {
    const std::size_t i = tr.src_task;
    const std::size_t j = tr.dst_task;
    const std::size_t mi = placement.machine_of_task[i];
    const std::size_t mj = placement.machine_of_task[j];
    if (mi != kUnplaced && mj != kUnplaced) {
      // Both endpoints settled by earlier (larger) transfers; just record
      // the load this transfer adds.
      register_transfer(mi, mj);
      continue;
    }

    // Enumerate candidate paths (Algorithm 1 lines 3-11) and pick the one
    // whose residual rate is highest (line 12-14). Ties break toward the
    // lowest machine indices for determinism.
    double best_rate = -1.0;
    std::size_t best_m = kUnplaced, best_n = kUnplaced;
    const auto consider = [&](std::size_t m, std::size_t n) {
      // CPU feasibility (lines 9-11).
      if (mi == kUnplaced && mj == kUnplaced && m == n) {
        if (!cpu_fits(i, m, app.cpu_demand[j])) return;
      } else {
        if (mi == kUnplaced && !cpu_fits(i, m)) return;
        if (mj == kUnplaced && !cpu_fits(j, n)) return;
      }
      // Application constraints (fault tolerance / latency / pinning).
      if (mi == kUnplaced && !allowed(i, m)) return;
      if (mj == kUnplaced && !allowed(j, n)) return;
      if (mi == kUnplaced && mj == kUnplaced) {
        // Pair-internal constraints where both endpoints are being decided
        // right now: check j's machine against i's tentative one.
        Placement tentative = placement;
        tentative.machine_of_task[i] = m;
        if (!assignment_allowed(app.constraints, view, tentative, j, n)) return;
      }
      const double r = rate(m, n);
      if (r > best_rate) {
        best_rate = r;
        best_m = m;
        best_n = n;
      }
    };

    if (mi != kUnplaced) {
      for (std::size_t n = 0; n < M; ++n) consider(mi, n);
    } else if (mj != kUnplaced) {
      for (std::size_t m = 0; m < M; ++m) consider(m, mj);
    } else {
      for (std::size_t m = 0; m < M; ++m) {
        for (std::size_t n = 0; n < M; ++n) consider(m, n);
      }
    }

    if (best_m == kUnplaced) {
      throw PlacementError("greedy: no CPU-feasible path for transfer " +
                           std::to_string(i) + "->" + std::to_string(j));
    }
    if (mi == kUnplaced) assign(i, best_m);
    if (mj == kUnplaced) assign(j, best_n);
    register_transfer(best_m, best_n);
  }

  // Tasks with no transfers: first-fit-decreasing onto the freest machines.
  std::vector<std::size_t> leftovers;
  for (std::size_t t = 0; t < J; ++t) {
    if (placement.machine_of_task[t] == kUnplaced) leftovers.push_back(t);
  }
  std::stable_sort(leftovers.begin(), leftovers.end(), [&](std::size_t a, std::size_t b) {
    return app.cpu_demand[a] > app.cpu_demand[b];
  });
  for (std::size_t t : leftovers) {
    std::size_t best = kUnplaced;
    for (std::size_t m = 0; m < M; ++m) {
      if (!cpu_fits(t, m) || !allowed(t, m)) continue;
      if (best == kUnplaced || free_cores[m] > free_cores[best]) best = m;
    }
    if (best == kUnplaced) {
      throw PlacementError("greedy: no CPU room for task " + std::to_string(t));
    }
    assign(t, best);
  }
  return placement;
}

}  // namespace choreo::place
