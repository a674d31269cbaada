#include "place/greedy.h"

#include <algorithm>

#include "place/engine.h"

namespace choreo::place {

namespace {

/// Best candidate so far: highest exact rate, ties toward the lowest
/// (m, n) — the order the exhaustive row-major scan discovers candidates
/// in, so "first strict improvement wins" and "lexicographically smallest
/// among the maxima" select the same pair.
struct BestCandidate {
  double rate = -1.0;
  std::size_t m = kUnplaced;
  std::size_t n = kUnplaced;

  void offer(double rate_bps, std::size_t m_cand, std::size_t n_cand) {
    if (rate_bps > rate ||
        (rate_bps == rate && (m_cand < m || (m_cand == m && n_cand < n)))) {
      rate = rate_bps;
      m = m_cand;
      n = n_cand;
    }
  }
};

}  // namespace

Placement GreedyPlacer::place(const Application& app, const ClusterState& state) {
  app.validate();
  PlacementEngine& eng = state.engine();
  const ClusterView& view = eng.view();
  const std::size_t J = app.task_count();
  const std::size_t M = eng.machine_count();

  Placement placement;
  placement.machine_of_task.assign(J, kUnplaced);

  // All tentative decisions live in one engine transaction, rolled back
  // (also on the exception path) before returning: the caller commits.
  PlacementEngine::Txn txn(eng);
  ++eng.counters().placements;

  const auto cpu_fits = [&](std::size_t task, std::size_t machine, double extra = 0.0) {
    return eng.cpu_fits(machine, app.cpu_demand[task] + extra);
  };

  const auto allowed = [&](std::size_t task, std::size_t machine) {
    return assignment_allowed(app.constraints, view, placement, task, machine);
  };

  const auto assign = [&](std::size_t task, std::size_t machine) {
    placement.machine_of_task[task] = machine;
    txn.apply_task(machine, app.cpu_demand[task]);
  };

  for (const TransferDemand& tr : sorted_transfers(app)) {
    const std::size_t i = tr.src_task;
    const std::size_t j = tr.dst_task;
    const std::size_t mi = placement.machine_of_task[i];
    const std::size_t mj = placement.machine_of_task[j];
    if (mi != kUnplaced && mj != kUnplaced) {
      // Both endpoints settled by earlier (larger) transfers; just record
      // the load this transfer adds.
      txn.apply_transfer(mi, mj);
      continue;
    }

    // Candidate feasibility and exact residual rate (Algorithm 1 lines
    // 3-14), identical rule-for-rule to the exhaustive scan's `consider`.
    BestCandidate best;
    const auto consider = [&](std::size_t m, std::size_t n) {
      ++eng.counters().candidates_walked;
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
        // right now: probe j's machine against i's tentative one (O(1)
        // write + restore instead of copying the placement).
        placement.machine_of_task[i] = m;
        const bool ok = assignment_allowed(app.constraints, view, placement, j, n);
        placement.machine_of_task[i] = kUnplaced;
        if (!ok) return;
      }
      best.offer(eng.rate_bps(m, n, model_), m, n);
    };

    // Pruned scan over the static bounds: a candidate whose bound is below
    // the best exact rate found so far can neither beat nor tie the final
    // best, so it is skipped unevaluated (ties are still evaluated — a tying
    // candidate with a lower index wins the tie-break, whatever the visit
    // order). The co-located candidate goes first: its rate is
    // kIntraMachineRate, which usually leaves nothing else to evaluate.
    if (mi != kUnplaced) {
      consider(mi, mi);
      const double* ub = eng.upper_bound_row(mi);
      for (std::size_t n = 0; n < M; ++n) {
        if (n != mi && ub[n] >= best.rate) consider(mi, n);
      }
    } else if (mj != kUnplaced) {
      consider(mj, mj);
      for (std::size_t m = 0; m < M; ++m) {
        if (m != mj && eng.upper_bound_row(m)[mj] >= best.rate) consider(m, mj);
      }
    } else {
      for (std::size_t m = 0; m < M; ++m) consider(m, m);
      for (std::size_t m = 0; m < M; ++m) {
        if (eng.peer_bound_max(m) < best.rate) continue;
        const double* ub = eng.upper_bound_row(m);
        for (std::size_t n = 0; n < M; ++n) {
          if (n != m && ub[n] >= best.rate) consider(m, n);
        }
      }
    }

    if (best.m == kUnplaced) {
      throw PlacementError("greedy: no CPU-feasible path for transfer " +
                           std::to_string(i) + "->" + std::to_string(j));
    }
    if (mi == kUnplaced) assign(i, best.m);
    if (mj == kUnplaced) assign(j, best.n);
    txn.apply_transfer(best.m, best.n);
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
      if (best == kUnplaced || eng.free_cores(m) > eng.free_cores(best)) best = m;
    }
    if (best == kUnplaced) {
      throw PlacementError("greedy: no CPU room for task " + std::to_string(t));
    }
    assign(t, best);
  }
  return placement;
}

}  // namespace choreo::place
