// Differential battery pinning the incremental placement engine to the
// exhaustive-scan oracle: over a randomized corpus (fleet sizes, rate
// models, CPU limits, colocated pairs, cross traffic, constraints), the
// PlacementEngine-backed GreedyPlacer must produce *bit-identical*
// placements and completion estimates to ExhaustiveGreedyPlacer, its O(1)
// cached rates must equal transfer_rate_bps exactly, and the incremental
// state maintenance (Txn rollback, update_view, clone_unoccupied) must be
// indistinguishable from rebuild-and-replay. update_view's static indexes
// must equal a fresh build's exactly, and clones sharing a static block must
// never see a later change to the engine they were cloned from.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "oracles/exhaustive_greedy.h"
#include "place/baselines.h"
#include "place/engine.h"
#include "place/greedy.h"
#include "place/rate_model.h"
#include "util/require.h"
#include "util/rng.h"
#include "util/units.h"
#include "workload/generator.h"

namespace choreo::place {
namespace {

using units::mbps;

/// A corpus cluster: random rates, a few colocated pairs, optional cross
/// traffic, mixed core counts, and a hop matrix so latency constraints can
/// bind.
ClusterView corpus_cluster(Rng& rng, std::size_t machines) {
  ClusterView view;
  view.rate_bps = DoubleMatrix(machines, machines, 0.0);
  for (std::size_t i = 0; i < machines; ++i) {
    for (std::size_t j = 0; j < machines; ++j) {
      if (i != j) {
        view.rate_bps(i, j) = rng.chance(0.25) ? rng.uniform(mbps(200), mbps(900))
                                               : rng.uniform(mbps(900), mbps(1200));
      }
    }
  }
  // Co-locate ~1/4 of the fleet in pairs (consecutive indices share a host).
  view.colocation_group.resize(machines);
  int group = 0;
  for (std::size_t m = 0; m < machines; ++m) {
    view.colocation_group[m] = group;
    const bool pair_with_next = m + 1 < machines && m % 4 == 0 && rng.chance(0.7);
    if (!pair_with_next) ++group;
  }
  if (rng.chance(0.6)) {
    view.cross_traffic = DoubleMatrix(machines, machines, 0.0);
    for (std::size_t i = 0; i < machines; ++i) {
      for (std::size_t j = 0; j < machines; ++j) {
        if (i != j && rng.chance(0.3)) view.cross_traffic(i, j) = rng.uniform(0.0, 3.0);
      }
    }
  }
  view.hops = DoubleMatrix(machines, machines, 0.0);
  for (std::size_t i = 0; i < machines; ++i) {
    for (std::size_t j = 0; j < machines; ++j) {
      if (i == j) continue;
      view.hops(i, j) = view.colocated(i, j) ? 1.0 : (rng.chance(0.5) ? 2.0 : 4.0);
    }
  }
  view.cores.resize(machines);
  for (double& c : view.cores) c = rng.chance(0.3) ? 2.0 : (rng.chance(0.5) ? 4.0 : 8.0);
  return view;
}

Application corpus_app(Rng& rng, std::size_t machines) {
  workload::GeneratorConfig gen;
  gen.min_tasks = 3;
  gen.max_tasks = 9;
  gen.max_cpu = 2.0;
  Application app = workload::generate_app(rng, gen);
  // Sometimes attach constraints so the constrained code paths diverge if
  // the engine mishandles them.
  if (rng.chance(0.3) && app.task_count() >= 2) {
    app.constraints.separate.push_back({0, app.task_count() - 1});
  }
  if (rng.chance(0.2)) {
    app.constraints.pinned[app.task_count() / 2] =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(machines) - 1));
  }
  if (rng.chance(0.2) && app.task_count() >= 3) {
    app.constraints.latency.push_back({1, 2, 2});
  }
  return app;
}

/// Every static index of an engine, copied out so it can be compared with ==
/// after the engine has moved on.
struct StaticIndexes {
  std::vector<double> hose, cross_out, ub, peer_max;
};

StaticIndexes static_indexes(const PlacementEngine& eng) {
  StaticIndexes out;
  const std::size_t M = eng.machine_count();
  for (std::size_t m = 0; m < M; ++m) {
    out.hose.push_back(eng.hose_bps(m));
    out.cross_out.push_back(eng.hose_cross_out_of(m));
    out.peer_max.push_back(eng.peer_bound_max(m));
    for (std::size_t k = 0; k < M; ++k) out.ub.push_back(eng.upper_bound_bps(m, k));
  }
  return out;
}

void expect_same_statics(const StaticIndexes& a, const StaticIndexes& b) {
  EXPECT_EQ(a.hose, b.hose);
  EXPECT_EQ(a.cross_out, b.cross_out);
  EXPECT_EQ(a.ub, b.ub);
  EXPECT_EQ(a.peer_max, b.peer_max);
}

void expect_same_view(const ClusterView& a, const ClusterView& b) {
  EXPECT_TRUE(a.rate_bps == b.rate_bps);
  EXPECT_TRUE(a.cross_traffic == b.cross_traffic);
  EXPECT_EQ(a.colocation_group, b.colocation_group);
  EXPECT_EQ(a.cores, b.cores);
}

/// Places with both implementations on the same state; asserts identical
/// outcomes (including agreeing on infeasibility) and returns the placement
/// when one exists.
std::optional<Placement> place_both(const Application& app, const ClusterState& state,
                                    RateModel model) {
  GreedyPlacer engine_backed(model);
  ExhaustiveGreedyPlacer oracle(model);
  Placement pe, po;
  bool engine_threw = false, oracle_threw = false;
  try {
    po = oracle.place(app, state);
  } catch (const PlacementError&) {
    oracle_threw = true;
  }
  try {
    pe = engine_backed.place(app, state);
  } catch (const PlacementError&) {
    engine_threw = true;
  }
  EXPECT_EQ(engine_threw, oracle_threw) << "feasibility verdicts diverge";
  if (engine_threw || oracle_threw) return std::nullopt;
  EXPECT_EQ(pe.machine_of_task, po.machine_of_task) << "placements diverge";
  // With identical placements the (shared, uncached) objective yields the
  // same double by construction; estimate drift between the engine's cached
  // rates and the uncached path is what CachedRatesEqualUncachedRates pins.
  return pe;
}

class EngineDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineDifferential, SequentialArrivalsBitIdentical) {
  Rng rng(GetParam());
  const std::size_t machines = static_cast<std::size_t>(rng.uniform_int(4, 28));
  ClusterView view = corpus_cluster(rng, machines);
  // Sometimes a co-located pair measures faster than the intra-machine
  // rate, so the co-located candidate is not the best and the greedy's
  // bound scan has to go on past it.
  if (rng.chance(0.3)) {
    for (std::size_t m = 0; m + 1 < machines; ++m) {
      if (view.colocated(m, m + 1)) {
        view.rate_bps(m, m + 1) = 2.0 * kIntraMachineRate;
        break;
      }
    }
  }
  ClusterState state(view);
  const RateModel model = rng.chance(0.5) ? RateModel::Hose : RateModel::Pipe;

  // A short arrival sequence: each app is placed by both implementations on
  // the *same* residual state, then committed, so later apps see the
  // contention earlier ones created.
  std::vector<std::pair<Application, Placement>> committed;
  for (int a = 0; a < 4; ++a) {
    const Application app = corpus_app(rng, machines);
    const auto placement = place_both(app, state, model);
    if (placement) {
      state.commit(app, *placement);
      committed.push_back({app, *placement});
    }
  }
  // Releasing the oldest app and re-placing is the migration-shaped path.
  if (committed.size() >= 2) {
    state.release(committed.front().first, committed.front().second);
    place_both(committed.front().first, state, model);
  }
}

TEST_P(EngineDifferential, CachedRatesEqualUncachedRates) {
  Rng rng(GetParam() + 1000);
  const std::size_t machines = static_cast<std::size_t>(rng.uniform_int(3, 16));
  ClusterState state(corpus_cluster(rng, machines));

  // Exercise non-trivial residual loads.
  GreedyPlacer greedy(RateModel::Hose);
  for (int a = 0; a < 2; ++a) {
    const Application app = corpus_app(rng, machines);
    try {
      state.commit(app, greedy.place(app, state));
    } catch (const PlacementError&) {
    }
  }

  const PlacementEngine& eng = state.engine();
  for (std::size_t m = 0; m < machines; ++m) {
    EXPECT_EQ(eng.hose_bps(m), state.view().hose_bps(m));
    EXPECT_EQ(eng.hose_cross_out_of(m), hose_cross_out(state.view(), m));
    for (std::size_t n = 0; n < machines; ++n) {
      for (const RateModel model : {RateModel::Hose, RateModel::Pipe}) {
        EXPECT_EQ(eng.rate_bps(m, n, model),
                  transfer_rate_bps(state.view(), m, n, model,
                                    state.transfers_on_path(m, n),
                                    state.transfers_out_of(m)));
        // The static bound the greedy prunes on really bounds the rate.
        EXPECT_LE(eng.rate_bps(m, n, model), eng.upper_bound_bps(m, n));
      }
    }
  }
}

TEST_P(EngineDifferential, PlacersLeaveStateUntouched) {
  Rng rng(GetParam() + 3000);
  const std::size_t machines = static_cast<std::size_t>(rng.uniform_int(4, 12));
  ClusterState state(corpus_cluster(rng, machines));
  GreedyPlacer greedy(RateModel::Hose);
  const Application base = corpus_app(rng, machines);
  try {
    state.commit(base, greedy.place(base, state));
  } catch (const PlacementError&) {
  }

  const auto snapshot = [&] {
    std::vector<double> s;
    for (std::size_t m = 0; m < machines; ++m) {
      s.push_back(state.free_cores(m));
      s.push_back(state.transfers_out_of(m));
      for (std::size_t n = 0; n < machines; ++n) s.push_back(state.transfers_on_path(m, n));
    }
    return s;
  };

  const std::vector<double> before = snapshot();
  const Application app = corpus_app(rng, machines);
  GreedyPlacer hose(RateModel::Hose), pipe(RateModel::Pipe);
  RandomPlacer random(GetParam());
  RoundRobinPlacer rr;
  MinMachinesPlacer mm;
  for (Placer* placer : {static_cast<Placer*>(&hose), static_cast<Placer*>(&pipe),
                         static_cast<Placer*>(&random), static_cast<Placer*>(&rr),
                         static_cast<Placer*>(&mm)}) {
    try {
      placer->place(app, state);
    } catch (const PlacementError&) {
    }
    EXPECT_EQ(snapshot(), before) << placer->name() << " leaked tentative state";
  }
}

TEST_P(EngineDifferential, UpdateViewEqualsRebuildAndReplay) {
  Rng rng(GetParam() + 4000);
  const std::size_t machines = static_cast<std::size_t>(rng.uniform_int(4, 14));
  ClusterState incremental(corpus_cluster(rng, machines));
  GreedyPlacer greedy(RateModel::Hose);

  std::vector<std::pair<Application, Placement>> committed;
  for (int a = 0; a < 3; ++a) {
    const Application app = corpus_app(rng, machines);
    try {
      const Placement p = greedy.place(app, incremental);
      incremental.commit(app, p);
      committed.push_back({app, p});
    } catch (const PlacementError&) {
    }
  }

  // A fresh measurement of the same fleet: different rates, cross traffic,
  // and even a different colocation clustering — but the same machines, so
  // the same CPU capacities.
  ClusterView refreshed = corpus_cluster(rng, machines);
  refreshed.cores = incremental.view().cores;
  incremental.update_view(refreshed);
  ClusterState replayed(refreshed);
  for (const auto& [app, p] : committed) replayed.commit(app, p);

  for (std::size_t m = 0; m < machines; ++m) {
    EXPECT_EQ(incremental.free_cores(m), replayed.free_cores(m));
    EXPECT_EQ(incremental.transfers_out_of(m), replayed.transfers_out_of(m));
    for (std::size_t n = 0; n < machines; ++n) {
      EXPECT_EQ(incremental.transfers_on_path(m, n), replayed.transfers_on_path(m, n));
    }
  }
  // And the next placement decision is identical on both states.
  const Application next = corpus_app(rng, machines);
  for (const RateModel model : {RateModel::Hose, RateModel::Pipe}) {
    GreedyPlacer g(model);
    Placement pi, pr;
    bool ti = false, tr = false;
    try {
      pi = g.place(next, incremental);
    } catch (const PlacementError&) {
      ti = true;
    }
    try {
      pr = g.place(next, replayed);
    } catch (const PlacementError&) {
      tr = true;
    }
    EXPECT_EQ(ti, tr);
    if (!ti && !tr) {
      EXPECT_EQ(pi.machine_of_task, pr.machine_of_task);
    }
  }
}

TEST_P(EngineDifferential, CloneUnoccupiedEqualsFreshState) {
  Rng rng(GetParam() + 5000);
  const std::size_t machines = static_cast<std::size_t>(rng.uniform_int(4, 12));
  const ClusterView view = corpus_cluster(rng, machines);
  ClusterState occupied(view);
  GreedyPlacer greedy(RateModel::Hose);
  const Application app = corpus_app(rng, machines);
  try {
    occupied.commit(app, greedy.place(app, occupied));
  } catch (const PlacementError&) {
  }

  const ClusterState scratch = occupied.clone_unoccupied();
  const ClusterState fresh(view);
  for (std::size_t m = 0; m < machines; ++m) {
    EXPECT_EQ(scratch.free_cores(m), fresh.free_cores(m));
    EXPECT_EQ(scratch.transfers_out_of(m), 0.0);
  }
  const Application next = corpus_app(rng, machines);
  try {
    const Placement ps = greedy.place(next, scratch);
    const Placement pf = greedy.place(next, fresh);
    EXPECT_EQ(ps.machine_of_task, pf.machine_of_task);
  } catch (const PlacementError&) {
  }
}

// Pins the hoisted cross-traffic subexpression in the static build (and the
// mirrored fast path in rate_bps): the cached static bound must equal the
// pre-hoist formula literal for literal — the max of the measured rate and
// the residual pipe rate of the un-shared path capacity with zero placed
// transfers. Any reassociation of the hoisted arithmetic breaks this
// bit-identity. Each row's largest off-diagonal bound, on which the greedy
// skips whole rows, is the max of those same doubles.
TEST_P(EngineDifferential, UpperBoundsEqualUnhoistedFormula) {
  Rng rng(GetParam() + 6000);
  const std::size_t machines = static_cast<std::size_t>(rng.uniform_int(3, 16));
  ClusterState state(corpus_cluster(rng, machines));
  const PlacementEngine& eng = state.engine();
  const ClusterView& view = state.view();
  for (std::size_t m = 0; m < machines; ++m) {
    double row_max = 0.0;
    for (std::size_t n = 0; n < machines; ++n) {
      if (m == n) continue;
      const double c = view.cross_traffic.empty() ? 0.0 : view.cross_traffic(m, n);
      const double expect = std::max(
          view.rate_bps(m, n),
          residual::pipe_rate_bps(view.path_capacity_bps(m, n), c, 0.0));
      EXPECT_EQ(eng.upper_bound_bps(m, n), expect);
      row_max = std::max(row_max, expect);
    }
    EXPECT_EQ(eng.peer_bound_max(m), row_max);
  }
}

// The serving plane's full copy: a clone must be indistinguishable from the
// original (same residuals, same next placement decision) and isolated from
// it (mutating one leaves the other untouched).
TEST_P(EngineDifferential, CloneEqualsOriginalAndIsIsolated) {
  Rng rng(GetParam() + 7000);
  const std::size_t machines = static_cast<std::size_t>(rng.uniform_int(4, 12));
  ClusterState original(corpus_cluster(rng, machines));
  GreedyPlacer greedy(RateModel::Hose);
  for (int a = 0; a < 2; ++a) {
    const Application app = corpus_app(rng, machines);
    try {
      original.commit(app, greedy.place(app, original));
    } catch (const PlacementError&) {
    }
  }

  ClusterState copy = original.clone();
  for (std::size_t m = 0; m < machines; ++m) {
    EXPECT_EQ(copy.free_cores(m), original.free_cores(m));
    EXPECT_EQ(copy.transfers_out_of(m), original.transfers_out_of(m));
    for (std::size_t n = 0; n < machines; ++n) {
      EXPECT_EQ(copy.transfers_on_path(m, n), original.transfers_on_path(m, n));
    }
  }

  const Application next = corpus_app(rng, machines);
  std::optional<Placement> pc, po;
  try {
    pc = greedy.place(next, copy);
  } catch (const PlacementError&) {
  }
  try {
    po = greedy.place(next, original);
  } catch (const PlacementError&) {
  }
  ASSERT_EQ(pc.has_value(), po.has_value());
  if (pc) {
    EXPECT_EQ(pc->machine_of_task, po->machine_of_task);
    // Isolation: committing into the clone leaves the original untouched.
    const double before = original.transfers_out_of(pc->machine_of_task[0]);
    copy.commit(next, *pc);
    EXPECT_EQ(original.transfers_out_of(pc->machine_of_task[0]), before);
  }

  // The other direction: the clone shares the original's static block, and
  // every later change to the original — a new view, a rate discount, a
  // commit — must leave the clone's view and bounds bit-identical.
  const ClusterView copy_view = copy.view();
  const StaticIndexes copy_statics = static_indexes(copy.engine());
  const ClusterState unoccupied = original.clone_unoccupied();
  ClusterView refreshed = corpus_cluster(rng, machines);
  refreshed.cores = original.view().cores;
  original.update_view(refreshed);
  DoubleMatrix factor(machines, machines, 1.0);
  for (std::size_t m = 0; m < machines; ++m) factor(m, (m + 1) % machines) = 0.5;
  original.apply_rate_discount(factor);
  const Application later = corpus_app(rng, machines);
  try {
    original.commit(later, greedy.place(later, original));
  } catch (const PlacementError&) {
  }
  for (const ClusterState* shared : {static_cast<const ClusterState*>(&copy), &unoccupied}) {
    expect_same_view(shared->view(), copy_view);
    expect_same_statics(static_indexes(shared->engine()), copy_statics);
  }
}

// A rate discount with one bad factor must throw before touching anything:
// the view and the bounds keep their values, and so does
// the free function's view.
TEST_P(EngineDifferential, RejectedRateDiscountLeavesEngineUntouched) {
  Rng rng(GetParam() + 9000);
  const std::size_t machines = static_cast<std::size_t>(rng.uniform_int(3, 14));
  ClusterState state(corpus_cluster(rng, machines));
  const ClusterView view_before = state.view();
  const StaticIndexes statics_before = static_indexes(state.engine());

  // Valid discounts everywhere except one late entry, so a scan that scales
  // as it checks would already have changed most rates when it throws.
  DoubleMatrix factor(machines, machines, 1.0);
  for (std::size_t m = 0; m < machines; ++m) {
    for (std::size_t n = 0; n < machines; ++n) factor(m, n) = rng.uniform(0.3, 1.0);
  }
  factor(machines - 1, machines - 2) = -0.5;

  EXPECT_THROW(state.apply_rate_discount(factor), PreconditionError);
  expect_same_view(state.view(), view_before);
  expect_same_statics(static_indexes(state.engine()), statics_before);

  ClusterView view = view_before;
  EXPECT_THROW(apply_rate_discount(view, factor), PreconditionError);
  expect_same_view(view, view_before);
}

// The ways a new view can differ from the last one, from nothing at all to
// everything; update_view must handle each exactly like a fresh build.
enum class ViewChange { kNone, kOnePair, kRow, kColumn, kFifth, kAll, kCrossOnly, kRegroup, kTies };

const char* to_string(ViewChange c) {
  switch (c) {
    case ViewChange::kNone: return "none";
    case ViewChange::kOnePair: return "one pair";
    case ViewChange::kRow: return "row";
    case ViewChange::kColumn: return "column";
    case ViewChange::kFifth: return "20% of pairs";
    case ViewChange::kAll: return "all pairs";
    case ViewChange::kCrossOnly: return "cross traffic only";
    case ViewChange::kRegroup: return "colocation regrouping";
    case ViewChange::kTies: return "tied bounds";
  }
  return "?";
}

ClusterView changed_view(const ClusterView& base, ViewChange change, Rng& rng) {
  ClusterView v = base;
  const std::size_t M = v.machine_count();
  const auto pick = [&] {
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(M) - 1));
  };
  const auto fresh_rate = [&] { return rng.uniform(mbps(200), mbps(1200)); };
  // Two rates shared by many peers, so many candidates tie on their bound
  // and exact rate and the tie-break alone decides between them.
  const auto tied_rate = [&] { return rng.chance(0.5) ? mbps(500) : mbps(800); };
  switch (change) {
    case ViewChange::kNone:
      break;
    case ViewChange::kOnePair: {
      const std::size_t m = pick();
      const std::size_t n = (m + 1 + pick() % (M - 1)) % M;
      v.rate_bps(m, n) = fresh_rate();
      break;
    }
    case ViewChange::kRow: {
      const std::size_t r = pick();
      for (std::size_t n = 0; n < M; ++n) {
        if (n != r) v.rate_bps(r, n) = fresh_rate();
      }
      break;
    }
    case ViewChange::kColumn: {
      const std::size_t c = pick();
      for (std::size_t m = 0; m < M; ++m) {
        if (m != c) v.rate_bps(m, c) = fresh_rate();
      }
      break;
    }
    case ViewChange::kFifth:
    case ViewChange::kAll:
      for (std::size_t m = 0; m < M; ++m) {
        for (std::size_t n = 0; n < M; ++n) {
          if (m != n && (change == ViewChange::kAll || rng.chance(0.2))) {
            v.rate_bps(m, n) = fresh_rate();
          }
        }
      }
      break;
    case ViewChange::kCrossOnly:
      if (v.cross_traffic.empty()) v.cross_traffic = DoubleMatrix(M, M, 0.0);
      for (std::size_t m = 0; m < M; ++m) {
        for (std::size_t n = 0; n < M; ++n) {
          if (m != n && rng.chance(0.3)) v.cross_traffic(m, n) = rng.uniform(0.0, 3.0);
        }
      }
      break;
    case ViewChange::kRegroup: {
      int group = 0;
      for (std::size_t m = 0; m < M; ++m) {
        if (m > 0 && !rng.chance(0.3)) ++group;
        v.colocation_group[m] = group;
      }
      break;
    }
    case ViewChange::kTies: {
      const std::size_t r = pick();
      const std::size_t c = pick();
      for (std::size_t m = 0; m < M; ++m) {
        for (std::size_t n = 0; n < M; ++n) {
          if (m != n && (m == r || n == c || rng.chance(0.2))) v.rate_bps(m, n) = tied_rate();
        }
      }
      break;
    }
  }
  return v;
}

// Seeded update_view sequences over every kind of change, each step checked
// against a fresh build of the same view: update_view must produce the same
// static indexes (==, not approximately) and the same residuals and greedy
// placements as rebuild-and-replay. A rate discount step rides along, since
// it builds its static block the same way.
TEST_P(EngineDifferential, UpdateViewEqualsFreshBuild) {
  Rng rng(GetParam() + 10000);
  const std::size_t machines = static_cast<std::size_t>(rng.uniform_int(4, 28));
  ClusterView initial = corpus_cluster(rng, machines);
  if (rng.chance(0.3)) initial = changed_view(initial, ViewChange::kTies, rng);
  ClusterState state(initial);
  GreedyPlacer greedy(RateModel::Hose);
  std::vector<std::pair<Application, Placement>> committed;
  for (int a = 0; a < 2; ++a) {
    const Application app = corpus_app(rng, machines);
    try {
      const Placement p = greedy.place(app, state);
      state.commit(app, p);
      committed.push_back({app, p});
    } catch (const PlacementError&) {
    }
  }

  std::vector<ViewChange> steps = {
      ViewChange::kNone,  ViewChange::kOnePair,   ViewChange::kRow,
      ViewChange::kColumn, ViewChange::kFifth,    ViewChange::kAll,
      ViewChange::kCrossOnly, ViewChange::kRegroup, ViewChange::kTies};
  rng.shuffle(steps);
  for (std::size_t step = 0; step <= steps.size(); ++step) {
    const bool discount = step == steps.size();
    SCOPED_TRACE(discount ? "rate discount" : to_string(steps[step]));
    if (discount) {
      DoubleMatrix factor(machines, machines, 1.0);
      for (std::size_t m = 0; m < machines; ++m) {
        for (std::size_t n = 0; n < machines; ++n) {
          if (rng.chance(0.1)) factor(m, n) = rng.uniform(0.5, 1.0);
        }
      }
      state.apply_rate_discount(factor);
    } else {
      state.update_view(changed_view(state.view(), steps[step], rng));
    }
    const ClusterView next = state.view();
    expect_same_statics(static_indexes(state.engine()),
                        static_indexes(PlacementEngine(next)));

    ClusterState replayed(next);
    for (const auto& [app, p] : committed) replayed.commit(app, p);
    for (std::size_t m = 0; m < machines; ++m) {
      EXPECT_EQ(state.transfers_out_of(m), replayed.transfers_out_of(m));
    }
    const Application app = corpus_app(rng, machines);
    for (const RateModel model : {RateModel::Hose, RateModel::Pipe}) {
      GreedyPlacer g(model);
      std::optional<Placement> pi, pr;
      try {
        pi = g.place(app, state);
      } catch (const PlacementError&) {
      }
      try {
        pr = g.place(app, replayed);
      } catch (const PlacementError&) {
      }
      ASSERT_EQ(pi.has_value(), pr.has_value());
      if (pi) {
        EXPECT_EQ(pi->machine_of_task, pr->machine_of_task);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineDifferential, ::testing::Range<std::uint64_t>(0, 40));

}  // namespace
}  // namespace choreo::place
