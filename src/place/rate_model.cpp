#include "place/rate_model.h"

#include <algorithm>

#include "place/engine.h"

namespace choreo::place {

double hose_cross_out(const ClusterView& view, std::size_t m) {
  CHOREO_REQUIRE(m < view.machine_count());
  double c_out = 0.0;
  if (!view.cross_traffic.empty()) {
    // The hose is shared with whatever background the busiest path out of m
    // reports.
    for (std::size_t k = 0; k < view.machine_count(); ++k) {
      if (k != m && !view.colocated(m, k)) {
        c_out = std::max(c_out, view.cross_traffic(m, k));
      }
    }
  }
  return c_out;
}

double transfer_rate_bps(const ClusterView& view, std::size_t m, std::size_t n,
                         RateModel model, double placed_on_path,
                         double placed_out_of_src) {
  CHOREO_REQUIRE(m < view.machine_count() && n < view.machine_count());
  if (m == n) return kIntraMachineRate;

  if (view.colocated(m, n)) {
    return residual::vswitch_rate_bps(view.rate_bps(m, n), placed_on_path);
  }

  switch (model) {
    case RateModel::Pipe: {
      const double c = view.cross_traffic.empty() ? 0.0 : view.cross_traffic(m, n);
      return residual::pipe_rate_bps(view.path_capacity_bps(m, n), c, placed_on_path);
    }
    case RateModel::Hose:
      return residual::hose_rate_bps(view.rate_bps(m, n), view.hose_bps(m),
                                     hose_cross_out(view, m), placed_out_of_src);
  }
  CHOREO_ASSERT(false);
  return 0.0;
}

double transfer_rate_bps(const ClusterState& state, std::size_t m, std::size_t n,
                         RateModel model) {
  return state.engine().rate_bps(m, n, model);
}

double estimate_completion_s(const Application& app, const Placement& placement,
                             const ClusterView& view, RateModel model) {
  app.validate();
  CHOREO_REQUIRE(placement.machine_of_task.size() == app.task_count());
  CHOREO_REQUIRE(placement.complete());

  // Aggregate bytes per machine path — the same inter-machine transfer
  // enumeration the residual indexes are maintained with (intra-machine
  // traffic is free and never counted). Only the app's own paths are kept,
  // sorted by (source, destination); the stable sort keeps each path's bytes
  // in enumeration order, so every sum below adds the same doubles in the
  // same order a dense machine x machine accumulation would.
  struct PathBytes {
    std::size_t m, n;
    double bytes;
  };
  std::vector<PathBytes> paths;
  for_each_placed_transfer(app, placement, [&](std::size_t m, std::size_t n, double b) {
    paths.push_back({m, n, b});
  });
  std::stable_sort(paths.begin(), paths.end(), [](const PathBytes& a, const PathBytes& b) {
    return a.m != b.m ? a.m < b.m : a.n < b.n;
  });

  // Hose model: everything leaving machine m for another host drains through
  // m's hose; colocated-destination traffic drains through the vswitch path.
  // Each individual path additionally cannot drain faster than its measured
  // single-connection rate (slow fabric paths stay slow even on an idle
  // hose). Pipe model: the paths alone.
  double worst = 0.0;
  for (std::size_t k = 0; k < paths.size();) {
    const std::size_t m = paths[k].m;
    double hose_bytes = 0.0;
    while (k < paths.size() && paths[k].m == m) {
      const std::size_t n = paths[k].n;
      double data = 0.0;
      for (; k < paths.size() && paths[k].m == m && paths[k].n == n; ++k) {
        data += paths[k].bytes;
      }
      worst = std::max(worst, data * 8.0 / view.rate_bps(m, n));
      if (!view.colocated(m, n)) hose_bytes += data;
    }
    if (model == RateModel::Hose && hose_bytes > 0.0) {
      worst = std::max(worst, hose_bytes * 8.0 / view.hose_bps(m));
    }
  }
  return worst;
}

}  // namespace choreo::place
