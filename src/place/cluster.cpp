#include "place/cluster.h"

#include <algorithm>

#include "place/engine.h"

namespace choreo::place {

const char* to_string(RateModel m) {
  switch (m) {
    case RateModel::Pipe: return "pipe";
    case RateModel::Hose: return "hose";
  }
  return "?";
}

double ClusterView::hose_bps(std::size_t m) const {
  CHOREO_REQUIRE(m < machine_count());
  double best = 0.0;
  for (std::size_t n = 0; n < machine_count(); ++n) {
    if (n == m || colocated(m, n)) continue;
    best = std::max(best, rate_bps(m, n));
  }
  if (best == 0.0) {
    // All peers are colocated (or single machine): fall back to any rate.
    for (std::size_t n = 0; n < machine_count(); ++n) {
      if (n != m) best = std::max(best, rate_bps(m, n));
    }
  }
  return best;
}

double ClusterView::path_capacity_bps(std::size_t m, std::size_t n) const {
  CHOREO_REQUIRE(m < machine_count() && n < machine_count());
  CHOREO_REQUIRE(m != n);
  const double c = cross_traffic.empty() ? 0.0 : cross_traffic(m, n);
  return rate_bps(m, n) * (c + 1.0);
}

void ClusterView::validate() const {
  CHOREO_REQUIRE(!cores.empty());
  CHOREO_REQUIRE(rate_bps.rows() == cores.size() && rate_bps.cols() == cores.size());
  CHOREO_REQUIRE(colocation_group.size() == cores.size());
  if (!cross_traffic.empty()) {
    CHOREO_REQUIRE(cross_traffic.rows() == cores.size() &&
                   cross_traffic.cols() == cores.size());
  }
  if (!hops.empty()) {
    CHOREO_REQUIRE(hops.rows() == cores.size() && hops.cols() == cores.size());
  }
  if (!pair_epoch.empty()) {
    CHOREO_REQUIRE(pair_epoch.rows() == cores.size() &&
                   pair_epoch.cols() == cores.size());
  }
  for (double c : cores) CHOREO_REQUIRE(c > 0.0);
  for (std::size_t i = 0; i < cores.size(); ++i) {
    for (std::size_t j = 0; j < cores.size(); ++j) {
      if (i != j) CHOREO_REQUIRE(rate_bps(i, j) > 0.0);
    }
  }
}

void apply_rate_discount(ClusterView& view, const DoubleMatrix& factor) {
  const std::size_t n = view.machine_count();
  CHOREO_REQUIRE(factor.rows() == n && factor.cols() == n);
  // Every factor is checked before any rate is scaled, so a rejected
  // discount leaves the view untouched.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) {
        CHOREO_REQUIRE_MSG(factor(i, j) >= 0.0, "rate discount must be non-negative");
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) view.rate_bps(i, j) *= factor(i, j);
    }
  }
}

ClusterState::ClusterState(ClusterView view)
    : engine_(std::make_unique<PlacementEngine>(std::move(view))) {}

ClusterState::ClusterState(std::unique_ptr<PlacementEngine> engine)
    : engine_(std::move(engine)) {}

ClusterState::~ClusterState() = default;
ClusterState::ClusterState(ClusterState&&) noexcept = default;
ClusterState& ClusterState::operator=(ClusterState&&) noexcept = default;

const ClusterView& ClusterState::view() const { return engine_->view(); }

std::size_t ClusterState::machine_count() const { return engine_->machine_count(); }

double ClusterState::free_cores(std::size_t m) const {
  CHOREO_REQUIRE(m < machine_count());
  return engine_->free_cores(m);
}

double ClusterState::transfers_on_path(std::size_t m, std::size_t n) const {
  CHOREO_REQUIRE(m < machine_count() && n < machine_count());
  return engine_->transfers_on_path(m, n);
}

double ClusterState::transfers_out_of(std::size_t m) const {
  CHOREO_REQUIRE(m < machine_count());
  return engine_->transfers_out_of(m);
}

void ClusterState::commit(const Application& app, const Placement& placement) {
  engine_->commit(app, placement);
}

void ClusterState::release(const Application& app, const Placement& placement) {
  engine_->release(app, placement);
}

void ClusterState::update_view(ClusterView view) { engine_->update_view(std::move(view)); }

void ClusterState::apply_rate_discount(const DoubleMatrix& factor) {
  engine_->apply_rate_discount(factor);
}

ClusterState ClusterState::clone_unoccupied() const {
  return ClusterState(std::make_unique<PlacementEngine>(engine_->clone_unoccupied()));
}

ClusterState ClusterState::clone() const {
  return ClusterState(std::make_unique<PlacementEngine>(engine_->clone()));
}

}  // namespace choreo::place
