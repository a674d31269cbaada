#include "core/sharded.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "util/require.h"
#include "util/worker_pool.h"

namespace choreo::core {

ShardedSession::ShardedSession(cloud::Cloud& cloud, std::vector<TenantSpec> tenants,
                               ShardedOptions options)
    : cloud_(cloud), tenants_(std::move(tenants)), opts_(options) {
  validate_tenants(tenants_);
}

MultiTenantLog ShardedSession::run() {
  CHOREO_REQUIRE_MSG(!ran_, "run() may be called once");
  ran_ = true;
  CHOREO_OBS_SPAN(run_span, opts_.obs, "sharded.run", "sharded");

  const std::size_t n = tenants_.size();
  const unsigned threads = std::max(1u, opts_.threads);

  std::vector<SessionLog> logs(n);
  stats_.assign(n, SessionRuntime::Stats{});
  std::atomic<std::size_t> next{0};
  util::run_workers(threads, [&](unsigned) {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      RuntimeOptions options;
      options.record_events = opts_.record_events;
      options.record_outcomes = opts_.record_outcomes;
      options.tenant = static_cast<std::uint32_t>(i);
      SessionRuntime runtime(cloud_, tenants_[i].vms, tenants_[i].config,
                             std::move(options));
      logs[i] = runtime.run(*tenants_[i].stream);
      stats_[i] = runtime.stats();
    }
  });
  run_span.arg("tenants", static_cast<double>(n));
  run_span.arg("threads", static_cast<double>(threads));
  return merge_tenant_logs(std::move(logs));
}

}  // namespace choreo::core
