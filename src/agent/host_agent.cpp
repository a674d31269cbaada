#include "agent/host_agent.h"

#include <algorithm>
#include <utility>

#include "util/require.h"

namespace choreo::agent {
namespace {

/// Retransmit backoff cap: timeout * 2^attempt stops doubling here.
constexpr std::uint32_t kMaxBackoffExponent = 6;

}  // namespace

HostAgent::HostAgent(std::uint32_t id, AgentOptions options, ProbeExecutor executor)
    : id_(id), opts_(std::move(options)), executor_(std::move(executor)) {
  CHOREO_REQUIRE_MSG(executor_ != nullptr, "HostAgent needs a probe executor");
  CHOREO_REQUIRE_MSG(opts_.retry_timeout_cycles >= 1, "retry timeout must be >= 1 cycle");
}

void HostAgent::crash(std::uint64_t cycle) {
  if (down_) return;
  down_ = true;
  restart_cycle_ = cycle + opts_.down_cycles;
  // Volatile state dies with the process: queued samples, unacked in-flight
  // reports, any pending Hello. Nothing from this generation may ever be
  // retransmitted — the controller's stale-generation guard relies on it.
  queue_.clear();
  pending_.clear();
  hello_pending_ = false;
  ++stats_.crashes;
}

void HostAgent::deliver(const proto::Message& msg, std::uint64_t cycle) {
  (void)cycle;
  if (down_) return;  // a crashed host drops everything on the floor
  switch (msg.type) {
    case proto::MsgType::kProbeRequest: {
      const auto& req = msg.probe_request;
      for (const auto& p : req.probes) {
        const double rate = executor_(p.src, p.dst, p.round, req.epoch);
        ++stats_.probes_run;
        queue_.push_back(proto::RateSample{p.src, p.dst, req.epoch, rate});
      }
      break;
    }
    case proto::MsgType::kAck: {
      const auto& ack = msg.ack;
      if (ack.generation != generation_) break;  // ack for a dead incarnation
      pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                    [&](const PendingReport& p) {
                                      return p.report.seq == ack.seq;
                                    }),
                     pending_.end());
      break;
    }
    case proto::MsgType::kHelloAck:
      if (msg.hello_ack.generation == generation_) hello_pending_ = false;
      break;
    default:
      break;  // hosts ignore message types not addressed to them
  }
}

void HostAgent::send_report(const proto::StatsReport& report, std::uint64_t cycle,
                            net::SimTransport& transport) {
  transport.send(endpoint_of(id_), kClusterEndpoint, proto::encode(report), cycle);
}

void HostAgent::tick(std::uint64_t cycle, net::SimTransport& transport) {
  if (down_) {
    if (cycle < restart_cycle_) return;
    down_ = false;
    ++generation_;
    next_seq_ = 0;
    hello_pending_ = true;
    ++stats_.restarts;
  }

  if (hello_pending_) {
    // Re-announce every cycle until the controller acks the new generation;
    // Hello is tiny and idempotent, so no backoff bookkeeping is needed.
    transport.send(endpoint_of(id_), kClusterEndpoint,
                   proto::encode(proto::Hello{id_, generation_}), cycle);
  }

  // Retransmit due unacked reports first — oldest data has priority on the
  // wire — with exponential backoff capped at kMaxBackoffExponent doublings.
  for (auto& p : pending_) {
    if (p.next_retry > cycle) continue;
    send_report(p.report, cycle, transport);
    ++stats_.retransmits;
    const std::uint32_t exponent = std::min(p.attempts, kMaxBackoffExponent);
    p.next_retry = cycle + (opts_.retry_timeout_cycles << exponent);
    ++p.attempts;
  }

  // Pack queued samples into fresh reports under the per-cycle budget.
  std::size_t reports_this_cycle = 0;
  while (!queue_.empty()) {
    if (opts_.max_reports_per_cycle > 0 &&
        reports_this_cycle >= opts_.max_reports_per_cycle) {
      break;
    }
    proto::StatsReport report;
    report.agent = id_;
    report.generation = generation_;
    report.seq = next_seq_++;
    const std::size_t take = opts_.max_samples_per_report == 0
                                 ? queue_.size()
                                 : std::min(queue_.size(), opts_.max_samples_per_report);
    report.samples.assign(queue_.begin(), queue_.begin() + static_cast<std::ptrdiff_t>(take));
    queue_.erase(queue_.begin(), queue_.begin() + static_cast<std::ptrdiff_t>(take));
    send_report(report, cycle, transport);
    ++stats_.reports_sent;
    ++reports_this_cycle;
    PendingReport pending;
    pending.report = std::move(report);
    pending.next_retry = cycle + opts_.retry_timeout_cycles;
    pending.attempts = 1;
    pending_.push_back(std::move(pending));
  }
  stats_.samples_deferred += queue_.size();
}

}  // namespace choreo::agent
