#include "oracles/event_train.h"

#include <limits>

namespace choreo::packetsim {

Link::Link(EventQueue& events, std::uint32_t hop, double rate_bps, double delay_s,
           double queue_bytes, Element* next)
    : events_(events),
      hop_(hop),
      rate_bps_(rate_bps),
      delay_s_(delay_s),
      queue_limit_bytes_(queue_bytes),
      next_(next) {
  CHOREO_REQUIRE(rate_bps > 0.0);
  CHOREO_REQUIRE(delay_s >= 0.0);
  CHOREO_REQUIRE(queue_bytes >= 0.0);
  CHOREO_REQUIRE(next != nullptr);
}

void Link::receive(const Packet& pkt, double now) {
  if (busy_ && queued_bytes_ + pkt.wire_bytes > queue_limit_bytes_) {
    ++drops_;
    return;
  }
  queue_.push_back(pkt);
  queued_bytes_ += pkt.wire_bytes;
  if (!busy_) start_service(now);
}

void Link::start_service(double now) {
  CHOREO_ASSERT(!queue_.empty());
  busy_ = true;
  const Packet pkt = queue_.front();
  const double tx_time = static_cast<double>(pkt.wire_bytes) * 8.0 / rate_bps_;
  events_.schedule(now + tx_time, {now, EventKey::kCompletion, hop_, pkt.seq}, [this, pkt] {
    const double t = events_.now();
    queue_.pop_front();
    queued_bytes_ -= pkt.wire_bytes;
    // Propagation: hand to the next element after the link delay.
    const Packet delivered = pkt;
    events_.schedule(t + delay_s_, {t, EventKey::kArrival, hop_ + 1, pkt.seq},
                     [this, delivered] { next_->receive(delivered, events_.now()); });
    if (!queue_.empty()) {
      start_service(t);
    } else {
      busy_ = false;
    }
  });
}

TokenBucket::TokenBucket(EventQueue& events, double rate_bps, double depth_bytes,
                         Element* next, double idle_reset_s)
    : events_(events),
      rate_bps_(rate_bps),
      depth_bytes_(depth_bytes),
      next_(next),
      idle_reset_s_(idle_reset_s) {
  CHOREO_REQUIRE(rate_bps > 0.0);
  CHOREO_REQUIRE(depth_bytes > 0.0);
  CHOREO_REQUIRE(next != nullptr);
}

void TokenBucket::receive(const Packet& pkt, double now) {
  CHOREO_REQUIRE(pkt.wire_bytes <= depth_bytes_);
  const double increment = static_cast<double>(pkt.wire_bytes) * 8.0 / rate_bps_;
  const double tolerance = (depth_bytes_ - pkt.wire_bytes) * 8.0 / rate_bps_;
  if (idle_reset_s_ >= 0.0 && now - departure_ >= idle_reset_s_) tat_ = now;
  departure_ = std::max({now, departure_, tat_ - tolerance});
  tat_ = std::max(tat_, departure_) + increment;
  if (departure_ == now) {
    next_->receive(pkt, now);
    return;
  }
  events_.schedule(departure_, {now, EventKey::kArrival, 0, pkt.seq},
                   [this, pkt] { next_->receive(pkt, events_.now()); });
}

Path::Path(EventQueue& events, const ShaperSpec& shaper, const std::vector<HopSpec>& hops,
           Element* terminal) {
  CHOREO_REQUIRE(terminal != nullptr);
  CHOREO_REQUIRE(!hops.empty() || shaper.enabled);

  // Build the chain back to front so each element knows its successor.
  Element* next = terminal;
  for (std::size_t h = hops.size(); h-- > 0;) {
    links_.push_back(std::make_unique<Link>(events, static_cast<std::uint32_t>(h),
                                            hops[h].rate_bps, hops[h].delay_s,
                                            hops[h].queue_bytes, next));
    next = links_.back().get();
  }
  if (shaper.enabled) {
    shaper_ = std::make_unique<TokenBucket>(events, shaper.rate_bps, shaper.depth_bytes,
                                            next, shaper.idle_reset_s);
    next = shaper_.get();
  }
  entry_ = next;
}

Element& Path::entry() {
  CHOREO_ASSERT(entry_ != nullptr);
  return *entry_;
}

Link& Path::hop(std::size_t i) {
  CHOREO_REQUIRE(i < links_.size());
  // links_ is stored last-to-first; translate to first-to-last indexing.
  return *links_[links_.size() - 1 - i];
}

double send_train(EventQueue& events, Element& first, const TrainParams& params,
                  std::uint64_t flow_id, double start_time) {
  CHOREO_REQUIRE(params.bursts >= 1 && params.burst_length >= 2);
  CHOREO_REQUIRE(params.packet_bytes >= 1);
  CHOREO_REQUIRE(params.line_rate_bps > 0.0);
  CHOREO_REQUIRE(start_time >= events.now());

  const std::uint32_t wire = params.packet_bytes + params.header_bytes;
  const double spacing = static_cast<double>(wire) * 8.0 / params.line_rate_bps;

  double t = start_time;
  std::uint64_t seq = 0;
  double last_emission = start_time;
  // Every emission is scheduled before the queue runs: keyed at -inf, it
  // fires before any other event at its instant.
  constexpr double kEmitted = -std::numeric_limits<double>::infinity();
  for (std::uint32_t k = 0; k < params.bursts; ++k) {
    for (std::uint32_t i = 0; i < params.burst_length; ++i) {
      Packet pkt;
      pkt.flow = flow_id;
      pkt.seq = seq++;
      pkt.burst = k;
      pkt.wire_bytes = wire;
      pkt.sent_time = t;
      events.schedule(t, {kEmitted, EventKey::kArrival, 0, pkt.seq},
                      [&first, pkt] { first.receive(pkt, pkt.sent_time); });
      last_emission = t;
      t += spacing;
    }
    t += params.inter_burst_gap_s;
  }
  return last_emission;
}

}  // namespace choreo::packetsim
