#pragma once

#include <cstdint>
#include <vector>

#include "packetsim/packet.h"
#include "util/rng.h"

namespace choreo::packetsim {

/// Terminal element that records packet arrivals, emulating a receiver that
/// logs SO_TIMESTAMPNS kernel timestamps (§3.1). Optional Gaussian jitter
/// models timestamping/interrupt noise; recorded times are clamped to be
/// monotonic, as kernel timestamps are.
class RecordingSink : public Element {
 public:
  struct Record {
    std::uint64_t flow = 0;
    std::uint64_t seq = 0;
    std::uint32_t burst = 0;
    std::uint32_t wire_bytes = 0;
    double time = 0.0;
  };

  RecordingSink() : rng_(0) {}
  RecordingSink(double timestamp_jitter_s, std::uint64_t seed)
      : jitter_s_(timestamp_jitter_s), rng_(seed) {}

  void receive(const Packet& pkt, double now) override {
    double t = now;
    if (jitter_s_ > 0.0) t += rng_.normal(0.0, jitter_s_);
    if (!records_.empty()) t = std::max(t, records_.back().time);
    records_.push_back(Record{pkt.flow, pkt.seq, pkt.burst, pkt.wire_bytes, t});
  }

  const std::vector<Record>& records() const { return records_; }
  std::size_t count() const { return records_.size(); }
  void clear() { records_.clear(); }

 private:
  double jitter_s_ = 0.0;
  Rng rng_;
  std::vector<Record> records_;
};

}  // namespace choreo::packetsim
