#pragma once

#include <memory>
#include <vector>

#include "packetsim/event_queue.h"
#include "packetsim/link.h"
#include "packetsim/packet.h"
#include "packetsim/sink.h"
#include "packetsim/token_bucket.h"

namespace choreo::packetsim {

/// Description of one hop of a unidirectional path.
struct HopSpec {
  double rate_bps = 1e9;
  double delay_s = 20e-6;
  double queue_bytes = 512 * 1024;
};

/// Description of the source-side rate limiter (hose enforcement).
struct ShaperSpec {
  bool enabled = true;
  double rate_bps = 1e9;
  double depth_bytes = 30e3;
  double idle_reset_s = -1.0;
};

/// Owns a linear chain of elements modelling one VM-to-VM direction:
///
///   entry -> [token-bucket shaper] -> hop_1 -> ... -> hop_n -> terminal
///
/// The terminal element is supplied by the caller (a RecordingSink for
/// probe trains). Hops expose their Link objects for inspection.
class Path {
 public:
  Path(EventQueue& events, const ShaperSpec& shaper, const std::vector<HopSpec>& hops,
       Element* terminal);

  /// First element of the chain; feed packets here.
  Element& entry();

  /// The i-th hop's link (0-based).
  Link& hop(std::size_t i);
  std::size_t hop_count() const { return links_.size(); }

  TokenBucket* shaper() { return shaper_.get(); }

 private:
  std::vector<std::unique_ptr<Link>> links_;  // stored last-to-first
  std::unique_ptr<TokenBucket> shaper_;
  Element* entry_ = nullptr;
};

}  // namespace choreo::packetsim
