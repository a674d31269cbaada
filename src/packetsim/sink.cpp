#include "packetsim/sink.h"

#include "util/require.h"

namespace choreo::packetsim {

TrainSummary summarize(const std::vector<RecordingSink::Record>& records,
                       const TrainParams& params) {
  TrainSummary out;
  out.bursts.resize(params.bursts);
  for (const RecordingSink::Record& r : records) {
    CHOREO_REQUIRE(r.burst < params.bursts);
    BurstSummary& b = out.bursts[r.burst];
    if (b.count == 0) {
      b.t_first = r.time;
      b.seq_first = r.seq;
    }
    b.t_last = r.time;
    b.seq_last = r.seq;
    ++b.count;
  }
  return out;
}

}  // namespace choreo::packetsim
