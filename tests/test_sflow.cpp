#include "sflow.h"

#include <gtest/gtest.h>

#include "util/stats.h"
#include "util/units.h"

namespace choreo::core {
namespace {

using units::gigabytes;
using units::megabytes;

TEST(Sflow, HeavyFlowsEstimatedAccurately) {
  Rng rng(1);
  std::vector<ObservedTransfer> transfers{
      {0, 1, gigabytes(4)},
      {1, 2, gigabytes(2)},
  };
  SflowConfig cfg;
  cfg.sampling_rate = 1024;
  const Profiler prof = profile_from_sflow(3, transfers, cfg, rng);
  // 4 GB at 1500 B/packet ~ 2.7M packets, ~2600 samples: ~2% noise expected.
  EXPECT_LT(relative_error(prof.traffic_matrix()(0, 1), gigabytes(4)), 0.06);
  EXPECT_LT(relative_error(prof.traffic_matrix()(1, 2), gigabytes(2)), 0.08);
  // The RELATIVE ordering — which is what placement needs — is preserved.
  EXPECT_GT(prof.traffic_matrix()(0, 1), prof.traffic_matrix()(1, 2));
}

TEST(Sflow, TinyFlowsMayVanish) {
  Rng rng(2);
  // 30 KB = 20 packets at 1:1024 sampling: usually zero samples.
  std::vector<ObservedTransfer> transfers{{0, 1, 30e3}};
  SflowConfig cfg;
  cfg.sampling_rate = 1024;
  std::size_t empty_runs = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const auto records = sflow_sample(transfers, cfg, rng);
    if (records.empty()) ++empty_runs;
  }
  EXPECT_GT(empty_runs, 15u);  // the sFlow blind spot is real
}

TEST(Sflow, SamplingRateOneIsLossless) {
  Rng rng(3);
  std::vector<ObservedTransfer> transfers{{0, 1, megabytes(1.5)}};
  SflowConfig cfg;
  cfg.sampling_rate = 1;
  const auto records = sflow_sample(transfers, cfg, rng);
  // ceil(1.5e6/1500) = 1000 packets, each carried verbatim.
  EXPECT_EQ(records.size(), 1000u);
  double total = 0.0;
  for (const auto& r : records) total += r.bytes;
  EXPECT_NEAR(total, megabytes(1.5), 1500.0);
}

TEST(Sflow, RejectsBadConfig) {
  Rng rng(5);
  std::vector<ObservedTransfer> transfers{{0, 1, 1e6}};
  SflowConfig cfg;
  cfg.sampling_rate = 0;
  EXPECT_THROW(sflow_sample(transfers, cfg, rng), PreconditionError);
}

/// Property: estimation error shrinks roughly as 1/sqrt(samples) — coarser
/// sampling rates give noisier matrices.
class SflowAccuracy : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SflowAccuracy, ErrorWithinStatisticalBound) {
  Rng rng(GetParam());
  const double truth = gigabytes(8);
  std::vector<ObservedTransfer> transfers{{0, 1, truth}};
  SflowConfig cfg;
  cfg.sampling_rate = 4096;
  const auto records = sflow_sample(transfers, cfg, rng);
  double est = 0.0;
  for (const auto& r : records) est += r.bytes;
  // ~1300 expected samples: 4-sigma bound ~ 11%.
  EXPECT_LT(relative_error(est, truth), 0.11) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SflowAccuracy, ::testing::Range<std::uint32_t>(1, 13));

}  // namespace
}  // namespace choreo::core
