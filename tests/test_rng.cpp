#include "util/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/stats.h"

namespace choreo {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 20; ++i) {
    if (a.uniform(0, 1) != b.uniform(0, 1)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformRespectsRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(1, 3);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 3);
    saw_lo |= (v == 1);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  Accumulator acc;
  for (int i = 0; i < 20000; ++i) acc.add(rng.exponential(5.0));
  EXPECT_NEAR(acc.mean(), 5.0, 0.15);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  Accumulator acc;
  for (int i = 0; i < 20000; ++i) acc.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(acc.mean(), 10.0, 0.1);
  EXPECT_NEAR(acc.stddev(), 2.0, 0.1);
}

TEST(Rng, NormalZeroStddevIsDeterministic) {
  Rng rng(1);
  EXPECT_DOUBLE_EQ(rng.normal(3.0, 0.0), 3.0);
}

TEST(Rng, ParetoAboveScale) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.pareto(1.5, 2.0), 2.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(23);
  std::vector<std::size_t> counts(3, 0);
  for (int i = 0; i < 30000; ++i) {
    ++counts[rng.weighted_index({1.0, 0.0, 3.0})];
  }
  EXPECT_EQ(counts[1], 0u);
  EXPECT_NEAR(static_cast<double>(counts[2]) / static_cast<double>(counts[0]), 3.0, 0.3);
}

TEST(Rng, WeightedIndexRejectsDegenerate) {
  Rng rng(1);
  EXPECT_THROW(rng.weighted_index({}), PreconditionError);
  EXPECT_THROW(rng.weighted_index({0.0, 0.0}), PreconditionError);
  EXPECT_THROW(rng.weighted_index({-1.0, 2.0}), PreconditionError);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  auto resorted = v;
  std::sort(resorted.begin(), resorted.end());
  EXPECT_EQ(resorted, sorted);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(42);
  Rng child = a.fork();
  // The child stream should not replay the parent's output.
  Rng b(42);
  (void)b.engine()();  // parent consumed one draw to fork
  bool differs = false;
  for (int i = 0; i < 10; ++i) {
    if (child.uniform(0, 1) != b.uniform(0, 1)) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(KeyedExponential, EveryDrawIsFiniteAndStrictlyPositive) {
  // The extreme words: u = 1 - 2^-53 and u = 2^-53, never 1 or 0.
  EXPECT_EQ(unit_exponential(~std::uint64_t{0}), -std::log(1.0 - 0x1p-53));
  EXPECT_GT(unit_exponential(~std::uint64_t{0}), 0.0);
  EXPECT_EQ(unit_exponential(0), -std::log(0x1p-53));
  EXPECT_TRUE(std::isfinite(unit_exponential(0)));
  for (std::uint64_t k = 0; k < 100000; ++k) {
    const double e = keyed_exponential(0x0ff, k);
    ASSERT_GT(e, 0.0) << k;
    ASSERT_LE(e, unit_exponential(0)) << k;
  }
}

TEST(KeyedExponential, PureFunctionOfKeyAndIndexWithUnitMean) {
  Accumulator acc;
  for (std::uint64_t k = 0; k < 20000; ++k) acc.add(keyed_exponential(42, k));
  EXPECT_NEAR(acc.mean(), 1.0, 0.03);
  // Any order, same values; another key, another stream.
  for (std::uint64_t k = 20000; k-- > 0;) {
    ASSERT_EQ(keyed_exponential(42, k), unit_exponential(splitmix64_at(42, k)));
  }
  EXPECT_NE(keyed_exponential(42, 0), keyed_exponential(43, 0));
}

}  // namespace
}  // namespace choreo
