#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <vector>

namespace gdp::common {
namespace {

TEST(SplitMix64Test, DistinctOutputsFromSequentialStates) {
  std::uint64_t state = 0;
  const auto a = SplitMix64(state);
  const auto b = SplitMix64(state);
  const auto c = SplitMix64(state);
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
  EXPECT_NE(a, c);
}

TEST(SplitMix64Test, DeterministicForEqualState) {
  std::uint64_t s1 = 42;
  std::uint64_t s2 = 42;
  EXPECT_EQ(SplitMix64(s1), SplitMix64(s2));
}

TEST(Pcg64Test, SameSeedSameStream) {
  Pcg64 a(123);
  Pcg64 b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Pcg64Test, DifferentSeedsDiverge) {
  Pcg64 a(1);
  Pcg64 b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) {
      ++equal;
    }
  }
  EXPECT_LE(equal, 1);
}

TEST(Pcg64Test, ReseedRestartsStream) {
  Pcg64 a(7);
  const auto first = a();
  (void)a();
  a.Reseed(7);
  EXPECT_EQ(a(), first);
}

TEST(Pcg64Test, AdvanceEqualsThatManyDraws) {
  for (const std::uint64_t n : {0ULL, 1ULL, 2ULL, 7ULL, 64ULL, 1000ULL, 4097ULL}) {
    Rng jumped(77);
    Rng stepped(77);
    jumped.Advance(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      (void)stepped();
    }
    EXPECT_EQ(jumped(), stepped()) << "n = " << n;
    EXPECT_EQ(jumped.Fork(3)(), stepped.Fork(3)()) << "n = " << n;
  }
}

TEST(Pcg64Test, SatisfiesUniformRandomBitGenerator) {
  static_assert(std::uniform_random_bit_generator<Pcg64>);
  EXPECT_EQ(Pcg64::min(), 0u);
  EXPECT_EQ(Pcg64::max(), std::numeric_limits<std::uint64_t>::max());
}

TEST(RngTest, UniformUnitWithinHalfOpenInterval) {
  Rng rng(99);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.UniformUnit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformPositiveUnitNeverZero) {
  Rng rng(99);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.UniformPositiveUnit();
    EXPECT_GT(u, 0.0);
    EXPECT_LE(u, 1.0);
  }
}

TEST(RngTest, UniformUnitMeanNearHalf) {
  Rng rng(5);
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    sum += rng.UniformUnit();
  }
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(RngTest, UniformDoubleRespectsBounds) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.UniformDouble(-3.5, 2.25);
    EXPECT_GE(x, -3.5);
    EXPECT_LT(x, 2.25);
  }
}

TEST(RngTest, UniformDoubleRejectsBadBounds) {
  Rng rng(1);
  EXPECT_THROW((void)rng.UniformDouble(1.0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)rng.UniformDouble(2.0, 1.0), std::invalid_argument);
  EXPECT_THROW(
      (void)rng.UniformDouble(0.0, std::numeric_limits<double>::infinity()),
      std::invalid_argument);
}

TEST(RngTest, UniformIntBoundZeroThrows) {
  Rng rng(1);
  EXPECT_THROW((void)rng.UniformInt(std::uint64_t{0}), std::invalid_argument);
}

TEST(RngTest, UniformIntCoversSmallRangeUniformly) {
  Rng rng(17);
  constexpr std::uint64_t kBound = 10;
  constexpr int kN = 100000;
  std::vector<int> counts(kBound, 0);
  for (int i = 0; i < kN; ++i) {
    ++counts[rng.UniformInt(kBound)];
  }
  for (const int c : counts) {
    // Expected 10000 per bucket; 5-sigma band ~ +-500.
    EXPECT_NEAR(c, kN / static_cast<int>(kBound), 500);
  }
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t x = rng.UniformInt(std::int64_t{-2}, std::int64_t{2});
    EXPECT_GE(x, -2);
    EXPECT_LE(x, 2);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(RngTest, UniformIntInclusiveRejectsInvertedRange) {
  Rng rng(3);
  EXPECT_THROW((void)rng.UniformInt(std::int64_t{3}, std::int64_t{2}),
               std::invalid_argument);
}

TEST(RngTest, UniformIntSingletonRange) {
  Rng rng(3);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rng.UniformInt(std::int64_t{7}, std::int64_t{7}), 7);
  }
}

TEST(RngTest, BernoulliEdgeProbabilities) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRejectsOutOfRange) {
  Rng rng(23);
  EXPECT_THROW((void)rng.Bernoulli(-0.1), std::invalid_argument);
  EXPECT_THROW((void)rng.Bernoulli(1.1), std::invalid_argument);
}

TEST(RngTest, BernoulliFrequencyMatchesP) {
  Rng rng(29);
  constexpr int kN = 100000;
  int ones = 0;
  for (int i = 0; i < kN; ++i) {
    ones += rng.Bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(ones) / kN, 0.3, 0.01);
}

TEST(RngTest, ForkProducesDecorrelatedStreams) {
  Rng parent(77);
  Rng child1 = parent.Fork(1);
  Rng child2 = parent.Fork(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (child1() == child2()) {
      ++equal;
    }
  }
  EXPECT_LE(equal, 1);
}

TEST(RngTest, ForkIsDeterministicGivenParentState) {
  Rng p1(55);
  Rng p2(55);
  Rng c1 = p1.Fork(9);
  Rng c2 = p2.Fork(9);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(c1(), c2());
  }
}

TEST(RngTest, ForkStreamsMatchesSequentialForkOrder) {
  // The parallel engines rely on ForkStreams(k) being exactly Fork(0..k-1)
  // in order: that is what makes chunked output thread-count-invariant.
  Rng p1(91);
  Rng p2(91);
  std::vector<Rng> streams = p1.ForkStreams(5);
  ASSERT_EQ(streams.size(), 5u);
  for (std::size_t s = 0; s < streams.size(); ++s) {
    Rng expected = p2.Fork(static_cast<std::uint64_t>(s));
    for (int i = 0; i < 16; ++i) {
      ASSERT_EQ(streams[s](), expected()) << "stream " << s;
    }
  }
  // Both parents advanced identically.
  EXPECT_EQ(p1(), p2());
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(31);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> orig = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ShuffleActuallyPermutes) {
  Rng rng(31);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> orig = v;
  rng.Shuffle(v);
  EXPECT_NE(v, orig);  // 1/100! chance of false failure
}

TEST(RngTest, ShuffleHandlesEmptyAndSingleton) {
  Rng rng(1);
  std::vector<int> empty;
  rng.Shuffle(empty);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one{42};
  rng.Shuffle(one);
  EXPECT_EQ(one, std::vector<int>{42});
}

TEST(RngTest, SeedAccessorReportsConstructionSeed) {
  Rng rng(12345);
  EXPECT_EQ(rng.seed(), 12345u);
}

// Chi-square uniformity check over 256 buckets of the high byte.
TEST(RngTest, HighByteChiSquareReasonable) {
  Rng rng(101);
  constexpr int kN = 256000;
  std::vector<int> counts(256, 0);
  for (int i = 0; i < kN; ++i) {
    ++counts[rng() >> 56];
  }
  double chi2 = 0.0;
  const double expected = kN / 256.0;
  for (const int c : counts) {
    const double d = c - expected;
    chi2 += d * d / expected;
  }
  // 255 dof: mean 255, stddev ~22.6; accept a generous 5-sigma band.
  EXPECT_GT(chi2, 255.0 - 5 * 22.6);
  EXPECT_LT(chi2, 255.0 + 5 * 22.6);
}

}  // namespace
}  // namespace gdp::common
