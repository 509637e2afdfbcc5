#include "rng/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

namespace divlib {
namespace {

TEST(SplitMix64, IsDeterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(SplitMix64, DifferentSeedsDiffer) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, IsDeterministicPerSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsProduceDifferentStreams) {
  Rng a(7);
  Rng b(8);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) {
      ++equal;
    }
  }
  EXPECT_EQ(equal, 0);
}

TEST(Rng, UniformBelowStaysInRange) {
  Rng rng(11);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.uniform_below(bound), bound);
    }
  }
}

TEST(Rng, UniformBelowOneIsAlwaysZero) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.uniform_below(1), 0u);
  }
}

TEST(Rng, UniformBelowIsRoughlyUniform) {
  Rng rng(17);
  constexpr std::uint64_t kBound = 10;
  constexpr int kSamples = 100000;
  std::vector<int> counts(kBound, 0);
  for (int i = 0; i < kSamples; ++i) {
    ++counts[rng.uniform_below(kBound)];
  }
  const double expected = static_cast<double>(kSamples) / kBound;
  for (const int count : counts) {
    EXPECT_NEAR(count, expected, 5.0 * std::sqrt(expected));
  }
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(19);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const std::int64_t value = rng.uniform_int(-3, 3);
    EXPECT_GE(value, -3);
    EXPECT_LE(value, 3);
    seen.insert(value);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.uniform_int(5, 5), 5);
  }
}

TEST(Rng, Uniform01InHalfOpenInterval) {
  Rng rng(29);
  double sum = 0.0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kSamples, 0.5, 0.01);
}

TEST(Rng, UniformRealRespectsBounds) {
  Rng rng(31);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform_real(-2.5, 7.5);
    EXPECT_GE(u, -2.5);
    EXPECT_LT(u, 7.5);
  }
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(37);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(Rng, BernoulliFrequencyMatchesP) {
  Rng rng(41);
  constexpr int kSamples = 100000;
  int hits = 0;
  for (int i = 0; i < kSamples; ++i) {
    hits += rng.bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kSamples, 0.3, 0.01);
}

TEST(Rng, NormalHasUnitMoments) {
  Rng rng(43);
  constexpr int kSamples = 200000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    const double z = rng.normal();
    sum += z;
    sum_sq += z * z;
  }
  EXPECT_NEAR(sum / kSamples, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / kSamples, 1.0, 0.03);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(47);
  std::vector<int> values(100);
  std::iota(values.begin(), values.end(), 0);
  std::vector<int> shuffled = values;
  rng.shuffle(shuffled);
  EXPECT_FALSE(std::equal(values.begin(), values.end(), shuffled.begin()));
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

TEST(Rng, ShuffleOfSingletonAndEmptyIsNoop) {
  Rng rng(53);
  std::vector<int> empty;
  rng.shuffle(empty);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one{42};
  rng.shuffle(one);
  EXPECT_EQ(one, std::vector<int>{42});
}

TEST(Rng, SubstreamSeedsAreDistinct) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t replica = 0; replica < 10000; ++replica) {
    seeds.insert(Rng::substream_seed(123, replica));
  }
  EXPECT_EQ(seeds.size(), 10000u);
}

TEST(Rng, SubstreamSeedsDependOnMaster) {
  EXPECT_NE(Rng::substream_seed(1, 0), Rng::substream_seed(2, 0));
}

TEST(Rng, RetrySeedsAreCollisionFreeAcrossReplicaAttemptGrid) {
  // The supervisor hands out one stream per (replica, attempt) pair; a
  // collision anywhere in the grid would couple two attempts that must be
  // independent.  Sweep a realistic grid: 2000 replicas x 8 attempts.
  std::set<std::uint64_t> seeds;
  for (std::uint64_t replica = 0; replica < 2000; ++replica) {
    for (unsigned attempt = 0; attempt < 8; ++attempt) {
      seeds.insert(Rng::retry_seed(123, replica, attempt));
    }
  }
  EXPECT_EQ(seeds.size(), 2000u * 8u);
}

TEST(Rng, RetrySeedsDependOnMasterReplicaAndAttempt) {
  EXPECT_NE(Rng::retry_seed(1, 0, 1), Rng::retry_seed(2, 0, 1));
  EXPECT_NE(Rng::retry_seed(1, 0, 1), Rng::retry_seed(1, 1, 1));
  EXPECT_NE(Rng::retry_seed(1, 0, 1), Rng::retry_seed(1, 0, 2));
}

// GeometricSkip reuses log1p(-p) while p repeats; it must still match the
// inversion formula draw for draw: one uniform01() per p < 1, none for
// p >= 1 or an invalid p, and the 2^62 cap.  The reference draws from a twin
// stream, so both streams must also end at the same position.
TEST(Rng, GeometricSkipMatchesGeometricDrawForDraw) {
  constexpr std::uint64_t kCap = 1ULL << 62;
  const std::vector<double> ps = {
      0.5,  0.5,     0.5,   1e-3,   1e-3,    1.0,  1.0,  0.25, 2.0,
      0.25, 1e-300,  1e-300, 0.999, 1.0 / 416, 1.0 / 416, 1.0 / 416,
      1e-9, 4.9e-324, 0.5};
  Rng skipped(31);
  Rng plain(31);
  Rng reference(31);
  GeometricSkip skip;
  int capped = 0;
  for (int round = 0; round < 200; ++round) {
    for (const double p : ps) {
      std::uint64_t expected = 0;
      if (p < 1.0) {
        const double value =
            std::floor(std::log1p(-reference.uniform01()) / std::log1p(-p));
        expected = value < static_cast<double>(kCap)
                       ? static_cast<std::uint64_t>(value)
                       : kCap;
      }
      capped += expected == kCap;
      ASSERT_EQ(skip.draw(skipped, p), expected) << "p=" << p;
      ASSERT_EQ(plain.geometric(p), expected) << "p=" << p;
    }
  }
  EXPECT_GT(capped, 0);
  for (const double bad : {0.0, -0.5, std::nan("")}) {
    EXPECT_THROW(skip.draw(skipped, bad), std::invalid_argument);
    EXPECT_THROW(plain.geometric(bad), std::invalid_argument);
  }
  const std::uint64_t position = reference.next();
  EXPECT_EQ(skipped.next(), position);
  EXPECT_EQ(plain.next(), position);
}

TEST(Rng, SubstreamsLookUniform) {
  for (std::uint64_t replica = 0; replica < 4; ++replica) {
    Rng rng(Rng::substream_seed(99, replica));
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i) {
      sum += rng.uniform01();
    }
    EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
  }
}

}  // namespace
}  // namespace divlib
