#include "util/rng.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

namespace squirrel::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.Next() == b.Next());
  EXPECT_LE(equal, 1);
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
  EXPECT_EQ(rng.Below(0), 0u);
  EXPECT_EQ(rng.Below(1), 0u);
}

TEST(Rng, BelowCoversRange) {
  Rng rng(11);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 8000; ++i) ++counts[rng.Below(8)];
  ASSERT_EQ(counts.size(), 8u);
  for (const auto& [value, count] : counts) {
    EXPECT_GT(count, 800) << value;  // roughly uniform (expected 1000)
    EXPECT_LT(count, 1200) << value;
  }
}

TEST(Rng, BetweenInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = rng.Between(3, 6);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 6u);
    saw_lo |= (v == 3);
    saw_hi |= (v == 6);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Chance(0.0));
    EXPECT_TRUE(rng.Chance(1.0));
  }
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng rng(21);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.Chance(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, ForkIndependence) {
  Rng parent(99);
  Rng childA = parent.Fork(1);
  Rng childB = parent.Fork(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (childA.Next() == childB.Next());
  EXPECT_LE(equal, 1);
}

TEST(Rng, FillDeterministic) {
  Bytes a(100), b(100);
  Rng(55).Fill(a);
  Rng(55).Fill(b);
  EXPECT_EQ(a, b);
  Bytes c(100);
  Rng(56).Fill(c);
  EXPECT_NE(a, c);
}

TEST(Rng, FillOddLengths) {
  for (std::size_t len : {0ul, 1ul, 7ul, 9ul, 15ul}) {
    Bytes buf(len, 0);
    Rng(1).Fill(buf);
    // Just verify no crash and (for len >= 4) not all zeros.
    if (len >= 4) {
      EXPECT_FALSE(IsAllZero(buf)) << len;
    }
  }
}

TEST(Rng, FillIsLittleEndianNextDraws) {
  std::vector<std::size_t> lengths;
  for (std::size_t len = 0; len <= 17; ++len) lengths.push_back(len);
  lengths.push_back(51 * 1024);
  for (const std::size_t len : lengths) {
    Rng filler(77), drawer(77);
    Bytes got(len);
    filler.Fill(got);
    Bytes want;
    while (want.size() < len) {
      const std::uint64_t value = drawer.Next();
      for (int b = 0; b < 8 && want.size() < len; ++b) {
        want.push_back(static_cast<Byte>(value >> (8 * b)));
      }
    }
    EXPECT_EQ(got, want) << len;
    // Fill leaves the state exactly where the draws it used would.
    EXPECT_EQ(filler.Next(), drawer.Next()) << len;
  }
}

TEST(Zipf, RankZeroMostPopular) {
  ZipfSampler zipf(100, 1.0);
  Rng rng(3);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 50000; ++i) ++counts[zipf.Sample(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], counts[50]);
  EXPECT_GT(counts[1], counts[50]);
}

TEST(Zipf, AllRanksReachable) {
  ZipfSampler zipf(5, 0.5);
  Rng rng(4);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 10000; ++i) ++counts[zipf.Sample(rng)];
  for (int rank = 0; rank < 5; ++rank) EXPECT_GT(counts[rank], 0) << rank;
}

TEST(Zipf, SamplesWithinRange) {
  ZipfSampler zipf(7, 1.2);
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(zipf.Sample(rng), 7u);
}

}  // namespace
}  // namespace squirrel::util
