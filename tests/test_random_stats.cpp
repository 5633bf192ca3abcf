// RNG and statistics unit tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "sim/random.hpp"
#include "sim/stats.hpp"

namespace colibri::sim {
namespace {

TEST(Xoshiro, DeterministicForSameSeed) {
  Xoshiro256 a(42);
  Xoshiro256 b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Xoshiro, StreamsDiffer) {
  auto a = Xoshiro256::forStream(7, 0);
  auto b = Xoshiro256::forStream(7, 1);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a() == b() ? 1 : 0;
  }
  EXPECT_LT(same, 2);
}

TEST(Xoshiro, BelowStaysInRange) {
  Xoshiro256 rng(123);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
  EXPECT_EQ(rng.below(1), 0u);
  EXPECT_EQ(rng.below(0), 0u);
}

TEST(Xoshiro, BelowCoversAllValues) {
  Xoshiro256 rng(5);
  std::array<int, 8> seen{};
  for (int i = 0; i < 4000; ++i) {
    seen[rng.below(8)]++;
  }
  for (int v : seen) {
    EXPECT_GT(v, 300);  // each bucket near 500
  }
}

TEST(Xoshiro, Uniform01InUnitInterval) {
  Xoshiro256 rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform01();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(WindowedCounter, SplitsAtWindow) {
  WindowedCounter c;
  c.setWindow(100, 200);
  c.record(50);
  c.record(100);
  c.record(150, 3);
  c.record(199);
  c.record(200);
  EXPECT_EQ(c.total(), 7u);
  EXPECT_EQ(c.inWindow(), 5u);
  EXPECT_DOUBLE_EQ(c.rate(1000), 5.0 / 100.0);
}

TEST(WindowedCounter, RateClampsToSimEnd) {
  WindowedCounter c;
  c.setWindow(0, 1000);
  c.record(10, 50);
  EXPECT_DOUBLE_EQ(c.rate(100), 0.5);
}

TEST(Summary, BasicMoments) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  const auto s = Summary::of(xs);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_NEAR(s.stddev, 1.4142, 1e-3);
}

TEST(Summary, EvenCountMedianAverages) {
  const std::vector<double> xs{1, 2, 3, 10};
  EXPECT_DOUBLE_EQ(Summary::of(xs).median, 2.5);
}

TEST(Summary, EmptyIsZeros) {
  const auto s = Summary::of({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Summary, PercentilesInterpolateLinearly) {
  // 0..100: q * 100 lands exactly on the interpolated value.
  std::vector<double> xs(101);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = static_cast<double>(i);
  }
  const auto s = Summary::of(xs);
  EXPECT_DOUBLE_EQ(s.p50, 50.0);
  EXPECT_DOUBLE_EQ(s.p95, 95.0);
  EXPECT_DOUBLE_EQ(s.p99, 99.0);
  EXPECT_DOUBLE_EQ(s.p50, s.median);  // p50 and median agree by definition

  // Interpolation between ranks: p50 of {1, 2, 3, 10} sits halfway.
  const std::vector<double> four{1, 2, 3, 10};
  const auto f = Summary::of(four);
  EXPECT_DOUBLE_EQ(f.p50, 2.5);
  EXPECT_DOUBLE_EQ(f.p50, f.median);
  // q = 0.95 over 4 samples: pos = 2.85 → 3 + 0.85 * (10 - 3).
  EXPECT_DOUBLE_EQ(f.p95, 3.0 + 0.85 * 7.0);
}

TEST(Summary, PercentileSortedEdgeCases) {
  EXPECT_DOUBLE_EQ(Summary::percentileSorted({}, 0.5), 0.0);
  const std::vector<double> one{7.0};
  EXPECT_DOUBLE_EQ(Summary::percentileSorted(one, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(Summary::percentileSorted(one, 0.99), 7.0);
  const std::vector<double> two{1.0, 3.0};
  EXPECT_DOUBLE_EQ(Summary::percentileSorted(two, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Summary::percentileSorted(two, 1.0), 3.0);
  EXPECT_DOUBLE_EQ(Summary::percentileSorted(two, 0.5), 2.0);
  const auto s = Summary::of({});
  EXPECT_DOUBLE_EQ(s.p50, 0.0);
  EXPECT_DOUBLE_EQ(s.p99, 0.0);
}

TEST(Summary, JainIndexFairVsUnfair) {
  const std::vector<std::uint64_t> fair{10, 10, 10, 10};
  const std::vector<std::uint64_t> unfair{40, 0, 0, 0};
  EXPECT_DOUBLE_EQ(Summary::jainIndex(fair), 1.0);
  EXPECT_DOUBLE_EQ(Summary::jainIndex(unfair), 0.25);
}

/// Every field of a.summary() must equal Summary::of over the same values
/// exactly, not within a tolerance.
void expectSameSummary(const Summary& a, const Summary& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.stddev, b.stddev);
  EXPECT_EQ(a.median, b.median);
  EXPECT_EQ(a.p50, b.p50);
  EXPECT_EQ(a.p95, b.p95);
  EXPECT_EQ(a.p99, b.p99);
}

void expectMatchesOf(const std::vector<Cycle>& values) {
  CycleSamples samples;
  std::vector<double> xs;
  for (const Cycle c : values) {
    samples.add(c);
    xs.push_back(static_cast<double>(c));
  }
  expectSameSummary(samples.summary(), Summary::of(xs));
}

TEST(CycleSamples, SmallCountsMatchSummaryOf) {
  constexpr Cycle kLong = CycleSamples::kDenseBound + 5;
  expectMatchesOf({});
  expectMatchesOf({7});
  expectMatchesOf({kLong});
  expectMatchesOf({9, 3, 3});               // odd, dense only
  expectMatchesOf({9, 3, 3, 12});           // even, dense only
  expectMatchesOf({kLong, 3, kLong + 1});   // odd, straddling the bound
  expectMatchesOf({kLong, 3, 0, kLong});    // even, median across it
  expectMatchesOf({CycleSamples::kDenseBound - 1, CycleSamples::kDenseBound});
}

TEST(CycleSamples, RandomizedSamplesStraddlingTheBoundMatchSummaryOf) {
  Xoshiro256 rng(0xC7C1E5);
  for (int trial = 0; trial < 40; ++trial) {
    // Mostly short latencies with a long tail past the dense bound, at
    // sizes of both parities.
    const auto n = static_cast<std::size_t>(1 + rng.below(3000));
    std::vector<Cycle> values;
    for (std::size_t i = 0; i < n; ++i) {
      values.push_back(rng.uniform01() < 0.9
                           ? rng.below(CycleSamples::kDenseBound)
                           : rng.below(300'000));
    }
    SCOPED_TRACE(trial);
    expectMatchesOf(values);
  }
}

TEST(CycleSamples, FewVeryLongLatenciesKeepMemoryBounded) {
  // A contended lock run: a handful of 200k-cycle waits among short ones.
  CycleSamples samples;
  const std::size_t denseBytes =
      CycleSamples::kDenseBound * sizeof(std::uint64_t);
  for (Cycle c = 0; c < 100'000; ++c) {
    samples.add(c % 300);
  }
  for (Cycle c = 0; c < 8; ++c) {
    samples.add(200'000 + c * 1'000);
  }
  // The dense array plus at most a small list: nothing sized by the
  // largest latency.
  EXPECT_LE(samples.heapBytes(), denseBytes + 64 * sizeof(Cycle));
  const Summary s = samples.summary();
  EXPECT_EQ(s.count, 100'008u);
  EXPECT_EQ(s.max, 207'000.0);
  EXPECT_EQ(s.min, 0.0);
}

TEST(Accumulator, TracksMoments) {
  Accumulator a;
  for (double x : {2.0, 4.0, 6.0}) {
    a.add(x);
  }
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.mean(), 4.0);
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 6.0);
  EXPECT_NEAR(a.stddev(), 1.633, 1e-3);
}

}  // namespace
}  // namespace colibri::sim
