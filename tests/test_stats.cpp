/**
 * @file
 * Unit tests for the statistics primitives.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "obs/hdr_histogram.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"

namespace footprint {
namespace {

TEST(StatAccumulator, EmptyIsZero)
{
    StatAccumulator acc;
    EXPECT_EQ(acc.count(), 0u);
    EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
    EXPECT_DOUBLE_EQ(acc.min(), 0.0);
    EXPECT_DOUBLE_EQ(acc.max(), 0.0);
    EXPECT_DOUBLE_EQ(acc.stddev(), 0.0);
}

TEST(StatAccumulator, SingleSample)
{
    StatAccumulator acc;
    acc.add(5.0);
    EXPECT_EQ(acc.count(), 1u);
    EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
    EXPECT_DOUBLE_EQ(acc.min(), 5.0);
    EXPECT_DOUBLE_EQ(acc.max(), 5.0);
    EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
}

TEST(StatAccumulator, MeanMinMax)
{
    StatAccumulator acc;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        acc.add(v);
    EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
    EXPECT_DOUBLE_EQ(acc.min(), 1.0);
    EXPECT_DOUBLE_EQ(acc.max(), 4.0);
    EXPECT_DOUBLE_EQ(acc.sum(), 10.0);
}

TEST(StatAccumulator, Variance)
{
    StatAccumulator acc;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        acc.add(v);
    EXPECT_NEAR(acc.variance(), 4.0, 1e-9);
    EXPECT_NEAR(acc.stddev(), 2.0, 1e-9);
}

TEST(StatAccumulator, NegativeSamples)
{
    StatAccumulator acc;
    acc.add(-3.0);
    acc.add(3.0);
    EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
    EXPECT_DOUBLE_EQ(acc.min(), -3.0);
    EXPECT_DOUBLE_EQ(acc.max(), 3.0);
}

TEST(StatAccumulator, ResetClears)
{
    StatAccumulator acc;
    acc.add(1.0);
    acc.reset();
    EXPECT_EQ(acc.count(), 0u);
    EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
}

TEST(StatAccumulator, MergeCombinesSamples)
{
    StatAccumulator a;
    StatAccumulator b;
    a.add(1.0);
    a.add(2.0);
    b.add(3.0);
    b.add(4.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_DOUBLE_EQ(a.mean(), 2.5);
    EXPECT_DOUBLE_EQ(a.min(), 1.0);
    EXPECT_DOUBLE_EQ(a.max(), 4.0);
}

TEST(StatAccumulator, MergeWithEmpty)
{
    StatAccumulator a;
    StatAccumulator b;
    a.add(2.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 1u);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
    EXPECT_DOUBLE_EQ(a.max(), 2.0);
}

TEST(StatAccumulator, MergeEmptyIntoNonEmpty)
{
    StatAccumulator empty;
    StatAccumulator b;
    b.add(-1.0);
    b.add(5.0);
    empty.merge(b);
    EXPECT_EQ(empty.count(), 2u);
    EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
    EXPECT_DOUBLE_EQ(empty.min(), -1.0);
    EXPECT_DOUBLE_EQ(empty.max(), 5.0);
}

TEST(StatAccumulator, MergeBothEmptyStaysEmpty)
{
    StatAccumulator a;
    StatAccumulator b;
    a.merge(b);
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.min(), 0.0);
    EXPECT_DOUBLE_EQ(a.max(), 0.0);
    EXPECT_DOUBLE_EQ(a.variance(), 0.0);
}

TEST(StatAccumulator, MergeMatchesSingleAccumulator)
{
    // Merging two halves must reproduce sum/min/max/variance of one
    // accumulator fed every sample.
    const std::vector<double> samples{2.0, 4.0, 4.0, 4.0,
                                      5.0, 5.0, 7.0, 9.0};
    StatAccumulator whole;
    StatAccumulator lo;
    StatAccumulator hi;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        whole.add(samples[i]);
        (i < samples.size() / 2 ? lo : hi).add(samples[i]);
    }
    lo.merge(hi);
    EXPECT_EQ(lo.count(), whole.count());
    EXPECT_DOUBLE_EQ(lo.sum(), whole.sum());
    EXPECT_DOUBLE_EQ(lo.min(), whole.min());
    EXPECT_DOUBLE_EQ(lo.max(), whole.max());
    EXPECT_NEAR(lo.variance(), whole.variance(), 1e-12);
    EXPECT_NEAR(lo.variance(), 4.0, 1e-12);
}

// --- HdrHistogram (log-bucketed tail-latency histogram). ---

/** Exact quantile of a sorted sample set, percentile()'s convention. */
std::uint64_t
exactQuantile(const std::vector<std::uint64_t>& sorted, double f)
{
    const double target = f * static_cast<double>(sorted.size());
    auto rank = static_cast<std::size_t>(std::ceil(target));
    if (rank > 0)
        --rank;
    return sorted[std::min(rank, sorted.size() - 1)];
}

TEST(HdrHistogram, EmptyIsZero)
{
    HdrHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
}

TEST(HdrHistogram, PercentileMedian)
{
    // One sample per value: each percentile is the sample at its rank.
    HdrHistogram h;
    for (std::uint64_t v = 0; v < 100; ++v)
        h.add(v);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 49.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.99), 98.0);
}

TEST(HdrHistogram, PercentileP999ResolvesDeepTail)
{
    // 1000 distinct samples: p999 must land near the top sample, not
    // collapse into p99's bucket.
    HdrHistogram h;
    for (std::uint64_t v = 0; v < 1000; ++v)
        h.add(v);
    EXPECT_NEAR(h.percentile(0.999), 998.0, 4.0);
    EXPECT_GT(h.percentile(0.999), h.percentile(0.99) + 5.0);
}

TEST(HdrHistogram, PercentileExtremesAndOutOfRangeFractionsClamp)
{
    HdrHistogram h;
    h.add(std::uint64_t{25});
    h.add(std::uint64_t{27});
    h.add(std::uint64_t{44});
    // fraction 0 -> the smallest sample, fraction 1 -> the largest.
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 25.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 44.0);
    // Out-of-range fractions clamp.
    EXPECT_DOUBLE_EQ(h.percentile(-0.5), 25.0);
    EXPECT_DOUBLE_EQ(h.percentile(2.0), 44.0);
}

TEST(HdrHistogram, LinearRegionIsExact)
{
    HdrHistogram h;
    for (std::uint64_t v = 0; v < 256; ++v)
        h.add(v);
    // Values below the sub-bucket count have one bucket each.
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 127.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 255.0);
    EXPECT_EQ(h.max(), 255u);
    EXPECT_DOUBLE_EQ(h.mean(), 127.5);
}

TEST(HdrHistogram, QuantilesWithinOnePercentOfExact)
{
    // Cross-validation satellite: a heavy-tailed deterministic sample
    // set spanning five decades; every reported quantile must be
    // within 1% relative of the exact sorted-sample quantile (the
    // geometry's own bound is 2^-8 = 0.39%).
    HdrHistogram h;
    Rng gen(99);
    std::vector<std::uint64_t> samples;
    for (int i = 0; i < 20000; ++i) {
        // Bulk near 100..1100, tail stretched by squaring.
        const std::uint64_t u = gen.nextBounded(1000) + 100;
        const std::uint64_t v = (i % 100 == 0) ? u * u : u;
        samples.push_back(v);
        h.add(v);
    }
    std::sort(samples.begin(), samples.end());
    ASSERT_EQ(h.count(), samples.size());
    for (const double f : {0.05, 0.25, 0.5, 0.9, 0.99, 0.999, 0.9999}) {
        const auto exact =
            static_cast<double>(exactQuantile(samples, f));
        const double got = h.percentile(f);
        EXPECT_NEAR(got, exact, 0.01 * exact + 0.5)
            << "fraction " << f;
    }
    EXPECT_LE(h.relativeErrorBound(), 0.01);
}

TEST(HdrHistogram, OverflowClampsIntoTopBucket)
{
    HdrHistogram h(1 << 10);
    h.add(std::uint64_t{500});
    h.add(std::uint64_t{1} << 40);  // far past max_value
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.overflowCount(), 1u);
    // The clamped sample still shows up in the top of the range.
    EXPECT_EQ(h.max(), std::uint64_t{1} << 10);
    EXPECT_GE(h.percentile(1.0), 1000.0);
}

TEST(HdrHistogram, NegativeAndFractionalDoublesClamp)
{
    HdrHistogram h;
    h.add(-3.0);
    h.add(2.6);
    EXPECT_EQ(h.count(), 2u);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 3.0);  // rounded to nearest
}

TEST(HdrHistogram, MergeMatchesCombinedSamples)
{
    HdrHistogram a, b, all;
    Rng gen(7);
    for (int i = 0; i < 5000; ++i) {
        const std::uint64_t v = gen.nextBounded(1 << 20);
        (i % 2 == 0 ? a : b).add(v);
        all.add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_EQ(a.max(), all.max());
    EXPECT_DOUBLE_EQ(a.mean(), all.mean());
    for (const double f : {0.1, 0.5, 0.99, 0.999})
        EXPECT_DOUBLE_EQ(a.percentile(f), all.percentile(f));
}

TEST(HdrHistogram, MergeRejectsIncompatibleGeometry)
{
    HdrHistogram narrow(1 << 10), wide(1ULL << 40);
    wide.add(std::uint64_t{42});
    narrow.merge(wide);  // dropped, not corrupted
    EXPECT_EQ(narrow.count(), 0u);
}

TEST(HdrHistogram, ResetClears)
{
    HdrHistogram h;
    h.add(std::uint64_t{1000});
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_DOUBLE_EQ(h.percentile(0.99), 0.0);
}

// --- Latency-histogram contracts: overflow, clamping, reset and the
// empty/all-overflow percentile edges, held by HdrHistogram. ---

TEST(Histogram, OverflowBin)
{
    HdrHistogram h(1 << 10);
    h.add(std::uint64_t{1} << 40);  // past max_value
    h.add(std::uint64_t{3});
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.overflowCount(), 1u);
    // The in-range sample keeps its own bucket.
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 3.0);
}

TEST(Histogram, NegativeClampsToFirstBin)
{
    HdrHistogram h;
    h.add(-5.0);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.overflowCount(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 0.0);
}

TEST(Histogram, ResetClears)
{
    HdrHistogram h(1 << 10);
    h.add(std::uint64_t{2});
    h.add(std::uint64_t{1} << 40);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.overflowCount(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 0.0);
}

TEST(Histogram, PercentileEmptyIsZero)
{
    HdrHistogram h;
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 0.0);
}

TEST(Histogram, PercentileAllOverflowReportsThreshold)
{
    HdrHistogram h(1 << 10);
    h.add(std::uint64_t{1} << 40);
    h.add(std::uint64_t{1} << 41);
    EXPECT_EQ(h.overflowCount(), 2u);
    // Overflow sample values are unknown; every fraction reports the
    // top of the histogram's range.
    const double top = h.percentile(1.0);
    EXPECT_GE(top, 1000.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), top);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), top);
}

} // namespace
} // namespace footprint
