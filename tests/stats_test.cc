/**
 * @file
 * Tests for the statistics package.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "obs/json.hh"

namespace d2m::stats
{
namespace
{

TEST(Stats, CounterBasics)
{
    StatGroup root("root");
    Counter c(&root, "hits", "number of hits");
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 5;
    EXPECT_EQ(c.value(), 6u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, GroupHierarchyPaths)
{
    StatGroup root("system");
    StatGroup child("node0", &root);
    StatGroup grand("l1d", &child);
    EXPECT_EQ(grand.fullStatPath(), "system.node0.l1d");
}

TEST(Stats, SnapshotValueIsMonotonicCountAndResets)
{
    StatGroup root("root");
    Counter c(&root, "c", "");
    Histogram2 h2(&root, "h2", "");
    c += 7;
    h2.sample(100);
    h2.sample(200, 3);
    EXPECT_EQ(c.snapshotValue(), 7u);
    EXPECT_EQ(h2.snapshotValue(), 4u);  // weighted sample count
    root.resetStats();
    EXPECT_EQ(c.snapshotValue(), 0u);
    EXPECT_EQ(h2.snapshotValue(), 0u);
}

TEST(Stats, Histogram2SmallValuesAreExact)
{
    StatGroup root("root");
    Histogram2 h(&root, "lat", "");
    // Values below 2^sub_bits land in unit-width buckets, so every
    // percentile is exact.
    for (std::uint64_t v = 0; v < 16; ++v)
        h.sample(v);
    EXPECT_EQ(h.totalSamples(), 16u);
    EXPECT_EQ(h.minValue(), 0u);
    EXPECT_EQ(h.maxValue(), 15u);
    EXPECT_DOUBLE_EQ(h.percentile(50), 7.0);
    EXPECT_DOUBLE_EQ(h.percentile(100), 15.0);
    EXPECT_DOUBLE_EQ(h.percentile(0), 0.0);
}

TEST(Stats, Histogram2PercentileMatchesExactWithinBucketError)
{
    StatGroup root("root");
    Histogram2 h(&root, "lat", "");
    Rng rng(42);
    std::vector<std::uint64_t> samples;
    // Mixed body + heavy tail, like a latency distribution.
    for (int i = 0; i < 20000; ++i) {
        std::uint64_t v = rng.below(100) + 2;
        if (rng.below(100) < 5)
            v = 200 + rng.below(5000);
        if (rng.below(1000) < 2)
            v = 100000 + rng.below(1000000);
        samples.push_back(v);
        h.sample(v);
    }
    std::sort(samples.begin(), samples.end());
    for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
        const std::uint64_t rank = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(
                   std::ceil(p / 100.0 * samples.size())));
        const double exact = static_cast<double>(samples[rank - 1]);
        const double approx = h.percentile(p);
        // percentile() returns the containing bucket's upper edge, so
        // it can only over-estimate, by at most the bucket width:
        // a 1/2^sub_bits relative error (sub_bits = 4 -> 6.25%).
        EXPECT_GE(approx, exact) << "p" << p;
        EXPECT_LE(approx, exact * (1.0 + 1.0 / 16.0) + 1.0) << "p" << p;
    }
    // Sanity on the moments too.
    double sum = 0;
    for (std::uint64_t v : samples)
        sum += static_cast<double>(v);
    EXPECT_NEAR(h.mean(), sum / samples.size(), 1e-6);
    EXPECT_EQ(h.minValue(), samples.front());
    EXPECT_EQ(h.maxValue(), samples.back());
}

TEST(Stats, Histogram2JsonIsSparseAndParses)
{
    StatGroup root("root");
    Histogram2 h(&root, "lat", "");
    h.sample(3);
    h.sample(3);
    h.sample(100000);
    std::ostringstream os;
    h.printJson(os);
    json::Value v;
    std::string err;
    ASSERT_TRUE(json::parse(os.str(), v, err)) << os.str() << ": " << err;
    EXPECT_EQ(v["samples"].asNumber(), 3.0);
    EXPECT_EQ(v["min"].asNumber(), 3.0);
    EXPECT_EQ(v["max"].asNumber(), 100000.0);
    // Two occupied buckets only: the encoding is sparse. Each carries
    // its inclusive edges.
    ASSERT_EQ(v["buckets"].array.size(), 2u);
    EXPECT_EQ(v["buckets"].array[0]["lo"].asNumber(), 3.0);
    EXPECT_EQ(v["buckets"].array[0]["hi"].asNumber(), 3.0);
    EXPECT_EQ(v["buckets"].array[0]["count"].asNumber(), 2.0);
    EXPECT_LE(v["buckets"].array[1]["lo"].asNumber(), 100000.0);
    EXPECT_GE(v["buckets"].array[1]["hi"].asNumber(), 100000.0);
    EXPECT_GE(v["p50"].asNumber(), 3.0);
}

TEST(Stats, Histogram2ResetClearsEverything)
{
    StatGroup root("root");
    Histogram2 h(&root, "lat", "");
    h.sample(12345);
    root.resetStats();
    EXPECT_EQ(h.totalSamples(), 0u);
    EXPECT_DOUBLE_EQ(h.percentile(99), 0.0);
    h.sample(7);
    EXPECT_EQ(h.totalSamples(), 1u);
    EXPECT_EQ(h.minValue(), 7u);
    EXPECT_EQ(h.maxValue(), 7u);
}

TEST(Stats, RecursiveReset)
{
    StatGroup root("sys");
    StatGroup child("noc", &root);
    Counter a(&root, "a", "");
    Counter b(&child, "b", "");
    a += 7;
    b += 9;
    root.resetStats();
    EXPECT_EQ(a.value(), 0u);
    EXPECT_EQ(b.value(), 0u);
}

} // namespace
} // namespace d2m::stats
