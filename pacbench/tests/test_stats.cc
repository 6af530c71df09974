/**
 * @file
 * Tests of the benchmark's statistics helper and windowed rates.
 */

#include <gtest/gtest.h>

#include "bench.hh"
#include "stats.hh"

using namespace pacbench;
using pacman::SampleStat;

namespace
{

SampleStat
oneTo(unsigned n)
{
    SampleStat s;
    for (unsigned i = n; i >= 1; --i) // unsorted on purpose
        s.add(double(i));
    return s;
}

} // namespace

TEST(PacbenchStats, EvenCountMedianIsMeanOfMiddlePair)
{
    const Summary s = summarize(oneTo(4));
    EXPECT_EQ(s.n, 4u);
    EXPECT_DOUBLE_EQ(s.median, 2.5);
}

TEST(PacbenchStats, OddCountMedianIsMiddleValue)
{
    EXPECT_DOUBLE_EQ(summarize(oneTo(7)).median, 4.0);
}

TEST(PacbenchStats, FewerThanTenSamplesHaveNoTail)
{
    const Summary s = summarize(oneTo(9));
    EXPECT_EQ(s.n, 9u);
    EXPECT_DOUBLE_EQ(s.median, 5.0);
    EXPECT_FALSE(s.hasTail());
    EXPECT_NE(s.tailText("ms").find("no tail"), std::string::npos);
}

TEST(PacbenchStats, EmptyIsCountZero)
{
    const Summary s = summarize(SampleStat{});
    EXPECT_EQ(s.n, 0u);
    EXPECT_FALSE(s.hasTail());
    EXPECT_NE(s.tailText("ms").find("no tail"), std::string::npos);
}

TEST(PacbenchStats, SamplesBeyondCountsOrderStatisticsAboveRank)
{
    // p90 of 100 interpolates at rank 89.1: indices 90..99 lie beyond.
    EXPECT_EQ(samplesBeyond(90, 100), 10u);
    EXPECT_EQ(samplesBeyond(90, 92), 10u);
    EXPECT_EQ(samplesBeyond(90, 91), 9u);
    EXPECT_EQ(samplesBeyond(99, 1000), 10u);
    EXPECT_EQ(samplesBeyond(99, 902), 10u);
    EXPECT_EQ(samplesBeyond(99, 901), 9u);
    EXPECT_EQ(samplesBeyond(50, 0), 0u);
}

TEST(PacbenchStats, TailNeedsTenSamplesBeyond)
{
    // 91 samples: p90 has only 9 beyond it, so no tail is reported.
    EXPECT_FALSE(summarize(oneTo(91)).hasTail());

    // 92: p90 qualifies, p99 does not.
    const Summary s92 = summarize(oneTo(92));
    ASSERT_TRUE(s92.hasTail());
    EXPECT_EQ(s92.tailText("ms").rfind("p90 ", 0), 0u);
    EXPECT_DOUBLE_EQ(s92.tailPct, 90.0);
    EXPECT_DOUBLE_EQ(s92.tail, oneTo(92).percentile(90));

    // 1000: p99 qualifies and is preferred over p90.
    const Summary s1000 = summarize(oneTo(1000));
    EXPECT_DOUBLE_EQ(s1000.tailPct, 99.0);
    EXPECT_DOUBLE_EQ(s1000.tail, oneTo(1000).percentile(99));

    // Asking for p90 only never reports p99.
    EXPECT_DOUBLE_EQ(summarize(oneTo(1000), {90.0}).tailPct, 90.0);
}

TEST(PacbenchStats, PhaseLogSplitsItemsAcrossWindowEdges)
{
    // One record of 10 items over [0.5, 1.5] straddles the edge of two
    // 1-second windows: 5 items land in each.
    PhaseLog log(2.0, 1.0);
    log.add(0.5, 1.5, 10, 1e6, false);
    const WindowRates r = log.rates(2.0);
    ASSERT_EQ(r.itemsPerS.size(), 2u);
    EXPECT_DOUBLE_EQ(r.itemsPerS[0], 5.0);
    EXPECT_DOUBLE_EQ(r.itemsPerS[1], 5.0);
    EXPECT_DOUBLE_EQ(r.mips[0], 0.5);
    EXPECT_EQ(log.records(), 1u);
    EXPECT_DOUBLE_EQ(log.latencies().median(), 1.0);
}

TEST(PacbenchStats, PhaseLogDropsThePartialLastWindow)
{
    PhaseLog log(2.0, 1.0);
    log.add(0.0, 1.0, 4, 0, false);
    log.add(1.0, 2.5, 6, 0, true);
    const WindowRates r = log.rates(2.5);
    ASSERT_EQ(r.itemsPerS.size(), 2u);
    EXPECT_DOUBLE_EQ(r.itemsPerS[0], 4.0);
    EXPECT_DOUBLE_EQ(r.itemsPerS[1], 4.0); // 6 items over 1.5 s
    EXPECT_EQ(log.attempted(), 10u);
    EXPECT_EQ(log.failed(), 6u);
    EXPECT_DOUBLE_EQ(log.busySeconds(), 2.5);
}

TEST(PacbenchStats, PhaseLogGrowsWindowsPastThePlannedSpan)
{
    // A phase may run past --seconds to reach MinItems.
    PhaseLog log(1.0, 1.0);
    log.add(2.0, 4.0, 8, 0, false);
    const WindowRates r = log.rates(4.0);
    ASSERT_EQ(r.itemsPerS.size(), 4u);
    EXPECT_DOUBLE_EQ(r.itemsPerS[1], 0.0);
    EXPECT_DOUBLE_EQ(r.itemsPerS[2], 4.0);
    EXPECT_DOUBLE_EQ(r.itemsPerS[3], 4.0);
}
