/**
 * @file
 * Unit tests for the common module: RNG determinism and distribution
 * sanity, statistics helpers, table/plot rendering.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/ascii_plot.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"

namespace pf = photofourier;

TEST(Rng, SameSeedSameStream)
{
    pf::Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    pf::Rng a(1), b(2);
    int differing = 0;
    for (int i = 0; i < 100; ++i)
        differing += (a.next() != b.next());
    EXPECT_GT(differing, 90);
}

TEST(Rng, UniformRange)
{
    pf::Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double v = rng.uniform();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, UniformBoundsRespected)
{
    pf::Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double v = rng.uniform(-3.0, 5.0);
        EXPECT_GE(v, -3.0);
        EXPECT_LT(v, 5.0);
    }
}

TEST(Rng, UniformIntCoversRangeInclusive)
{
    pf::Rng rng(11);
    std::set<int64_t> seen;
    for (int i = 0; i < 10000; ++i) {
        const int64_t v = rng.uniformInt(0, 9);
        EXPECT_GE(v, 0);
        EXPECT_LE(v, 9);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, NormalMomentsApproximate)
{
    pf::Rng rng(13);
    const size_t n = 200000;
    double sum = 0.0, sum_sq = 0.0;
    for (size_t i = 0; i < n; ++i) {
        const double v = rng.normal(2.0, 3.0);
        sum += v;
        sum_sq += v * v;
    }
    const double m = sum / n;
    const double var = sum_sq / n - m * m;
    EXPECT_NEAR(m, 2.0, 0.05);
    EXPECT_NEAR(std::sqrt(var), 3.0, 0.05);
}

TEST(Rng, PermutationIsBijective)
{
    pf::Rng rng(17);
    const auto perm = rng.permutation(257);
    std::set<size_t> seen(perm.begin(), perm.end());
    EXPECT_EQ(seen.size(), 257u);
    EXPECT_EQ(*seen.begin(), 0u);
    EXPECT_EQ(*seen.rbegin(), 256u);
}

TEST(Stats, MeanAndGeomean)
{
    EXPECT_NEAR(pf::geomean({1.0, 8.0}), std::sqrt(8.0), 1e-12);
    EXPECT_NEAR(pf::geomean({4.0, 4.0, 4.0}), 4.0, 1e-12);
}

TEST(Stats, RmseAndMaxDiff)
{
    const std::vector<double> a{1.0, 2.0, 3.0};
    const std::vector<double> b{1.0, 2.0, 7.0};
    EXPECT_DOUBLE_EQ(pf::maxAbsDiff(a, b), 4.0);
    EXPECT_NEAR(pf::rmse(a, b), 4.0 / std::sqrt(3.0), 1e-12);
}

TEST(Stats, RelativeRmseZeroForIdentical)
{
    const std::vector<double> a{1.0, -2.0, 3.0};
    EXPECT_DOUBLE_EQ(pf::relativeRmse(a, a), 0.0);
}

TEST(Stats, SnrDb)
{
    EXPECT_NEAR(pf::snrDb(100.0, 1.0), 20.0, 1e-12);
    EXPECT_NEAR(pf::snrDb(1.0, 1.0), 0.0, 1e-12);
}

TEST(Stats, RunningStatsTracksMinMaxMean)
{
    pf::RunningStats rs;
    rs.add(3.0);
    rs.add(-1.0);
    rs.add(4.0);
    EXPECT_DOUBLE_EQ(rs.min(), -1.0);
    EXPECT_DOUBLE_EQ(rs.max(), 4.0);
    EXPECT_DOUBLE_EQ(rs.mean(), 2.0);
}

TEST(Table, RendersAlignedColumns)
{
    pf::TextTable t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22"});
    const std::string out = t.render();
    EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
    EXPECT_NE(out.find("| b     | 22    |"), std::string::npos);
}

TEST(Table, NumFormatting)
{
    EXPECT_EQ(pf::TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(pf::TextTable::num(-1.0, 0), "-1");
}

TEST(AsciiPlot, ProfileMarksPeaks)
{
    std::vector<double> values(100, 0.0);
    values[50] = 1.0;
    const std::string out = pf::AsciiPlot::profile(values, 50, 8);
    EXPECT_NE(out.find('#'), std::string::npos);
}

TEST(AsciiPlot, BarsRenderAllLabels)
{
    const std::string out =
        pf::AsciiPlot::bars({"adc", "dac"}, {1.0, 2.0}, 20);
    EXPECT_NE(out.find("adc"), std::string::npos);
    EXPECT_NE(out.find("dac"), std::string::npos);
}

TEST(AsciiPlot, LineIncludesLegend)
{
    pf::PlotSeries s{"curve", {0.0, 1.0, 2.0}, {0.0, 1.0, 4.0}};
    const std::string out = pf::AsciiPlot::line({s}, 32, 8);
    EXPECT_NE(out.find("curve"), std::string::npos);
}

TEST(Histogram, PercentilesWithinRelativeResolution)
{
    pf::Histogram h(1.0, 1.05);
    // 1..1000: exact quantiles are known; the histogram promises a
    // bucket-edge answer within one growth factor of the true value.
    for (int v = 1; v <= 1000; ++v)
        h.add(static_cast<double>(v));
    EXPECT_EQ(h.count(), 1000u);
    EXPECT_DOUBLE_EQ(h.data().min, 1.0);
    EXPECT_DOUBLE_EQ(h.data().max, 1000.0);
    EXPECT_NEAR(h.mean(), 500.5, 1e-9);
    for (double pct : {10.0, 50.0, 90.0, 95.0, 99.0}) {
        const double exact = pct * 10.0;
        const double estimate = h.percentile(pct);
        EXPECT_GE(estimate, exact / 1.06) << pct;
        EXPECT_LE(estimate, exact * 1.06) << pct;
    }
    // Extremes are exact (clamped to observed min/max).
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(h.percentile(100.0), 1000.0);
}

TEST(Histogram, PercentilesAreMonotoneInPct)
{
    pf::Rng rng(3);
    pf::Histogram h;
    for (int i = 0; i < 500; ++i)
        h.add(std::exp(rng.uniform(0.0, 10.0)));
    double prev = 0.0;
    for (double pct = 0.0; pct <= 100.0; pct += 5.0) {
        const double v = h.percentile(pct);
        EXPECT_GE(v, prev) << pct;
        prev = v;
    }
}

TEST(Histogram, SmallValuesLandInFirstBucket)
{
    pf::Histogram h(10.0, 2.0);
    h.add(0.0);
    h.add(5.0);
    h.add(10.0);
    EXPECT_EQ(h.count(), 3u);
    // Everything sits at or below the first bucket edge; the reported
    // percentile clamps to the observed max.
    EXPECT_DOUBLE_EQ(h.percentile(100.0), 10.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 10.0);
}

TEST(Histogram, MergeMatchesCombinedStream)
{
    pf::Rng rng(9);
    pf::Histogram a, b, combined;
    for (int i = 0; i < 300; ++i) {
        const double v = rng.uniform(0.5, 5000.0);
        ((i % 2) ? a : b).add(v);
        combined.add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), combined.count());
    EXPECT_DOUBLE_EQ(a.data().min, combined.data().min);
    EXPECT_DOUBLE_EQ(a.data().max, combined.data().max);
    EXPECT_NEAR(a.mean(), combined.mean(), 1e-9);
    for (double pct : {25.0, 50.0, 75.0, 99.0})
        EXPECT_DOUBLE_EQ(a.percentile(pct), combined.percentile(pct));
}

TEST(Histogram, DataSnapshotRoundTripsAndMerges)
{
    // data()/fromData() is how shard histograms cross process
    // boundaries: the reconstruction must agree on every query and
    // merge exactly like the original.
    pf::Rng rng(17);
    pf::Histogram original(1.0, 1.05);
    for (int i = 0; i < 500; ++i)
        original.add(rng.uniform(0.1, 9999.0));

    const pf::Histogram rebuilt =
        pf::Histogram::fromData(original.data());
    EXPECT_EQ(rebuilt.count(), original.count());
    EXPECT_DOUBLE_EQ(rebuilt.data().min, original.data().min);
    EXPECT_DOUBLE_EQ(rebuilt.data().max, original.data().max);
    EXPECT_DOUBLE_EQ(rebuilt.mean(), original.mean());
    for (double pct : {1.0, 50.0, 95.0, 99.9})
        EXPECT_DOUBLE_EQ(rebuilt.percentile(pct),
                         original.percentile(pct));

    // Merging a snapshot-reconstructed histogram == merging the live
    // one (the router-side aggregation path).
    pf::Histogram other(1.0, 1.05);
    for (int i = 0; i < 200; ++i)
        other.add(rng.uniform(10.0, 100.0));
    pf::Histogram via_live = other;
    via_live.merge(original);
    pf::Histogram via_snapshot = pf::Histogram::fromData(other.data());
    via_snapshot.merge(rebuilt);
    EXPECT_EQ(via_snapshot.count(), via_live.count());
    for (double pct : {25.0, 50.0, 75.0, 99.0})
        EXPECT_DOUBLE_EQ(via_snapshot.percentile(pct),
                         via_live.percentile(pct));

    // An empty histogram survives the trip too.
    const pf::Histogram empty =
        pf::Histogram::fromData(pf::Histogram(2.0, 1.5).data());
    EXPECT_EQ(empty.count(), 0u);
}
