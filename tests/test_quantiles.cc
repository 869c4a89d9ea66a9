/**
 * @file
 * Latency-quantile correctness: Histogram::quantile and the shared
 * quantileFromBuckets() are pinned against an exact sorted-sample
 * reference on adversarial shapes (all mass in one bucket, overflow
 * into the unbounded top bucket, empty histograms), and the
 * JSON-exportable bucket form (bucketLow/High/Unbounded) is shown to
 * reproduce the live histogram's quantiles bit for bit — the
 * round-trip the Python schema checker relies on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "stats/stats.hh"

namespace pmodv::stats
{
namespace
{

/** Exact nearest-rank quantile of a sample vector. */
std::uint64_t
exactQuantile(std::vector<std::uint64_t> values, double q)
{
    std::sort(values.begin(), values.end());
    auto k = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    k = std::clamp<std::size_t>(k, 1, values.size());
    return values[k - 1];
}

/** A parentless histogram plus the samples fed into it. */
struct Fed
{
    Group root{nullptr, "root"};
    Histogram hist{&root, "h"};
    std::vector<std::uint64_t> values;

    void
    feed(std::initializer_list<std::uint64_t> vs)
    {
        for (std::uint64_t v : vs) {
            hist.sample(v);
            values.push_back(v);
        }
    }
};

/** Rebuild the JSON-export bucket form from the public accessors. */
std::vector<BucketCount>
exportedBuckets(const Histogram &h)
{
    std::vector<BucketCount> out;
    for (std::size_t i = 0; i < h.numBuckets(); ++i) {
        if (h.bucket(i) == 0)
            continue;
        out.push_back({h.bucketLow(i),
                       h.bucketUnbounded(i) ? 0 : h.bucketHigh(i),
                       h.bucket(i)});
    }
    return out;
}

TEST(Quantile, EmptyHistogramIsZero)
{
    Fed f;
    EXPECT_EQ(f.hist.quantile(0.5), 0.0);
    EXPECT_EQ(f.hist.quantile(0.999), 0.0);
}

TEST(Quantile, SingleSampleIsExactEverywhere)
{
    Fed f;
    f.feed({1234});
    for (double q : {0.01, 0.5, 0.99, 0.999, 1.0})
        EXPECT_EQ(f.hist.quantile(q), 1234.0) << "q=" << q;
}

TEST(Quantile, ExtremesAreExactMinMax)
{
    Fed f;
    f.feed({7, 100, 3, 900, 900, 42, 5000, 64, 8, 13});
    // k == 1 and k == samples short-circuit to the tracked min/max.
    EXPECT_EQ(f.hist.quantile(0.05), 3.0);
    EXPECT_EQ(f.hist.quantile(1.0), 5000.0);
    EXPECT_EQ(f.hist.quantile(0.999), 5000.0); // ceil(.999*10) = 10.
}

TEST(Quantile, DistinctBucketsAreExact)
{
    // One sample per bucket: the within-bucket interpolation
    // degenerates (count == 1 -> lo, clamped by min/max), so every
    // quantile must equal the exact sorted-sample reference.
    Fed f;
    f.feed({1, 2, 4, 8, 16, 32, 64, 128, 256, 512});
    for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
        EXPECT_EQ(f.hist.quantile(q),
                  static_cast<double>(exactQuantile(f.values, q)))
            << "q=" << q;
    }
}

TEST(Quantile, SingleBucketMassCollapsesToValue)
{
    // Adversarial shape: every sample identical. min == max pins the
    // interpolation interval to a point for every q.
    Fed f;
    for (int i = 0; i < 1000; ++i)
        f.feed({777});
    for (double q : {0.01, 0.5, 0.99, 0.999})
        EXPECT_EQ(f.hist.quantile(q), 777.0) << "q=" << q;
}

TEST(Quantile, WithinBucketStaysInsideExactBucket)
{
    // Mixed mass: the interpolated value must land in the same log2
    // bucket as the exact nearest-rank sample, and within [min, max].
    Fed f;
    std::uint64_t x = 12345;
    for (int i = 0; i < 5000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        f.feed({(x >> 33) % 100000});
    }
    for (double q : {0.05, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
        const double got = f.hist.quantile(q);
        const std::uint64_t exact = exactQuantile(f.values, q);
        EXPECT_GE(got, static_cast<double>(f.hist.min()));
        EXPECT_LE(got, static_cast<double>(f.hist.max()));
        // Same power-of-two bucket as the exact answer.
        const double lo = exact == 0 ? 0.0
                                     : std::pow(2.0, std::floor(std::log2(
                                           static_cast<double>(exact))));
        const double hi = exact == 0 ? 1.0 : lo * 2.0;
        EXPECT_GE(got, lo) << "q=" << q << " exact=" << exact;
        EXPECT_LT(got, hi) << "q=" << q << " exact=" << exact;
    }
}

TEST(Quantile, MonotoneInQ)
{
    Fed f;
    std::uint64_t x = 99;
    for (int i = 0; i < 2000; ++i) {
        x = x * 2862933555777941757ull + 3037000493ull;
        f.feed({(x >> 40) % 5000});
    }
    double prev = 0.0;
    for (double q = 0.01; q <= 1.0; q += 0.01) {
        const double cur = f.hist.quantile(q);
        EXPECT_GE(cur, prev) << "q=" << q;
        prev = cur;
    }
}

TEST(Quantile, OverflowBucketUsesTrackedMax)
{
    // A tiny 4-bucket histogram: values >= 8 land in the unbounded
    // top bucket (hi == 0 sentinel). Tail quantiles must interpolate
    // up to the tracked max, never to an imaginary bucket edge.
    Group root{nullptr, "root"};
    Histogram h{&root, "h", 4};
    for (int i = 0; i < 90; ++i)
        h.sample(1);
    for (int i = 0; i < 10; ++i)
        h.sample(1'000'000);
    EXPECT_EQ(h.quantile(1.0), 1'000'000.0);
    const double p999 = h.quantile(0.999);
    EXPECT_GE(p999, 8.0);
    EXPECT_LE(p999, 1'000'000.0);
    // p50 sits in the mass at 1.
    EXPECT_EQ(h.quantile(0.5), 1.0);
}

TEST(Quantile, JsonBucketFormRoundTripsBitForBit)
{
    // The suite JSON stores samples/min/max plus {lo, hi?, count}
    // buckets. Recomputing from that form must reproduce the live
    // histogram's quantiles exactly — this is what lets the Python
    // schema checker re-derive p99 and what the perf gate pins.
    Fed f;
    std::uint64_t x = 4242;
    for (int i = 0; i < 3000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        f.feed({(x >> 30) % 250000});
    }
    const std::vector<BucketCount> buckets = exportedBuckets(f.hist);
    for (double q = 0.001; q < 1.0; q += 0.007) {
        const double live = f.hist.quantile(q);
        const double rebuilt = quantileFromBuckets(
            f.hist.samples(), f.hist.min(), f.hist.max(), buckets, q);
        EXPECT_EQ(live, rebuilt) << "q=" << q;
    }
}

TEST(Quantile, SingleCountBucketAtLowEdgeIsExact)
{
    // Regression pin: a bucket holding exactly one sample must report
    // that bucket's reachable low edge, never an interpolated
    // midpoint — with count == 1 there is nothing to interpolate
    // between, and the recorded min/max clamp pins the edge to the
    // sample when it sits exactly on the bucket boundary.
    Fed f;
    // 64 lands on the low edge of its log2 bucket [64, 128) and is
    // the only sample there; the mass below fixes its rank.
    for (int i = 0; i < 99; ++i)
        f.feed({3});
    f.feed({64});
    EXPECT_EQ(f.hist.quantile(0.995), 64.0);
    EXPECT_EQ(f.hist.quantile(1.0), 64.0);

    // The same shape through the JSON bucket form: {lo=64, hi=128,
    // count=1} with max=64 must come back as exactly 64.
    EXPECT_EQ(quantileFromBuckets(100, 3, 64,
                                  {{2, 4, 99}, {64, 128, 1}}, 0.995),
              64.0);
    // And a lone single-sample histogram recorded at its bucket's low
    // edge is exact at every q.
    EXPECT_EQ(quantileFromBuckets(1, 128, 128, {{128, 256, 1}}, 0.5),
              128.0);
}

TEST(Quantile, FromBucketsHandlesDegenerateInput)
{
    EXPECT_EQ(quantileFromBuckets(0, 0, 0, {}, 0.5), 0.0);
    // One bucket, one sample.
    EXPECT_EQ(quantileFromBuckets(1, 5, 5, {{4, 8, 1}}, 0.5), 5.0);
    // q clamping: q <= 0 behaves as the first sample, q >= 1 as max.
    EXPECT_EQ(quantileFromBuckets(10, 2, 64, {{2, 4, 5}, {32, 64, 5}},
                                  0.0),
              2.0);
    EXPECT_EQ(quantileFromBuckets(10, 2, 64, {{2, 4, 5}, {32, 64, 5}},
                                  1.0),
              64.0);
}

} // namespace
} // namespace pmodv::stats
