/**
 * @file
 * Unit tests for the common substrate: bit utilities, permission
 * algebra, pseudo-LRU trackers and the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "common/bitutil.hh"
#include "common/logging.hh"
#include "common/plru.hh"
#include "common/rng.hh"
#include "common/types.hh"

namespace pmodv
{
namespace
{

TEST(BitUtil, PowerOfTwo)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_TRUE(isPowerOfTwo(4096));
    EXPECT_TRUE(isPowerOfTwo(std::uint64_t{1} << 63));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_FALSE(isPowerOfTwo(4097));
}

TEST(BitUtil, Log2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(4096), 12u);
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(4096), 12u);
    EXPECT_EQ(ceilLog2(4097), 13u);
}

TEST(BitUtil, Alignment)
{
    EXPECT_EQ(alignDown(4097, 4096), 4096u);
    EXPECT_EQ(alignUp(4097, 4096), 8192u);
    EXPECT_EQ(alignUp(4096, 4096), 4096u);
    EXPECT_TRUE(isAligned(8192, 4096));
    EXPECT_FALSE(isAligned(8191, 4096));
}

TEST(BitUtil, Bits)
{
    EXPECT_EQ(bits(0xff00, 15, 8), 0xffu);
    EXPECT_EQ(bits(0xdeadbeef, 7, 0), 0xefu);
    EXPECT_EQ(bits(~std::uint64_t{0}, 63, 0), ~std::uint64_t{0});
}

TEST(BitUtil, PageHelpers)
{
    EXPECT_EQ(pageBytes(PageSize::Size4K), 4096u);
    EXPECT_EQ(pageBytes(PageSize::Size2M), std::uint64_t{1} << 21);
    EXPECT_EQ(pageBytes(PageSize::Size1G), std::uint64_t{1} << 30);
    EXPECT_EQ(pageBase(0x12345), 0x12000u);
    EXPECT_EQ(pageNumber(0x12345), 0x12u);
}

TEST(Perm, Algebra)
{
    EXPECT_EQ(permIntersect(Perm::ReadWrite, Perm::Read), Perm::Read);
    EXPECT_EQ(permIntersect(Perm::Read, Perm::Write), Perm::None);
    EXPECT_EQ(permUnion(Perm::Read, Perm::Write), Perm::ReadWrite);
    EXPECT_TRUE(permAllows(Perm::ReadWrite, Perm::Read));
    EXPECT_TRUE(permAllows(Perm::ReadWrite, Perm::Write));
    EXPECT_FALSE(permAllows(Perm::Read, Perm::Write));
    EXPECT_FALSE(permAllows(Perm::None, Perm::Read));
    EXPECT_TRUE(permAllows(Perm::Read, Perm::None));
}

TEST(Perm, AccessMapping)
{
    EXPECT_EQ(permForAccess(AccessType::Read), Perm::Read);
    EXPECT_EQ(permForAccess(AccessType::Write), Perm::Write);
    EXPECT_TRUE(permCanRead(Perm::ReadWrite));
    EXPECT_FALSE(permCanWrite(Perm::Read));
}

TEST(Perm, Strings)
{
    EXPECT_EQ(permToString(Perm::None), "-");
    EXPECT_EQ(permToString(Perm::Read), "R");
    EXPECT_EQ(permToString(Perm::Write), "W");
    EXPECT_EQ(permToString(Perm::ReadWrite), "RW");
}

TEST(TreePlru, SingleWay)
{
    TreePlru plru(1);
    EXPECT_EQ(plru.victim(), 0u);
    plru.touch(0);
    EXPECT_EQ(plru.victim(), 0u);
}

TEST(TreePlru, VictimNeverMostRecent)
{
    for (unsigned ways : {2u, 4u, 8u, 16u}) {
        TreePlru plru(ways);
        Rng rng(7);
        for (int i = 0; i < 1000; ++i) {
            const unsigned w = static_cast<unsigned>(rng.next(ways));
            plru.touch(w);
            EXPECT_NE(plru.victim(), w)
                << "ways=" << ways << " iter=" << i;
        }
    }
}

TEST(TreePlru, RoundRobinTouchCyclesVictims)
{
    TreePlru plru(4);
    // Touch 0..3 in order; victim should then be 0 (oldest path).
    for (unsigned w = 0; w < 4; ++w)
        plru.touch(w);
    EXPECT_EQ(plru.victim(), 0u);
}

TEST(TreePlru, ResetForgetsHistory)
{
    TreePlru plru(8);
    for (unsigned w = 0; w < 8; ++w)
        plru.touch(w);
    plru.reset();
    EXPECT_EQ(plru.victim(), 0u);
}

TEST(TrueLru, ExactOrder)
{
    TrueLru lru(4);
    lru.touch(2);
    lru.touch(0);
    lru.touch(3);
    lru.touch(1);
    EXPECT_EQ(lru.victim(), 2u);
    lru.touch(2);
    EXPECT_EQ(lru.victim(), 0u);
}

TEST(TrueLru, Reset)
{
    TrueLru lru(3);
    lru.touch(1);
    lru.touch(2);
    lru.reset();
    EXPECT_EQ(lru.victim(), 0u);
}

/** Tree-PLRU must agree with exact LRU on strict sequential sweeps. */
TEST(TreePlru, MatchesTrueLruOnSequentialSweep)
{
    TreePlru plru(8);
    TrueLru lru(8);
    for (int round = 0; round < 5; ++round) {
        for (unsigned w = 0; w < 8; ++w) {
            plru.touch(w);
            lru.touch(w);
        }
        EXPECT_EQ(plru.victim(), lru.victim());
    }
}

TEST(Rng, Deterministic)
{
    Rng a(1234), b(1234);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.raw(), b.raw());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.raw() == b.raw();
    EXPECT_LT(same, 4);
}

TEST(Rng, NextInBounds)
{
    Rng rng(99);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.next(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(5);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 500; ++i) {
        const auto v = rng.range(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 3u);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(11);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ZipfSkew)
{
    Rng rng(77);
    // With heavy skew, the first decile should dominate.
    std::uint64_t low = 0;
    const int draws = 20000;
    for (int i = 0; i < draws; ++i) {
        if (rng.zipf(1000, 0.9) < 100)
            ++low;
    }
    EXPECT_GT(low, draws / 4);
    // Uniform degenerate case stays in range.
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.zipf(50, 0.0), 50u);
}

TEST(ZipfDist, MassesSumToOneAndDecrease)
{
    const ZipfDist dist(100, 0.99);
    EXPECT_EQ(dist.size(), 100u);
    double sum = 0.0;
    for (std::uint64_t r = 0; r < dist.size(); ++r) {
        sum += dist.rankMass(r);
        if (r > 0) {
            EXPECT_LT(dist.rankMass(r), dist.rankMass(r - 1));
        }
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
    EXPECT_EQ(dist.rankMass(100), 0.0); // Out of range.
}

TEST(ZipfDist, InverseCdfBoundaries)
{
    const ZipfDist dist(64, 0.99);
    EXPECT_EQ(dist.sample(0.0), 0u);
    EXPECT_EQ(dist.sample(0.999999999), 63u);
    // The rank-0 slice of the CDF is exactly rankMass(0) wide.
    const double edge = dist.rankMass(0);
    EXPECT_EQ(dist.sample(edge - 1e-9), 0u);
    EXPECT_EQ(dist.sample(edge + 1e-9), 1u);
}

/**
 * The branch-free search in sample() returns exactly the rank
 * std::lower_bound does (clamped to the last rank): at u = 0, at the
 * largest double below 1, and at every CDF entry and one ulp either
 * side of it, for sizes that exercise odd and power-of-two halvings.
 */
TEST(ZipfDist, SampleMatchesLowerBound)
{
    for (const std::uint64_t n : {1u, 2u, 3u, 7u, 64u, 100u, 4096u}) {
        SCOPED_TRACE("n = " + std::to_string(n));
        const ZipfDist dist(n, 0.99);
        // The same cumulative table the constructor builds.
        std::vector<double> cdf;
        double total = 0.0;
        for (std::uint64_t r = 0; r < n; ++r) {
            total += 1.0 / std::pow(static_cast<double>(r + 1), 0.99);
            cdf.push_back(total);
        }
        auto expectRank = [&](double u) {
            const auto it =
                std::lower_bound(cdf.begin(), cdf.end(), u * total);
            const auto want = std::min<std::uint64_t>(
                static_cast<std::uint64_t>(it - cdf.begin()), n - 1);
            ASSERT_EQ(dist.sample(u), want) << "u = " << u;
        };
        expectRank(0.0);
        expectRank(std::nextafter(1.0, 0.0));
        for (const double c : cdf) {
            // The u whose u * total lands on the entry (when one
            // does), and the variates just below and above it.
            double u = c / total;
            for (int k = 0; k < 4 && u * total < c; ++k)
                u = std::nextafter(u, 1.0);
            for (int k = 0; k < 4 && u * total > c; ++k)
                u = std::nextafter(u, 0.0);
            for (double v : {std::nextafter(u, 0.0), u,
                             std::nextafter(u, 1.0)}) {
                if (v < 1.0)
                    expectRank(v);
            }
            ASSERT_FALSE(HasFatalFailure());
        }
    }
}

TEST(ZipfDist, ThetaZeroIsUniform)
{
    const ZipfDist dist(10, 0.0);
    for (std::uint64_t r = 0; r < 10; ++r)
        EXPECT_NEAR(dist.rankMass(r), 0.1, 1e-12);
    EXPECT_EQ(dist.sample(0.05), 0u);
    EXPECT_EQ(dist.sample(0.95), 9u);
}

TEST(ZipfDist, DrawsMatchExactMassesChiSquare)
{
    const std::uint64_t n = 50;
    const ZipfDist dist(n, 0.99);
    Rng rng(1234);
    const int draws = 50000;
    std::vector<std::uint64_t> counts(n, 0);
    for (int i = 0; i < draws; ++i)
        ++counts[dist(rng)];
    // Pearson chi-square against the exact masses. 49 dof; the 99.9th
    // percentile is ~85, so 120 is a generous deterministic bound.
    double chi2 = 0.0;
    for (std::uint64_t r = 0; r < n; ++r) {
        const double expected = dist.rankMass(r) * draws;
        ASSERT_GT(expected, 5.0); // Keep the test in chi-square regime.
        const double diff = static_cast<double>(counts[r]) - expected;
        chi2 += diff * diff / expected;
    }
    EXPECT_LT(chi2, 120.0);
}

TEST(Logging, QuietFlagRoundTrip)
{
    const bool old = setLogQuiet(true);
    EXPECT_TRUE(logQuiet());
    warn("this warning should be suppressed");
    inform("this info should be suppressed");
    setLogQuiet(old);
}

TEST(LoggingDeathTest, PanicAborts)
{
    EXPECT_DEATH(panic("intentional test panic %d", 42), "panic");
}

} // namespace
} // namespace pmodv
