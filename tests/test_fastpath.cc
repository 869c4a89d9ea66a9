/**
 * @file
 * Unit regressions for the model-bound fast path:
 *
 *  - Probes after invalidation: a TLB lookup after any flush or
 *    capacity eviction reflects the real contents.
 *  - TreePlru LUTs: touchMasked/victimMasked must track touch()/
 *    victim() exactly over random sequences.
 *  - SIMD probes: findU64 must equal the scalar reference on random
 *    rows and on every match position of every row width up to 16.
 *  - Packed-rank LRU: touchRank/victimRank must name the same victim
 *    as the timestamp reference once a set is full.
 */

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/lrurank.hh"
#include "common/plru.hh"
#include "common/simd.hh"
#include "stats/stats.hh"
#include "tlb/tlb.hh"
#include "tlb_helpers.hh"

namespace pmodv
{
namespace
{

/** Tiny deterministic xorshift for the property sweeps. */
struct XorShift
{
    std::uint64_t x;
    explicit XorShift(std::uint64_t seed) : x(seed) {}
    std::uint64_t
    next()
    {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    }
};

tlb::TlbEntry
entryFor(Addr vpn)
{
    tlb::TlbEntry e;
    e.vpn = vpn;
    e.pageSize = PageSize::Size4K;
    return e;
}

TEST(FastPathProbe, TlbProbeAfterInvalidate)
{
    stats::Group root(nullptr, "");
    tlb::Tlb t(&root, {"t", 64, 4, 0});
    test::fill(t, entryFor(100));
    const std::uint64_t va = Addr{100} << 12;
    ASSERT_NE(t.lookup(va), nullptr);
    ASSERT_NE(t.lookup(va), nullptr);

    // Every invalidation flavor must make the next lookup miss.
    t.flushRange(va, 4096);
    EXPECT_EQ(t.lookup(va), nullptr)
        << "lookup hit after the page was flushed";

    test::fill(t, entryFor(100));
    ASSERT_NE(t.lookup(va), nullptr);
    t.flushKey(0);
    EXPECT_EQ(t.lookup(va), nullptr);
}

TEST(FastPathProbe, TlbProbeAfterCapacityEviction)
{
    stats::Group root(nullptr, "");
    // 4 entries, 2-way: trivially overflowed.
    tlb::Tlb t(&root, {"t", 4, 2, 0});
    test::fill(t, entryFor(2));
    const Addr va = Addr{2} << 12;
    ASSERT_NE(t.lookup(va), nullptr);
    // Fill until vpn 2 is displaced (same set: vpns even).
    test::fill(t, entryFor(4));
    test::fill(t, entryFor(6));
    test::fill(t, entryFor(8));
    // Whatever got evicted, a lookup must reflect the real contents.
    const bool present = test::cached(t, va) != nullptr;
    EXPECT_EQ(t.lookup(va) != nullptr, present)
        << "lookup disagrees with the actual TLB contents";
    std::string why;
    EXPECT_TRUE(t.consistent(&why)) << why;
}

TEST(FastPathPlru, MaskedOpsMatchReference)
{
    for (unsigned ways : {2u, 4u, 6u, 8u, 16u}) {
        TreePlru a(ways); // driven via touch()/victim()
        TreePlru b(ways); // driven via the masked LUT forms
        const auto touch_lut = TreePlru::makeTouchLut(ways);
        const auto victim_lut = TreePlru::makeVictimLut(ways);
        ASSERT_FALSE(touch_lut.empty());
        ASSERT_TRUE(victim_lut.valid());
        XorShift rng(0xdecaf000 + ways);
        for (unsigned i = 0; i < 2000; ++i) {
            const unsigned way =
                static_cast<unsigned>(rng.next() % ways);
            a.touch(way);
            b.touchMasked(touch_lut[way]);
            ASSERT_EQ(a.victim(), b.victimMasked(victim_lut))
                << "ways=" << ways << " step=" << i;
        }
    }
}

TEST(FastPathPlru, SharedVictimLutIsTheBuiltTable)
{
    for (unsigned ways = 1; ways <= 24; ++ways) {
        const TreePlru::VictimLut &shared =
            TreePlru::sharedVictimLut(ways);
        const TreePlru::VictimLut built = TreePlru::makeVictimLut(ways);
        EXPECT_EQ(shared.table, built.table) << "ways=" << ways;
        EXPECT_EQ(shared.mask, built.mask) << "ways=" << ways;
        EXPECT_EQ(&TreePlru::sharedVictimLut(ways), &shared);
        // Through victim(lut), a tracker picks the tree walk's way
        // whether or not a table exists.
        TreePlru plru(ways);
        for (unsigned way = 0; way < ways; way += 3) {
            plru.touch(way);
            EXPECT_EQ(plru.victim(shared), plru.victim())
                << "ways=" << ways;
        }
    }
}

TEST(FastPathSimd, FindU64MatchesScalar)
{
    XorShift rng(0xfeed);
    for (unsigned n : {1u, 2u, 4u, 6u, 8u, 16u, 24u}) {
        std::vector<std::uint64_t> row(n + simd::kTagPad, 0);
        for (unsigned iter = 0; iter < 500; ++iter) {
            for (unsigned i = 0; i < n; ++i)
                row[i] = rng.next() % 8; // dense: frequent matches
            const std::uint64_t target = rng.next() % 8;
            ASSERT_EQ(simd::findU64(row.data(), n, target),
                      simd::findU64Scalar(row.data(), n, target))
                << "n=" << n;
        }
    }
}

/** findU64 and the scalar reference on one row, both ways round. */
void
expectFind(const std::vector<std::uint64_t> &row, unsigned n,
           std::uint64_t target, int want)
{
    ASSERT_EQ(simd::findU64Scalar(row.data(), n, target), want)
        << "n=" << n << " target=" << target;
    ASSERT_EQ(simd::findU64(row.data(), n, target), want)
        << "n=" << n << " target=" << target;
}

TEST(FastPathSimd, FindU64ExhaustiveSmallRows)
{
    // Tags differ from each other in both 32-bit halves or in only
    // one, so a lane must match in full, not half by half.
    auto tag = [](unsigned i) {
        return (std::uint64_t{i % 3} << 32) | (2 * i + 1);
    };
    for (unsigned n = 1; n <= 16; ++n) {
        std::vector<std::uint64_t> row(n + simd::kTagPad, 0);
        for (unsigned i = 0; i < n; ++i)
            row[i] = tag(i);
        for (unsigned p = 0; p < n; ++p)
            expectFind(row, n, row[p], static_cast<int>(p));
        expectFind(row, n, tag(n), -1);
        expectFind(row, n, row[0] ^ (std::uint64_t{1} << 32), -1);
        // Target 0 (the free-way search) never matches the padding.
        expectFind(row, n, 0, -1);
        for (unsigned p = 0; p < n; ++p) {
            const std::uint64_t saved = row[p];
            row[p] = 0;
            expectFind(row, n, 0, static_cast<int>(p));
            // Duplicates: the lowest matching index wins.
            for (unsigned q = p + 1; q < n; ++q) {
                row[q] = 0;
                expectFind(row, n, 0, static_cast<int>(p));
                row[q] = tag(q);
            }
            row[p] = saved;
        }
    }
}

TEST(FastPathSimd, FindU64WideRows)
{
    // Buffer-size sweeps build fully associative rows of up to 128
    // slots; every position must still be found at its own index.
    for (unsigned n : {24u, 63u, 64u, 65u, 128u}) {
        std::vector<std::uint64_t> row(n + simd::kTagPad, 0);
        for (unsigned i = 0; i < n; ++i)
            row[i] = 2 * i + 1;
        for (unsigned p = 0; p < n; ++p)
            expectFind(row, n, row[p], static_cast<int>(p));
        expectFind(row, n, 0, -1);
        row[n - 1] = 0;
        expectFind(row, n, 0, static_cast<int>(n - 1));
    }
}

TEST(FastPathLruRank, MatchesTimestampReference)
{
    // Drive packed ranks and a timestamp model with the same touch
    // stream; once every way has been touched (the only state in
    // which victims are consulted) they must always agree.
    XorShift rng(0x5eed);
    for (unsigned ways : {1u, 2u, 3u, 6u, 8u, 16u}) {
        std::uint64_t packed = 0;
        std::vector<std::uint64_t> stamps(ways, 0);
        std::uint64_t clock = 0;
        std::uint64_t touched = 0;
        const std::uint64_t high = lru::rankHighMask(ways);
        for (unsigned i = 0; i < 4000; ++i) {
            const unsigned way =
                static_cast<unsigned>(rng.next() % ways);
            packed = lru::touchRank(packed, way, ways);
            stamps[way] = ++clock;
            touched |= std::uint64_t{1} << way;
            if (touched + 1 != std::uint64_t{1} << ways)
                continue;
            unsigned ref = 0;
            for (unsigned w = 1; w < ways; ++w)
                if (stamps[w] < stamps[ref])
                    ref = w;
            ASSERT_EQ(lru::victimRank(packed, high), ref)
                << "ways=" << ways << " step=" << i;
        }
    }
}

} // namespace
} // namespace pmodv
