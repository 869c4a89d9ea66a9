/**
 * @file
 * Unit regressions for the model-bound fast path:
 *
 *  - L0 translation filters: any structural change (capacity
 *    eviction, flush/shootdown, invalidation) must bump the
 *    component's generation so a stale filter entry can never answer
 *    a lookup.
 *  - TreePlru LUTs: touchMasked/victimMasked must track touch()/
 *    victim() exactly over random sequences.
 *  - SIMD probes: findU64/argminU64 must equal the scalar references
 *    on random rows.
 *  - Packed-rank LRU: touchRank/victimRank must name the same victim
 *    as the timestamp reference once a set is full.
 */

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "arch/ptlb.hh"
#include "common/lrurank.hh"
#include "common/plru.hh"
#include "common/simd.hh"
#include "mem/cache.hh"
#include "stats/stats.hh"
#include "tlb/tlb.hh"

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

TEST(FastPathL0, TlbFlushBumpsGeneration)
{
    stats::Group root(nullptr, "");
    tlb::Tlb t(&root, {"t", 64, 4, 0});
    t.insert(entryFor(100));
    const std::uint64_t va = Addr{100} << 12;
    ASSERT_NE(t.lookup(va), nullptr);
    ASSERT_NE(t.lookup(va), nullptr); // L0-serviced repeat.
    EXPECT_GE(t.l0Hits(), 1u);

    // Every invalidation flavor must advance the generation, or a
    // stale L0 entry could answer the next lookup.
    std::uint64_t gen = t.generation();
    t.flushRange(va, 4096);
    EXPECT_GT(t.generation(), gen) << "flushRange left generation";
    EXPECT_EQ(t.lookup(va), nullptr)
        << "stale L0 hit after the page was flushed";

    t.insert(entryFor(100));
    ASSERT_NE(t.lookup(va), nullptr);
    gen = t.generation();
    t.flushKey(0);
    EXPECT_GT(t.generation(), gen) << "flushKey left generation";
    EXPECT_EQ(t.lookup(va), nullptr);

    t.insert(entryFor(100));
    ASSERT_NE(t.lookup(va), nullptr);
    gen = t.generation();
    t.flushAll();
    EXPECT_GT(t.generation(), gen) << "flushAll left generation";
    EXPECT_EQ(t.lookup(va), nullptr);
}

TEST(FastPathL0, TlbCapacityEvictionNeverLeavesStaleL0)
{
    stats::Group root(nullptr, "");
    // 4 entries, 2-way: trivially overflowed.
    tlb::Tlb t(&root, {"t", 4, 2, 0});
    t.insert(entryFor(2));
    const Addr va = Addr{2} << 12;
    ASSERT_NE(t.lookup(va), nullptr);
    // Fill until vpn 2 is displaced (same set: vpns even).
    t.insert(entryFor(4));
    t.insert(entryFor(6));
    t.insert(entryFor(8));
    // Whatever got evicted, a lookup must reflect the real contents.
    const bool present = t.probe(va) != nullptr;
    EXPECT_EQ(t.lookup(va) != nullptr, present)
        << "L0 answer disagrees with the actual TLB contents";
    std::string why;
    EXPECT_TRUE(t.consistent(&why)) << why;
}

TEST(FastPathL0, CacheInvalidateBumpsGeneration)
{
    stats::Group root(nullptr, "");
    mem::Cache c(&root, {"c", 4096, 2, 64, 1, mem::ReplPolicy::Lru});
    const Addr addr = 0x1000;
    c.access(addr, AccessType::Read);
    c.access(addr, AccessType::Read);
    EXPECT_GE(c.l0Hits(), 1u);

    std::uint64_t gen = c.generation();
    ASSERT_TRUE(c.invalidate(addr));
    EXPECT_GT(c.generation(), gen) << "invalidate left generation";
    EXPECT_FALSE(c.access(addr, AccessType::Read).hit)
        << "stale L0 hit after the line was invalidated";

    c.access(addr, AccessType::Read);
    gen = c.generation();
    c.invalidateAll();
    EXPECT_GT(c.generation(), gen) << "invalidateAll left generation";
    EXPECT_FALSE(c.access(addr, AccessType::Read).hit);
}

TEST(FastPathL0, PtlbInvalidateBumpsGeneration)
{
    stats::Group root(nullptr, "");
    arch::Ptlb p(&root, 16);
    arch::PtlbEntry e;
    e.domain = 3;
    e.perm = Perm::ReadWrite;
    arch::PtlbEntry evicted;
    bool had = false;
    p.insert(e, evicted, had);
    ASSERT_NE(p.lookup(3), nullptr);
    ASSERT_NE(p.lookup(3), nullptr);
    EXPECT_GE(p.l0Hits(), 1u);

    const std::uint64_t gen = p.generation();
    ASSERT_TRUE(p.invalidate(3));
    EXPECT_GT(p.generation(), gen) << "invalidate left generation";
    EXPECT_EQ(p.lookup(3), nullptr)
        << "stale L0 hit after the domain was invalidated";
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

TEST(FastPathSimd, ArgminU64MatchesScalar)
{
    XorShift rng(0xabcd);
    for (unsigned n : {1u, 4u, 8u, 16u, 32u}) {
        std::vector<std::uint64_t> row(n + simd::kTagPad, 0);
        for (unsigned iter = 0; iter < 500; ++iter) {
            for (unsigned i = 0; i < n; ++i)
                row[i] = rng.next() % 16; // dense: frequent ties
            ASSERT_EQ(simd::argminU64(row.data(), n),
                      simd::argminU64Scalar(row.data(), n))
                << "n=" << n;
        }
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
