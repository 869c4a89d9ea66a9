/**
 * @file
 * Unit tests for the address space, TLB and TLB hierarchy.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "stats/stats.hh"
#include "tlb/addrspace.hh"
#include "tlb/hierarchy.hh"
#include "tlb/tlb.hh"
#include "tlb_helpers.hh"

namespace pmodv::tlb
{
namespace
{

Region
makeRegion(Addr base, Addr size, DomainId domain,
           MemClass cls = MemClass::Nvm)
{
    Region r;
    r.base = base;
    r.size = size;
    r.domain = domain;
    r.memClass = cls;
    r.pagePerm = Perm::ReadWrite;
    return r;
}

TEST(AddressSpace, MapAndFind)
{
    AddressSpace as;
    as.map(makeRegion(0x10000, 0x4000, 1));
    const Region *r = as.find(0x11000);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->domain, 1u);
    EXPECT_EQ(as.find(0x14000), nullptr); // One past the end.
    EXPECT_EQ(as.find(0xf000), nullptr);
    EXPECT_EQ(as.numRegions(), 1u);
}

TEST(AddressSpace, FindDomainAndPages)
{
    AddressSpace as;
    as.map(makeRegion(0x10000, 0x4000, 7));
    const Region *r = as.find(0x10000);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->domain, 7u);
    // No domain outside the region: just below it and just past it.
    EXPECT_EQ(as.find(0xffff), nullptr);
    EXPECT_EQ(as.find(0x14000), nullptr);
}

TEST(AddressSpace, UnmapVariants)
{
    AddressSpace as;
    as.map(makeRegion(0x10000, 0x1000, 1));
    as.map(makeRegion(0x20000, 0x1000, 2));
    as.map(makeRegion(0x30000, 0x1000, 1));
    EXPECT_EQ(as.unmapDomain(1), 2u);
    EXPECT_EQ(as.unmapDomain(1), 0u);
    EXPECT_EQ(as.find(0x30000), nullptr);
    EXPECT_NE(as.find(0x20000), nullptr);
    EXPECT_EQ(as.unmapDomain(2), 1u);
    EXPECT_EQ(as.numRegions(), 0u);
}

TEST(AddressSpaceDeathTest, RejectsOverlap)
{
    AddressSpace as;
    as.map(makeRegion(0x10000, 0x4000, 1));
    EXPECT_DEATH(as.map(makeRegion(0x12000, 0x4000, 2)), "overlap");
    EXPECT_DEATH(as.map(makeRegion(0xe000, 0x4000, 3)), "overlap");
}

TEST(AddressSpaceDeathTest, RejectsMisalignment)
{
    AddressSpace as;
    EXPECT_DEATH(as.map(makeRegion(0x10001, 0x1000, 1)), "aligned");
    EXPECT_DEATH(as.map(makeRegion(0x10000, 0x1001, 1)), "multiple");
}

TEST(AddressSpaceDeathTest, RejectsWrappingRange)
{
    AddressSpace as;
    // base + size reaches 2^64 exactly, and goes past it.
    EXPECT_DEATH(as.map(makeRegion(~Addr{0xfff}, 0x1000, 1)), "wraps");
    EXPECT_DEATH(as.map(makeRegion(~Addr{0xfff}, 0x3000, 1)), "wraps");
    as.map(makeRegion(~Addr{0x1fff}, 0x1000, 1)); // Ends at 2^64 - 4K.
    EXPECT_NE(as.find(~Addr{0x1000}), nullptr);
    EXPECT_EQ(as.find(~Addr{0}), nullptr);
}

/** Brute-force scan of regions(): the oracle for find(). */
const Region *
oracleFind(const std::vector<Region> &regions, Addr va)
{
    for (const Region &r : regions) {
        if (r.contains(va))
            return &r;
    }
    return nullptr;
}

constexpr Addr kPage = 0x1000;
constexpr Addr kChunk = Addr{1} << AddressSpace::kChunkShift;

/**
 * Probe find() against the oracle at every region's edges, at both
 * sides of every chunk edge each region touches (and the next one), and
 * at 64 random VAs in [0, @p window).
 */
void
expectFindsMatchOracle(const AddressSpace &as, std::mt19937_64 &rng,
                       Addr window)
{
    const std::vector<Region> regions = as.regions();
    auto probe = [&](Addr va) {
        const Region *want = oracleFind(regions, va);
        const Region *got = as.find(va);
        ASSERT_EQ(got != nullptr, want != nullptr)
            << std::hex << "va 0x" << va;
        if (got) {
            EXPECT_EQ(got->base, want->base) << std::hex << "va 0x" << va;
            EXPECT_EQ(got->domain, want->domain);
        }
    };
    for (const Region &r : regions) {
        for (Addr va : {r.base - 1, r.base, r.end() - 1, r.end()})
            probe(va);
        const Addr first = r.base / kChunk;
        const Addr last = (r.end() - 1) / kChunk;
        for (Addr c = first; c <= last + 1; ++c) {
            probe(c * kChunk - 1);
            probe(c * kChunk);
        }
    }
    for (int i = 0; i < 64; ++i)
        probe(rng() % window);
}

/**
 * Random map/unmapDomain sequences, probing find() after every step
 * against a brute-force scan: shared 2 MB chunks, chunk-straddling
 * regions and regions past the 1 GB index limit all appear, and a
 * domain owns one region or several. Then one fixed layout is attached
 * in reverse and in shuffled VA order, and torn down domain by domain,
 * probing after every step.
 */
TEST(AddressSpace, FindMatchesBruteForceOracle)
{
    constexpr Addr kWindow = Addr{16} << 30; // VAs in [0, 16 GB).

    for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        std::mt19937_64 rng(seed);
        AddressSpace as;
        unsigned big_mapped = 0;

        auto fits = [&](Addr base, Addr size) {
            if (base >= kWindow || size > kWindow - base)
                return false;
            for (const Region &r : as.regions()) {
                if (base < r.end() && r.base < base + size)
                    return false;
            }
            return true;
        };
        auto tryMap = [&](Addr base, Addr size, DomainId domain) {
            if (!fits(base, size))
                return;
            as.map(makeRegion(base, size, domain));
            if (size > AddressSpace::kMaxIndexedChunks * kChunk)
                ++big_mapped;
        };

        // Fixtures: three regions inside one chunk, one straddling a
        // chunk edge, one unindexed 1.5 GB region.
        tryMap(0x200000, kPage, 1);
        tryMap(0x203000, 2 * kPage, 2);
        tryMap(0x3ff000, kPage, 3);
        tryMap(0x5fe000, 4 * kPage, 4);
        tryMap(Addr{4} << 30, Addr{3} << 29, 5);

        expectFindsMatchOracle(as, rng, kWindow);
        for (int step = 0; step < 150; ++step) {
            const unsigned op = rng() % 8;
            const auto regions = as.regions();
            if (op < 5 || regions.empty()) {
                // Sizes 4 KB .. 2 GB, log-uniform in their page count.
                const unsigned k = rng() % 20;
                const Addr size = (1 + rng() % (Addr{1} << k)) * kPage;
                Addr base;
                const unsigned where = rng() % 3;
                if (where == 0 && !regions.empty()) {
                    // Right after a region: packs chunks.
                    base = regions[rng() % regions.size()].end();
                } else if (where == 1) {
                    // Straddling a chunk edge.
                    const Addr edge = (1 + rng() % (kWindow / kChunk)) *
                                      kChunk;
                    base = edge - (1 + rng() % 4) * kPage;
                } else {
                    base = (rng() % (kWindow / kPage)) * kPage;
                }
                tryMap(base, size, static_cast<DomainId>(1 + rng() % 16));
            } else {
                const DomainId domain =
                    regions[rng() % regions.size()].domain;
                unsigned owned = 0;
                for (const Region &r : regions)
                    owned += r.domain == domain;
                EXPECT_EQ(as.unmapDomain(domain), owned);
            }
            expectFindsMatchOracle(as, rng, kWindow);
            if (HasFatalFailure())
                return;
        }
        EXPECT_GT(big_mapped, 0u);
    }

    // A fixed layout: 48 regions of 0.5-2.5 MB at a 3 MB stride, so
    // neighbours share chunks and most straddle a chunk edge, six
    // domains, and one unindexed 1.5 GB region.
    std::vector<Region> layout;
    for (unsigned i = 0; i < 48; ++i)
        layout.push_back(makeRegion(Addr{i} * 0x300000 + (i % 4) * kPage,
                                    (1 + i % 5) * 0x80000, 1 + i % 6));
    layout.push_back(makeRegion(Addr{4} << 30, Addr{3} << 29, 7));
    for (const bool reverse : {true, false}) {
        SCOPED_TRACE(reverse ? "reverse order" : "shuffled order");
        std::mt19937_64 rng(reverse ? 5 : 6);
        std::vector<Region> attach = layout;
        if (reverse)
            std::reverse(attach.begin(), attach.end());
        else
            std::shuffle(attach.begin(), attach.end(), rng);
        AddressSpace as;
        for (const Region &r : attach) {
            as.map(r);
            expectFindsMatchOracle(as, rng, Addr{8} << 30);
        }
        ASSERT_FALSE(HasFatalFailure());
        for (DomainId d = 1; d <= 7; ++d) {
            as.unmapDomain(d);
            for (const Region &r : layout) {
                if (r.domain == d) {
                    EXPECT_EQ(as.find(r.base), nullptr) << d;
                }
            }
            expectFindsMatchOracle(as, rng, Addr{8} << 30);
        }
        EXPECT_EQ(as.numRegions(), 0u);
        // The emptied index serves a fresh reverse-order attach.
        for (auto it = layout.rbegin(); it != layout.rend(); ++it)
            as.map(*it);
        expectFindsMatchOracle(as, rng, Addr{8} << 30);
        ASSERT_FALSE(HasFatalFailure());
    }
}

/**
 * 4096 regions of 64 chunks each, attached top-down: each attach must
 * enter its own chunks, not rebuild the index (which would be 2^29
 * chunk insertions here). Every region is then found by its chunks.
 */
TEST(AddressSpace, ReverseAttachOf4096RegionsIsQuick)
{
    constexpr unsigned kRegions = 4096;
    constexpr Addr kSize = 64 * kChunk;
    const Addr start = Addr{1} << 33;
    const auto begin = std::chrono::steady_clock::now();
    AddressSpace as;
    for (unsigned i = kRegions; i-- > 0;)
        as.map(makeRegion(start + Addr{i} * 2 * kSize, kSize, i + 1));
    const std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - begin;
    EXPECT_LT(took.count(), 2.0);
    ASSERT_EQ(as.numRegions(), kRegions);
    for (unsigned i = 0; i < kRegions; ++i) {
        const Addr base = start + Addr{i} * 2 * kSize;
        const Region *r = as.find(base + kSize - 1);
        ASSERT_NE(r, nullptr);
        EXPECT_EQ(r->domain, i + 1);
        EXPECT_EQ(as.find(base + kSize), nullptr);
    }
}

TEST(AddressSpace, RegionsSortedByBase)
{
    AddressSpace as;
    as.map(makeRegion(0x30000, 0x1000, 3));
    as.map(makeRegion(0x10000, 0x1000, 1));
    as.map(makeRegion(0x20000, 0x1000, 2));
    auto regions = as.regions();
    ASSERT_EQ(regions.size(), 3u);
    EXPECT_LT(regions[0].base, regions[1].base);
    EXPECT_LT(regions[1].base, regions[2].base);
}

TlbParams
smallTlb()
{
    TlbParams p;
    p.name = "t";
    p.entries = 8;
    p.assoc = 4; // 2 sets.
    return p;
}

TlbEntry
entryFor(Addr va, ProtKey key = kNullKey,
         DomainId domain = kNullDomain)
{
    TlbEntry e;
    e.vpn = va >> 12;
    e.pageSize = PageSize::Size4K;
    e.key = key;
    e.domain = domain;
    return e;
}

TEST(Tlb, InsertLookup)
{
    stats::Group root(nullptr, "");
    Tlb tlb(&root, smallTlb());
    EXPECT_EQ(tlb.lookup(0x5000), nullptr);
    tlb.insert(entryFor(0x5000, 3));
    TlbEntry *e = tlb.lookup(0x5123);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->key, 3u);
    EXPECT_DOUBLE_EQ(tlb.hits.value(), 1.0);
    EXPECT_DOUBLE_EQ(tlb.misses.value(), 1.0);
}

TEST(Tlb, EvictionWithinSet)
{
    stats::Group root(nullptr, "");
    Tlb tlb(&root, smallTlb()); // 2 sets, 4 ways.
    // Pages with even VPNs map to set 0: stride 2 pages.
    for (Addr i = 0; i < 5; ++i)
        test::fill(tlb, entryFor(i * 2 * 4096));
    EXPECT_EQ(test::validCount(tlb), 4u);
    EXPECT_EQ(tlb.evictions.value(), 1u);
}

TEST(Tlb, FlushRangeIsExact)
{
    stats::Group root(nullptr, "");
    Tlb tlb(&root, smallTlb());
    test::fill(tlb, entryFor(0x1000));
    test::fill(tlb, entryFor(0x2000));
    test::fill(tlb, entryFor(0x3000));
    EXPECT_EQ(tlb.flushRange(0x2000, 0x1000), 1u);
    EXPECT_NE(test::cached(tlb, 0x1000), nullptr);
    EXPECT_EQ(test::cached(tlb, 0x2000), nullptr);
    EXPECT_NE(test::cached(tlb, 0x3000), nullptr);
}

TEST(Tlb, FlushKey)
{
    stats::Group root(nullptr, "");
    Tlb tlb(&root, smallTlb());
    test::fill(tlb, entryFor(0x1000, 3, 10));
    test::fill(tlb, entryFor(0x2000, 4, 11));
    test::fill(tlb, entryFor(0x3000, 3, 12));
    EXPECT_EQ(tlb.flushKey(3), 2u);
    EXPECT_EQ(test::validCount(tlb), 1u);
}

TEST(Tlb, LargePages)
{
    stats::Group root(nullptr, "");
    Tlb tlb(&root, smallTlb());
    TlbEntry e;
    e.pageSize = PageSize::Size2M;
    e.vpn = (Addr{1} << 30) >> 21;
    test::fill(tlb, e);
    // Any VA within the 2MB page hits.
    EXPECT_NE(tlb.lookup((Addr{1} << 30) + 0x12345), nullptr);
    EXPECT_EQ(tlb.lookup((Addr{1} << 30) + (Addr{1} << 21)), nullptr);
}

/**
 * Reference for flushRange(): does the page of @p e overlap the
 * non-empty range [base, base+size)? This is the per-entry predicate
 * the range flush used to evaluate, computed in 128 bits so neither
 * the range end nor the page end can wrap.
 */
bool
overlapsRange(const TlbEntry &e, Addr base, Addr size)
{
    using U128 = unsigned __int128;
    const U128 va = U128{e.vpn} << pageShift(e.pageSize);
    return size != 0 && va + pageBytes(e.pageSize) > base &&
           va < U128{base} + size;
}

TEST(Tlb, TopOfAddressSpaceRangeFlushes)
{
    // A range ending exactly at 2^64 must reach the last page of
    // every size, although base + size wraps to 0 in 64 bits.
    stats::Group root(nullptr, "");
    Tlb tlb(&root, smallTlb());
    for (PageSize ps :
         {PageSize::Size4K, PageSize::Size2M, PageSize::Size1G}) {
        TlbEntry e;
        e.pageSize = ps;
        e.vpn = ~Addr{0} >> pageShift(ps);
        test::fill(tlb, e);
    }
    ASSERT_EQ(test::validCount(tlb), 3u);
    const Addr base = ~Addr{0} - (Addr{1} << 21) + 1;
    EXPECT_EQ(tlb.flushRange(base, Addr{0} - base), 3u);
    EXPECT_EQ(test::validCount(tlb), 0u);
    EXPECT_TRUE(tlb.consistent());
}

TEST(Tlb, FlushRangeMatchesBruteForce)
{
    // Geometries cover the 4/6/8-way specializations and the runtime
    // associativity fallback. The 8-entry TLB has 8 chunk count
    // slots, so the 48 chunks drawn from below must alias into them.
    const TlbParams geometries[] = {
        {"t8x4", 8, 4, 0},  {"t24x6", 24, 6, 0}, {"t32x8", 32, 8, 0},
        {"t12x3", 12, 3, 0}, {"t64x4", 64, 4, 0},
    };
    std::mt19937_64 rng(20201);
    auto pick = [&rng](std::uint64_t n) { return rng() % n; };

    // Chunks (2 MB spans) the workload draws from: low memory, runs of
    // neighbours, PMO-like 4 MB strides and the top of the address
    // space.
    std::vector<Addr> chunks;
    for (Addr c = 0; c < 8; ++c)
        chunks.push_back(c);
    for (Addr i = 0; i < 24; ++i)
        chunks.push_back(((Addr{1} << 33) >> 21) + 2 * i);
    for (Addr i = 0; i < 8; ++i)
        chunks.push_back((Addr{1} << 40 >> 21) + 3 * i);
    for (Addr i = 1; i <= 8; ++i)
        chunks.push_back((~Addr{0} >> 21) + 1 - i);
    auto randomVa = [&]() {
        const Addr chunk = chunks[pick(chunks.size())];
        // Favour the pages at the chunk edges.
        const Addr edge[] = {0, 1, 510, 511};
        const Addr page = pick(2) ? edge[pick(4)] : pick(512);
        return (chunk << 21) | (page << 12) | pick(4096);
    };

    for (const TlbParams &params : geometries) {
        SCOPED_TRACE(params.name);
        stats::Group root(nullptr, "");
        Tlb tlb(&root, params);
        unsigned flushes = 0, dropped = 0, large_dropped = 0;
        for (int step = 0; step < 20000; ++step) {
            const unsigned op = static_cast<unsigned>(pick(100));
            if (op < 40) { // Insert, mostly 4K pages.
                TlbEntry e;
                const unsigned sz = static_cast<unsigned>(pick(10));
                e.pageSize = sz < 7   ? PageSize::Size4K
                             : sz < 9 ? PageSize::Size2M
                                      : PageSize::Size1G;
                e.vpn = randomVa() >> pageShift(e.pageSize);
                e.key = static_cast<ProtKey>(pick(4));
                test::fill(tlb, e);
            } else if (op < 70) { // Lookup; a miss fills the 4K page.
                const Addr va = randomVa();
                const TlbEntry *want = test::cached(tlb, va);
                const TlbEntry *got = tlb.lookup(va);
                ASSERT_EQ(got, want) << "lookup of 0x" << std::hex << va;
                if (!got) {
                    TlbEntry e;
                    e.vpn = va >> 12;
                    tlb.insert(e);
                }
            } else if (op < 72) {
                tlb.flushKey(static_cast<ProtKey>(pick(4)));
            } else { // Range flush.
                Addr base = randomVa();
                if (pick(2))
                    base &= ~Addr{4095}; // Page-aligned base.
                Addr size = 0;
                switch (pick(8)) {
                  case 0:
                    break; // Empty range.
                  case 1:
                    size = 1 + pick(4096);
                    break;
                  case 2:
                    size = (1 + pick(4)) << 12;
                    break;
                  case 3: // Straddles into the next chunk(s).
                    base |= (Addr{511} << 12);
                    size = (1 + pick(1024)) << 12;
                    break;
                  case 4: // More chunks than any TLB here has entries.
                    size = (64 + pick(64)) << 21;
                    break;
                  case 5: // Ends exactly at 2^64.
                    size = Addr{0} - base;
                    break;
                  case 6: // Runs past 2^64.
                    size = ~Addr{0} - pick(4096);
                    break;
                  default:
                    size = pick(Addr{1} << 22);
                    break;
                }
                const std::vector<TlbEntry> before(tlb.entries().begin(),
                                                   tlb.entries().end());
                unsigned want = 0;
                std::vector<bool> drop(before.size());
                for (std::size_t i = 0; i < before.size(); ++i) {
                    drop[i] = before[i].valid &&
                              overlapsRange(before[i], base, size);
                    want += drop[i];
                    large_dropped += drop[i] && before[i].pageSize !=
                                                    PageSize::Size4K;
                }
                ASSERT_EQ(tlb.flushRange(base, size), want)
                    << "range 0x" << std::hex << base << "+0x" << size;
                const auto after = tlb.entries();
                for (std::size_t i = 0; i < before.size(); ++i) {
                    ASSERT_EQ(after[i].valid, before[i].valid && !drop[i])
                        << "way " << i;
                    if (after[i].valid) {
                        ASSERT_EQ(after[i].vpn, before[i].vpn);
                        ASSERT_EQ(after[i].pageSize, before[i].pageSize);
                    }
                }
                ++flushes;
                dropped += want;
            }
            std::string why;
            ASSERT_TRUE(tlb.consistent(&why)) << "step " << step << ": "
                                              << why;
        }
        EXPECT_GT(flushes, 5000u);
        EXPECT_GT(dropped, 2000u);
        EXPECT_GT(large_dropped, 500u);
    }
}

class RecordingFillPolicy : public TlbFillPolicy
{
  public:
    Cycles
    fill(ThreadId, Addr va, const Region *region,
         TlbEntry &entry) override
    {
        ++fills;
        lastVa = va;
        lastRegion = region;
        entry.key = 5;
        return extra;
    }

    unsigned fills = 0;
    Addr lastVa = 0;
    const Region *lastRegion = nullptr;
    Cycles extra = 0;
};

TEST(TlbHierarchy, WalkFillsBothLevels)
{
    stats::Group root(nullptr, "");
    AddressSpace as;
    as.map(makeRegion(0x100000, 0x4000, 2));
    TlbHierarchyParams params;
    TlbHierarchy h(&root, params, as);
    RecordingFillPolicy policy;
    h.setFillPolicy(&policy);

    auto res = h.translate(0, 0x100123);
    EXPECT_TRUE(res.walked);
    EXPECT_EQ(res.latency, params.l2.accessLatency + params.walkLatency);
    EXPECT_EQ(policy.fills, 1u);
    ASSERT_NE(policy.lastRegion, nullptr);
    EXPECT_EQ(policy.lastRegion->domain, 2u);
    EXPECT_EQ(res.entry->key, 5u);
    EXPECT_EQ(res.entry->memClass, MemClass::Nvm);

    // Second access: pure L1 hit, zero added latency.
    auto res2 = h.translate(0, 0x100456);
    EXPECT_TRUE(res2.l1Hit);
    EXPECT_EQ(res2.latency, 0u);
    EXPECT_EQ(policy.fills, 1u);
}

TEST(TlbHierarchy, FillExtraSeparatedFromLatency)
{
    stats::Group root(nullptr, "");
    AddressSpace as;
    as.map(makeRegion(0x100000, 0x1000, 2));
    TlbHierarchyParams params;
    TlbHierarchy h(&root, params, as);
    RecordingFillPolicy policy;
    policy.extra = 500;
    h.setFillPolicy(&policy);

    auto res = h.translate(0, 0x100000);
    EXPECT_EQ(res.fillExtra, 500u);
    EXPECT_EQ(res.latency, params.l2.accessLatency + params.walkLatency);
}

TEST(TlbHierarchy, L2HitPromotesToL1)
{
    stats::Group root(nullptr, "");
    AddressSpace as;
    TlbHierarchyParams params;
    params.l1.entries = 4;
    params.l1.assoc = 4; // Single set.
    TlbHierarchy h(&root, params, as);

    // Walk 5 unmapped pages: the 5th evicts the 1st from L1 (L2 keeps
    // it).
    for (Addr i = 0; i < 5; ++i)
        h.translate(0, i * 4096);
    auto res = h.translate(0, 0);
    EXPECT_TRUE(res.l2Hit);
    EXPECT_FALSE(res.walked);
    EXPECT_EQ(res.latency, params.l2.accessLatency);
    // And it is now back in L1.
    EXPECT_TRUE(h.translate(0, 0).l1Hit);
}

TEST(TlbHierarchy, UnmappedVaGetsDomainlessDramEntry)
{
    stats::Group root(nullptr, "");
    AddressSpace as;
    TlbHierarchyParams params;
    TlbHierarchy h(&root, params, as);
    auto res = h.translate(0, 0xdead000);
    EXPECT_EQ(res.entry->domain, kNullDomain);
    EXPECT_EQ(res.entry->memClass, MemClass::Dram);
    EXPECT_EQ(res.entry->key, kNullKey);
}

TEST(TlbHierarchy, FlushRangeHitsBothLevels)
{
    stats::Group root(nullptr, "");
    AddressSpace as;
    as.map(makeRegion(0x100000, 0x2000, 2));
    TlbHierarchyParams params;
    TlbHierarchy h(&root, params, as);
    h.translate(0, 0x100000);
    h.translate(0, 0x101000);
    // Both pages are in L1 and L2: 4 entries total.
    EXPECT_EQ(h.flushRange(0x100000, 0x2000), 4u);
    EXPECT_TRUE(h.translate(0, 0x100000).walked);
}

} // namespace
} // namespace pmodv::tlb
