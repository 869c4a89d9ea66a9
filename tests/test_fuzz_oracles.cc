/**
 * @file
 * Randomized property tests that pit the timing structures against
 * simple reference oracles:
 *
 *  - the set-associative cache vs a per-set LRU list with dirty bits,
 *  - the TLB vs an exact map (presence after flush sequences),
 *  - the VA radix tree vs an interval map.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <memory>
#include <set>

#include "arch/radix.hh"
#include "common/rng.hh"
#include "mem/cache.hh"
#include "stats/stats.hh"
#include "tlb/tlb.hh"
#include "tlb_helpers.hh"

namespace pmodv
{
namespace
{

// ---------------------------------------------------------------
// Cache vs per-set LRU oracle.
// ---------------------------------------------------------------

/** Outcome of one access: hit, and whether a dirty line was evicted. */
struct OracleResult
{
    bool hit;
    bool writeback;
};

class CacheOracle
{
  public:
    CacheOracle(unsigned sets, unsigned ways) : sets_(sets), ways_(ways)
    {
        lists_.resize(sets);
    }

    /** An LRU, write-back, write-allocate cache of line numbers. */
    OracleResult
    access(Addr line, bool write)
    {
        auto &list = lists_[line % sets_];
        auto it = std::find_if(list.begin(), list.end(),
                               [line](const Way &w) {
                                   return w.line == line;
                               });
        if (it != list.end()) {
            const Way hit{line, it->dirty || write};
            list.erase(it);
            list.push_front(hit);
            return {true, false};
        }
        list.push_front({line, write});
        bool wb = false;
        if (list.size() > ways_) {
            wb = list.back().dirty;
            list.pop_back();
        }
        return {false, wb};
    }

  private:
    struct Way
    {
        Addr line;
        bool dirty;
    };

    unsigned sets_, ways_;
    std::vector<std::list<Way>> lists_; ///< Most recent first.
};

class CacheFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(CacheFuzz, MatchesLruOracle)
{
    // Table II's L1D and L2 widths take the cache's compile-time
    // probes; 4 ways takes the runtime-width one.
    for (const unsigned ways : {8u, 16u, 4u}) {
        SCOPED_TRACE(::testing::Message() << ways << " ways");
        constexpr unsigned kSets = 16;
        stats::Group root(nullptr, "");
        mem::CacheParams params;
        params.sizeBytes = kSets * ways * 64;
        params.assoc = ways;
        params.lineBytes = 64;
        mem::Cache cache(&root, params);
        ASSERT_EQ(cache.numSets(), kSets);
        CacheOracle oracle(kSets, ways);

        Rng rng(GetParam());
        const Addr lines = 4 * kSets * ways; // 4x capacity: heavy churn.
        std::uint64_t writebacks = 0;
        for (int i = 0; i < 20000; ++i) {
            const Addr line = rng.next(lines);
            const Addr addr = line * 64 + rng.next(64);
            const bool write = rng.next(4) == 0;
            const mem::CacheResult got = cache.access(
                addr, write ? AccessType::Write : AccessType::Read);
            const OracleResult want = oracle.access(line, write);
            ASSERT_EQ(got.hit, want.hit) << "iteration " << i;
            ASSERT_EQ(got.writeback, want.writeback) << "iteration " << i;
            writebacks += want.writeback ? 1 : 0;
        }
        EXPECT_GT(writebacks, 0u);
        EXPECT_EQ(cache.writebacks.value(), writebacks);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheFuzz,
                         ::testing::Values(11u, 22u, 33u));

// ---------------------------------------------------------------
// TLB vs presence oracle under random fill/flush interleavings.
// ---------------------------------------------------------------

class TlbFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(TlbFuzz, FlushSemanticsExact)
{
    stats::Group root(nullptr, "");
    tlb::TlbParams params;
    params.entries = 1024; // Big enough that capacity never evicts
    params.assoc = 4;      // in this test, so presence is exact.
    tlb::Tlb tlb(&root, params);

    std::map<Addr, std::pair<ProtKey, DomainId>> oracle; // by vpn.
    Rng rng(GetParam());

    for (int i = 0; i < 5000; ++i) {
        switch (rng.next(5)) {
          case 0:
          case 1: { // Lookup; a miss fills the page.
            const Addr vpn = rng.next(200);
            tlb::TlbEntry e;
            e.vpn = vpn;
            e.key = static_cast<ProtKey>(rng.next(16));
            e.domain = static_cast<DomainId>(rng.next(32));
            const tlb::TlbEntry &got = test::fill(tlb, e);
            const auto [it, filled] =
                oracle.try_emplace(vpn, e.key, e.domain);
            ASSERT_EQ(got.key, it->second.first)
                << (filled ? "fill" : "hit") << " at iteration " << i;
            ASSERT_EQ(got.domain, it->second.second);
            break;
          }
          case 2: { // Ranged flush.
            const Addr base = rng.next(200) * 4096;
            const Addr size = (1 + rng.next(16)) * 4096;
            tlb.flushRange(base, size);
            for (auto it = oracle.begin(); it != oracle.end();) {
                const Addr va = it->first * 4096;
                if (va + 4096 > base && va < base + size)
                    it = oracle.erase(it);
                else
                    ++it;
            }
            break;
          }
          case 3: { // Key flush.
            const auto key = static_cast<ProtKey>(rng.next(16));
            tlb.flushKey(key);
            for (auto it = oracle.begin(); it != oracle.end();) {
                if (it->second.first == key)
                    it = oracle.erase(it);
                else
                    ++it;
            }
            break;
          }
          case 4: { // Probe a random page.
            const Addr vpn = rng.next(200);
            const auto *e = test::cached(tlb, vpn * 4096);
            const auto it = oracle.find(vpn);
            ASSERT_EQ(e != nullptr, it != oracle.end())
                << "presence mismatch at iteration " << i;
            if (e) {
                ASSERT_EQ(e->key, it->second.first);
                ASSERT_EQ(e->domain, it->second.second);
            }
            break;
          }
        }
    }
    ASSERT_EQ(test::validCount(tlb), oracle.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TlbFuzz,
                         ::testing::Values(5u, 55u, 555u));

// ---------------------------------------------------------------
// Radix tree vs interval-map oracle.
// ---------------------------------------------------------------


/** The greedy decomposition of [base, end): (slot VA, level) pairs. */
std::vector<std::pair<Addr, unsigned>>
radixSlots(Addr base, Addr end)
{
    std::vector<std::pair<Addr, unsigned>> slots;
    for (Addr va = base; va < end;) {
        unsigned level = arch::kRadixLevels - 1;
        for (unsigned l = 1; l < arch::kRadixLevels; ++l) {
            const Addr span = Addr{1} << arch::radixSlotShift(l);
            if (va % span == 0 && va + span <= end) {
                level = l;
                break;
            }
        }
        slots.emplace_back(va, level);
        va += Addr{1} << arch::radixSlotShift(level);
    }
    return slots;
}

/** Where RadixFuzz draws bases and how large its ranges get. */
struct RadixFuzzShape
{
    Addr grid;          ///< Bases and probes sit on this grid...
    unsigned slots;     ///< ...at one of this many slots of it.
    unsigned maxPages;  ///< Sizes are 1..maxPages 4 KB pages.
};

/**
 * Insert and remove random non-overlapping ranges and, after every
 * step, check the tree's entry and node counts and the walks of
 * random addresses against an interval map.
 */
void
checkRadixAgainstIntervals(std::uint64_t seed, const RadixFuzzShape &shape)
{
    struct Payload
    {
    } payload;
    arch::VaRadixTree<Payload> tree;
    std::map<Addr, std::pair<Addr, DomainId>> oracle; // base->(end,dom)

    Rng rng(seed);
    DomainId next_domain = 1;
    const Addr region = Addr{1} << 36;

    for (int i = 0; i < 300; ++i) {
        if (rng.chance(0.6) || oracle.empty()) {
            // Insert a random non-overlapping range.
            const Addr base = region + rng.next(shape.slots) * shape.grid;
            const Addr size = (1 + rng.next(shape.maxPages)) * 4096;
            bool overlaps = false;
            for (const auto &[b, es] : oracle)
                overlaps |= base < es.first && b < base + size;
            if (overlaps)
                continue;
            tree.insert(base, size, next_domain, &payload);
            oracle[base] = {base + size, next_domain};
            ++next_domain;
        } else {
            // Remove a random domain.
            auto it = oracle.begin();
            std::advance(it, rng.next(oracle.size()));
            EXPECT_EQ(tree.remove(it->second.second),
                      radixSlots(it->first, it->second.first).size());
            oracle.erase(it);
        }

        // Recompute the model from the intervals: one root entry per
        // slot, and a node at level l (1..3) for every distinct VA
        // prefix above a root entry at level >= l.
        std::uint64_t roots = 0;
        std::set<std::pair<unsigned, Addr>> nodes;
        for (const auto &[b, es] : oracle) {
            for (const auto &[va, level] : radixSlots(b, es.first)) {
                ++roots;
                for (unsigned l = 1; l <= level; ++l)
                    nodes.emplace(l, va >> arch::radixSlotShift(l - 1));
            }
        }
        ASSERT_EQ(tree.rootEntryCount(), roots) << "step " << i;
        ASSERT_EQ(tree.nodeCount(), 1 + nodes.size()) << "step " << i;

        // Probe random addresses.
        for (int p = 0; p < 20; ++p) {
            const Addr va = region + rng.next(shape.slots) * shape.grid +
                            rng.next(shape.grid);
            DomainId expect = kNullDomain;
            for (const auto &[b, es] : oracle) {
                if (va >= b && va < es.first)
                    expect = es.second;
            }
            // The walk visits the root plus every node on va's path.
            unsigned depth = 1;
            for (unsigned l = 1; l < arch::kRadixLevels; ++l)
                depth += nodes.count({l, va >> arch::radixSlotShift(l - 1)});
            const auto walk = tree.walk(va);
            ASSERT_EQ(walk.found ? walk.domain : kNullDomain, expect)
                << "va 0x" << std::hex << va;
            ASSERT_EQ(walk.depth, depth) << "va 0x" << std::hex << va;
        }
    }
}

class RadixFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

/** Bases on a 4 MB grid, at most 2 MB: no PT node holds two PMOs. */
TEST_P(RadixFuzz, WalkMatchesIntervalMap)
{
    checkRadixAgainstIntervals(GetParam(), {Addr{4} << 20, 1 << 12, 512});
}

INSTANTIATE_TEST_SUITE_P(Seeds, RadixFuzz,
                         ::testing::Values(3u, 14u, 159u));

class RadixSharedLeafFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

/**
 * Bases on a 4 KB grid inside four 2 MB spans, at most 96 pages: PT
 * nodes hold many PMOs, which come and go around each other.
 */
TEST_P(RadixSharedLeafFuzz, WalkMatchesIntervalMap)
{
    checkRadixAgainstIntervals(GetParam(), {4096, 4 * 512, 96});
}

INSTANTIATE_TEST_SUITE_P(Seeds, RadixSharedLeafFuzz,
                         ::testing::Values(3u, 14u, 159u));

} // namespace
} // namespace pmodv
