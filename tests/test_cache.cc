/**
 * @file
 * Unit tests for the cache model and memory hierarchy.
 */

#include <gtest/gtest.h>

#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "mem/memory.hh"
#include "stats/stats.hh"

namespace pmodv::mem
{
namespace
{

CacheParams
smallCache()
{
    CacheParams p;
    p.name = "c";
    p.sizeBytes = 1024; // 16 lines.
    p.assoc = 4;        // 4 sets.
    p.lineBytes = 64;
    p.hitLatency = 1;
    return p;
}

TEST(Cache, Geometry)
{
    stats::Group root(nullptr, "");
    Cache c(&root, smallCache());
    EXPECT_EQ(c.numSets(), 4u);
}

TEST(Cache, MissThenHit)
{
    stats::Group root(nullptr, "");
    Cache c(&root, smallCache());
    EXPECT_FALSE(c.access(0x1000, AccessType::Read).hit);
    EXPECT_TRUE(c.access(0x1000, AccessType::Read).hit);
    EXPECT_TRUE(c.access(0x1030, AccessType::Read).hit); // Same line.
    EXPECT_FALSE(c.access(0x1040, AccessType::Read).hit); // Next line.
    EXPECT_DOUBLE_EQ(c.hits.value(), 2.0);
    EXPECT_DOUBLE_EQ(c.misses.value(), 2.0);
}

TEST(Cache, LruEvictionOrder)
{
    stats::Group root(nullptr, "");
    Cache c(&root, smallCache());
    // Fill one set (set stride = 4 sets * 64B = 256B).
    for (int w = 0; w < 4; ++w)
        c.access(0x1000 + w * 0x100, AccessType::Read);
    // Touch the first line again so the second is LRU.
    c.access(0x1000, AccessType::Read);
    // A fifth line in the same set evicts 0x1100. The survivors hit
    // (checked first: each hit only reorders them), 0x1100 misses.
    c.access(0x1000 + 4 * 0x100, AccessType::Read);
    EXPECT_TRUE(c.access(0x1000, AccessType::Read).hit);
    EXPECT_TRUE(c.access(0x1200, AccessType::Read).hit);
    EXPECT_FALSE(c.access(0x1100, AccessType::Read).hit);
    EXPECT_EQ(c.evictions.value(), 2u);
}

TEST(Cache, WritebackOnDirtyEviction)
{
    stats::Group root(nullptr, "");
    Cache c(&root, smallCache());
    c.access(0x1000, AccessType::Write); // Dirty.
    for (int w = 1; w <= 4; ++w)
        c.access(0x1000 + w * 0x100, AccessType::Read);
    EXPECT_DOUBLE_EQ(c.writebacks.value(), 1.0);
}

TEST(Cache, CleanEvictionNoWriteback)
{
    stats::Group root(nullptr, "");
    Cache c(&root, smallCache());
    for (int w = 0; w <= 4; ++w)
        c.access(0x1000 + w * 0x100, AccessType::Read);
    EXPECT_DOUBLE_EQ(c.writebacks.value(), 0.0);
}

TEST(Cache, MissRateFormula)
{
    stats::Group root(nullptr, "");
    Cache c(&root, smallCache());
    c.access(0x1000, AccessType::Read);
    c.access(0x1000, AccessType::Read);
    EXPECT_DOUBLE_EQ(c.missRate.value(), 0.5);
}

TEST(CacheDeathTest, RejectsBadGeometry)
{
    stats::Group root(nullptr, "");
    CacheParams p = smallCache();
    p.lineBytes = 60; // Not a power of two.
    EXPECT_EXIT(Cache(&root, p), ::testing::ExitedWithCode(1),
                "power of two");
    p = smallCache();
    p.sizeBytes = 2048; // 32 lines, one set.
    p.assoc = 32;       // Wider than the packed LRU ranks.
    EXPECT_EXIT(Cache(&root, p), ::testing::ExitedWithCode(1),
                "at most 16 ways");
}

TEST(MainMemory, LatenciesByClass)
{
    stats::Group root(nullptr, "");
    MemoryParams p;
    p.dramLatency = 120;
    p.nvmLatency = 360;
    MainMemory mem(&root, p);
    EXPECT_EQ(mem.access(MemClass::Dram, AccessType::Read), 120u);
    EXPECT_EQ(mem.access(MemClass::Nvm, AccessType::Read), 360u);
    EXPECT_EQ(mem.access(MemClass::Nvm, AccessType::Write), 360u);
    EXPECT_DOUBLE_EQ(mem.dramReads.value(), 1.0);
    EXPECT_DOUBLE_EQ(mem.nvmReads.value(), 1.0);
    EXPECT_DOUBLE_EQ(mem.nvmWrites.value(), 1.0);
}

TEST(MainMemory, NvmWritePenalty)
{
    stats::Group root(nullptr, "");
    MemoryParams p;
    p.nvmLatency = 300;
    p.nvmWritePenalty = 2.0;
    MainMemory mem(&root, p);
    EXPECT_EQ(mem.access(MemClass::Nvm, AccessType::Write), 600u);
    EXPECT_EQ(mem.access(MemClass::Nvm, AccessType::Read), 300u);
}

TEST(Hierarchy, LatencyComposition)
{
    stats::Group root(nullptr, "");
    HierarchyParams p; // Table II defaults: L1 1cy, L2 8cy, DRAM 120.
    CacheHierarchy h(&root, p);

    auto first = h.access(0x10000, AccessType::Read, MemClass::Dram);
    EXPECT_EQ(first.hitLevel, 3u);
    EXPECT_EQ(first.latency, 1u + 8u + 120u);

    auto second = h.access(0x10000, AccessType::Read, MemClass::Dram);
    EXPECT_EQ(second.hitLevel, 1u);
    EXPECT_EQ(second.latency, 1u);
}

TEST(Hierarchy, NvmMissUsesNvmLatency)
{
    stats::Group root(nullptr, "");
    HierarchyParams p;
    CacheHierarchy h(&root, p);
    auto res = h.access(0x20000, AccessType::Read, MemClass::Nvm);
    EXPECT_EQ(res.latency, 1u + 8u + 360u);
}

TEST(Hierarchy, L2HitAfterL1Eviction)
{
    stats::Group root(nullptr, "");
    HierarchyParams p;
    // Shrink L1 so evictions are easy to provoke.
    p.l1.sizeBytes = 512; // 8 lines, 8-way = 1 set.
    p.l1.assoc = 8;
    CacheHierarchy h(&root, p);
    h.access(0x0, AccessType::Read, MemClass::Dram);
    // 8 more lines in the same (single) L1 set evict line 0 from L1;
    // L2 (1MB) keeps everything.
    for (int i = 1; i <= 8; ++i)
        h.access(i * 64, AccessType::Read, MemClass::Dram);
    auto res = h.access(0x0, AccessType::Read, MemClass::Dram);
    EXPECT_EQ(res.hitLevel, 2u);
    EXPECT_EQ(res.latency, 1u + 8u);
}

/** Parameterized sweep: hit rate grows once the working set fits. */
class CacheWorkingSet : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CacheWorkingSet, FitDeterminesHitRate)
{
    stats::Group root(nullptr, "");
    CacheParams p = smallCache(); // 16 lines.
    Cache c(&root, p);
    const unsigned lines = GetParam();
    // Two sweeps over `lines` distinct lines.
    for (int round = 0; round < 2; ++round) {
        for (unsigned i = 0; i < lines; ++i)
            c.access(Addr{i} * 64, AccessType::Read);
    }
    const double hit_rate =
        static_cast<double>(c.hits.value()) /
        static_cast<double>(c.hits.value() + c.misses.value());
    if (lines <= 16)
        EXPECT_GE(hit_rate, 0.49); // Second sweep all hits.
    else
        EXPECT_LT(hit_rate, 0.49); // Thrashes.
}

INSTANTIATE_TEST_SUITE_P(Sizes, CacheWorkingSet,
                         ::testing::Values(4u, 8u, 16u, 32u, 64u));

} // namespace
} // namespace pmodv::mem
