/**
 * @file
 * Unit tests for the VA radix tree underlying the DTT and DRT.
 */

#include <gtest/gtest.h>

#include "arch/radix.hh"

namespace pmodv::arch
{
namespace
{

struct Payload
{
    int tag = 0;
};

using Tree = VaRadixTree<Payload>;

Payload shared; ///< Payload for tests that never read it.

TEST(Radix, SlotGeometry)
{
    EXPECT_EQ(radixSlotShift(0), 39u); // 512 GB
    EXPECT_EQ(radixSlotShift(1), 30u); // 1 GB
    EXPECT_EQ(radixSlotShift(2), 21u); // 2 MB
    EXPECT_EQ(radixSlotShift(3), 12u); // 4 KB
    EXPECT_EQ(radixSlotIndex(Addr{5} << 30, 1), 5u);
    EXPECT_EQ(radixSlotIndex(Addr{513} << 30, 1), 1u);
}

TEST(Radix, EmptyWalkMisses)
{
    Tree tree;
    auto res = tree.walk(0x1234000);
    EXPECT_FALSE(res.found);
    EXPECT_EQ(res.domain, kNullDomain);
}

TEST(Radix, SinglePageInsert)
{
    Tree tree;
    Payload info;
    info.tag = 7;
    tree.insert(0x1000, 0x1000, 3, &info);
    auto res = tree.walk(0x1abc);
    ASSERT_TRUE(res.found);
    EXPECT_EQ(res.domain, 3u);
    EXPECT_EQ(res.payload->tag, 7);
    EXPECT_EQ(res.depth, kRadixLevels);
    EXPECT_FALSE(tree.walk(0x2000).found);
    EXPECT_FALSE(tree.walk(0x0).found);
}

TEST(Radix, GreedyDecompositionOf8MbRegion)
{
    Tree tree;
    // 8MB at a 2MB-aligned base decomposes into 4 x 2MB root entries.
    const Addr base = Addr{1} << 33;
    tree.insert(base, Addr{8} << 20, 5, &shared);
    EXPECT_EQ(tree.rootEntryCount(), 4u);
    // Every page in the range resolves; depth stops at the 2MB level.
    for (Addr off = 0; off < (Addr{8} << 20); off += Addr{1} << 21) {
        auto res = tree.walk(base + off + 123);
        ASSERT_TRUE(res.found);
        EXPECT_EQ(res.domain, 5u);
        EXPECT_EQ(res.depth, 3u);
    }
    EXPECT_FALSE(tree.walk(base + (Addr{8} << 20)).found);
}

TEST(Radix, MixedGranularityDecomposition)
{
    Tree tree;
    // 2MB + 8KB: one 2MB slot + two 4KB slots.
    const Addr base = Addr{1} << 31;
    tree.insert(base, (Addr{1} << 21) + 0x2000, 9, &shared);
    EXPECT_EQ(tree.rootEntryCount(), 3u);
    EXPECT_TRUE(tree.walk(base).found);
    EXPECT_TRUE(tree.walk(base + (Addr{1} << 21)).found);
    EXPECT_TRUE(tree.walk(base + (Addr{1} << 21) + 0x1000).found);
    EXPECT_FALSE(tree.walk(base + (Addr{1} << 21) + 0x2000).found);
}

TEST(Radix, GigabyteRegionUsesOneEntry)
{
    Tree tree;
    tree.insert(Addr{4} << 30, Addr{1} << 30, 2, &shared);
    EXPECT_EQ(tree.rootEntryCount(), 1u);
    auto res = tree.walk((Addr{4} << 30) + (Addr{500} << 20));
    ASSERT_TRUE(res.found);
    EXPECT_EQ(res.depth, 2u); // PMO root entry at the 1GB level.
}

TEST(Radix, SharedPayloadAcrossSlots)
{
    Tree tree;
    Payload info;
    tree.insert(Addr{1} << 33, Addr{4} << 21, 5, &info);
    auto a = tree.walk(Addr{1} << 33);
    auto b = tree.walk((Addr{1} << 33) + (Addr{3} << 21));
    EXPECT_EQ(a.payload, b.payload);
    a.payload->tag = 42;
    EXPECT_EQ(b.payload->tag, 42);
}

TEST(Radix, RemoveDomainPrunesNodes)
{
    Tree tree;
    tree.insert(Addr{1} << 33, Addr{8} << 20, 5, &shared);
    tree.insert(Addr{2} << 33, Addr{8} << 20, 6, &shared);
    const auto nodes_before = tree.nodeCount();
    EXPECT_EQ(tree.remove(5), 4u);
    EXPECT_FALSE(tree.walk(Addr{1} << 33).found);
    EXPECT_TRUE(tree.walk(Addr{2} << 33).found);
    EXPECT_LT(tree.nodeCount(), nodes_before);
    EXPECT_EQ(tree.remove(5), 0u); // Idempotent.
}

TEST(Radix, ManyDomains)
{
    Tree tree;
    const unsigned n = 256;
    for (unsigned i = 0; i < n; ++i) {
        tree.insert((Addr{1} << 33) + Addr{i} * (Addr{16} << 20),
                    Addr{8} << 20, i + 1, &shared);
    }
    for (unsigned i = 0; i < n; ++i) {
        auto res = tree.walk((Addr{1} << 33) +
                             Addr{i} * (Addr{16} << 20) + 0x5000);
        ASSERT_TRUE(res.found);
        EXPECT_EQ(res.domain, i + 1);
    }
}

TEST(RadixDeathTest, RejectsNullDomain)
{
    Tree tree;
    EXPECT_DEATH(tree.insert(0x1000, 0x1000, kNullDomain, &shared),
                 "NULL domain");
}

TEST(RadixDeathTest, RejectsDoubleInsert)
{
    Tree tree;
    tree.insert(0x1000, 0x1000, 1, &shared);
    EXPECT_DEATH(tree.insert(0x1000, 0x1000, 2, &shared), "occupied");
}

/**
 * Two 1 MB PMOs in one 2 MB span share one PT node: detaching one
 * keeps it, detaching both prunes it and every directory above it.
 */
TEST(Radix, TwoPmosShareOneLeaf)
{
    Tree tree;
    const Addr base = Addr{1} << 33;
    const Addr mb = Addr{1} << 20;
    tree.insert(base, mb, 1, &shared);
    tree.insert(base + mb, mb, 2, &shared);
    EXPECT_EQ(tree.nodeCount(), 4u);
    EXPECT_EQ(tree.rootEntryCount(), 512u);
    EXPECT_EQ(tree.walk(base + mb - 1).domain, 1u);
    EXPECT_EQ(tree.walk(base + mb).domain, 2u);

    EXPECT_EQ(tree.remove(1), 256u);
    EXPECT_EQ(tree.nodeCount(), 4u);
    EXPECT_EQ(tree.rootEntryCount(), 256u);
    const auto gone = tree.walk(base);
    EXPECT_FALSE(gone.found);
    EXPECT_EQ(gone.depth, 4u);
    EXPECT_EQ(tree.walk(base + 2 * mb - 1).domain, 2u);

    EXPECT_EQ(tree.remove(2), 256u);
    EXPECT_EQ(tree.nodeCount(), 1u);
    EXPECT_EQ(tree.rootEntryCount(), 0u);
    EXPECT_FALSE(tree.walk(base + mb).found);
}

/**
 * A 3 MB PMO starting 1.5 MB into a 2 MB span: 128 pages in one PT
 * node, one 2 MB root entry, 128 pages in the next PT node.
 */
TEST(Radix, UnalignedPmoIsLeafEntryLeaf)
{
    Tree tree;
    const Addr span = Addr{2} << 20;
    const Addr base = (Addr{1} << 33) + span * 3 / 4;
    const Addr size = Addr{3} << 20;
    tree.insert(base, size, 9, &shared);
    EXPECT_EQ(tree.rootEntryCount(), 128u + 1u + 128u);
    EXPECT_EQ(tree.nodeCount(), 3u + 2u);
    const unsigned depths[] = {4, 3, 4};
    const Addr probes[] = {base, base + span / 4, base + size - 1};
    for (unsigned i = 0; i < 3; ++i) {
        const auto res = tree.walk(probes[i]);
        ASSERT_TRUE(res.found);
        EXPECT_EQ(res.domain, 9u);
        EXPECT_EQ(res.depth, depths[i]);
    }
    EXPECT_FALSE(tree.walk(base - 1).found);
    EXPECT_FALSE(tree.walk(base + size).found);
    EXPECT_EQ(tree.remove(9), 257u);
    EXPECT_EQ(tree.nodeCount(), 1u);
}

TEST(RadixDeathTest, RejectsOnePageOverlapInsideALeaf)
{
    Tree tree;
    const Addr base = Addr{1} << 33;
    tree.insert(base, Addr{1} << 20, 1, &shared);
    EXPECT_DEATH(tree.insert(base + (Addr{1} << 20) - 0x1000, 0x2000, 2,
                             &shared),
                 "occupied");
}

TEST(RadixDeathTest, RejectsSecondInsertOfADomain)
{
    Tree tree;
    tree.insert(0x1000, 0x1000, 1, &shared);
    EXPECT_DEATH(tree.insert(0x5000, 0x1000, 1, &shared),
                 "already in the radix tree");
}

TEST(RadixDeathTest, RejectsMisalignedRange)
{
    Tree tree;
    EXPECT_DEATH(tree.insert(0x1001, 0x1000, 1, &shared), "aligned");
}

TEST(RadixDeathTest, RejectsRangeAbove48Bits)
{
    Tree tree;
    // The walk reads VA bits 12-47 only, so 2^48 would alias slot 0.
    EXPECT_DEATH(tree.insert(Addr{1} << 48, 0x1000, 1, &shared),
                 "48-bit");
    EXPECT_DEATH(tree.insert((Addr{1} << 48) - 0x1000, 0x2000, 1,
                             &shared),
                 "48-bit");
}

TEST(RadixDeathTest, RejectsWrappingRange)
{
    Tree tree;
    // base + size wraps past 2^64 to a small end address.
    EXPECT_DEATH(tree.insert(0x2000, ~Addr{0xfff}, 1, &shared),
                 "48-bit");
}

TEST(Radix, TopOf48BitSpaceInserts)
{
    Tree tree;
    const Addr base = (Addr{1} << 48) - 0x2000;
    tree.insert(base, 0x2000, 4, &shared);
    EXPECT_EQ(tree.rootEntryCount(), 2u);
    EXPECT_EQ(tree.walk(base + 0x1fff).domain, 4u);
    EXPECT_FALSE(tree.walk(0).found);
}

/**
 * The kv4096-tail layout: 4096 x 1 MB tenants at a 4 MB stride from
 * 2^33. Each tenant is 256 4 KB root entries in its own PT node, under
 * one PDPT node, 16 PD nodes and the PML4 root: the Table VIII
 * footprint is sized from these counts.
 */
TEST(Radix, KvTenantLayoutCounts)
{
    Tree tree;
    const unsigned tenants = 4096;
    const Addr base = Addr{1} << 33;
    const Addr stride = Addr{4} << 20;
    const Addr size = Addr{1} << 20;
    for (unsigned i = 0; i < tenants; ++i)
        tree.insert(base + i * stride, size, i + 1, &shared);
    EXPECT_EQ(tree.nodeCount(), 4114u);
    EXPECT_EQ(tree.rootEntryCount(), 1048576u);
    for (unsigned i = 0; i < tenants; i += 97) {
        const auto res = tree.walk(base + i * stride + size - 1);
        ASSERT_TRUE(res.found);
        EXPECT_EQ(res.domain, i + 1);
        EXPECT_EQ(res.depth, 4u);
        EXPECT_FALSE(tree.walk(base + i * stride + size).found);
    }

    // Detaching every other tenant frees its PT node and nothing else.
    for (unsigned i = 0; i < tenants; i += 2)
        EXPECT_EQ(tree.remove(i + 1), 256u);
    EXPECT_EQ(tree.nodeCount(), 1u + 1u + 16u + tenants / 2);
    EXPECT_EQ(tree.rootEntryCount(), 1048576u / 2);
    EXPECT_FALSE(tree.walk(base).found);
    EXPECT_EQ(tree.walk(base + stride).domain, 2u);
}

TEST(Radix, ReinsertAfterRemoveUsesTheNewRange)
{
    Tree tree;
    Payload a, b;
    tree.insert(Addr{1} << 33, 0x3000, 7, &a);
    EXPECT_EQ(tree.remove(7), 3u);
    // The domain's root record now names a 2 MB + 4 KB range.
    tree.insert(Addr{3} << 33, (Addr{2} << 20) + 0x1000, 7, &b);
    EXPECT_EQ(tree.rootEntryCount(), 2u);
    EXPECT_FALSE(tree.walk(Addr{1} << 33).found);
    EXPECT_EQ(tree.walk((Addr{3} << 33) + (Addr{2} << 20)).payload, &b);
    EXPECT_EQ(tree.remove(7), 2u);
    EXPECT_EQ(tree.rootEntryCount(), 0u);
    EXPECT_EQ(tree.nodeCount(), 1u);
}

} // namespace
} // namespace pmodv::arch
