/**
 * @file
 * Unit tests for the PKRU register model and the key allocator.
 */

#include <gtest/gtest.h>

#include "arch/pkru.hh"

namespace pmodv::arch
{
namespace
{

TEST(Pkru, ResetState)
{
    Pkru pkru;
    // Key 0 open, everything else inaccessible.
    EXPECT_EQ(pkru.permFor(0), Perm::ReadWrite);
    for (ProtKey k = 1; k < kNumProtKeys; ++k)
        EXPECT_EQ(pkru.permFor(k), Perm::None);
    EXPECT_EQ(pkru.raw(), 0xfffffffcu);
}

TEST(Pkru, SetPermRoundTrip)
{
    Pkru pkru;
    pkru.setPerm(5, Perm::Read);
    EXPECT_EQ(pkru.permFor(5), Perm::Read);
    pkru.setPerm(5, Perm::ReadWrite);
    EXPECT_EQ(pkru.permFor(5), Perm::ReadWrite);
    pkru.setPerm(5, Perm::None);
    EXPECT_EQ(pkru.permFor(5), Perm::None);
}

TEST(Pkru, WriteImpliesReadInMpk)
{
    // MPK has no write-without-read encoding; Perm::Write maps to the
    // strictest expressible superset (RW).
    Pkru pkru;
    pkru.setPerm(3, Perm::Write);
    EXPECT_EQ(pkru.permFor(3), Perm::ReadWrite);
}

TEST(Pkru, ArchitecturalBitLayout)
{
    Pkru pkru;
    pkru.setRaw(0);
    for (ProtKey k = 0; k < kNumProtKeys; ++k)
        EXPECT_EQ(pkru.permFor(k), Perm::ReadWrite);

    // AD bit (2k) blocks everything; WD (2k+1) blocks writes only.
    pkru.setRaw(1u << (2 * 4)); // AD for key 4.
    EXPECT_EQ(pkru.permFor(4), Perm::None);
    pkru.setRaw(1u << (2 * 4 + 1)); // WD for key 4.
    EXPECT_EQ(pkru.permFor(4), Perm::Read);
}

TEST(Pkru, SetPermLeavesOtherKeysUntouched)
{
    Pkru pkru;
    pkru.setPerm(1, Perm::ReadWrite);
    pkru.setPerm(2, Perm::Read);
    const std::uint32_t before = pkru.raw();
    pkru.setPerm(3, Perm::ReadWrite);
    pkru.setPerm(3, Perm::None);
    // Keys 1 and 2 bits unchanged.
    const std::uint32_t mask = (0x3u << 2) | (0x3u << 4);
    EXPECT_EQ(pkru.raw() & mask, before & mask);
}

TEST(KeyTable, FifteenUsableKeys)
{
    KeyTable keys;
    std::uint16_t seen = 0;
    for (DomainId d = 1; d <= 15; ++d) {
        const ProtKey k = keys.claim(d);
        ASSERT_NE(k, kInvalidKey);
        EXPECT_NE(k, kNullKey); // Key 0 is never handed out.
        EXPECT_LT(k, kNumProtKeys);
        EXPECT_FALSE(seen & (1u << k)) << "duplicate key";
        seen |= 1u << k;
        EXPECT_EQ(keys.holder(k), d);
    }
    // The 16th claim fails: the paper's ENOSPC scenario.
    EXPECT_EQ(keys.claim(16), kInvalidKey);
    EXPECT_EQ(keys.holder(kNullKey), kNullDomain);
}

TEST(KeyTable, ReleaseAndReuse)
{
    KeyTable keys;
    const ProtKey k = keys.claim(7);
    const ProtKey other = keys.claim(8);
    EXPECT_TRUE(keys.release(k));
    EXPECT_EQ(keys.holder(k), kNullDomain); // Free exactly when unheld.
    EXPECT_FALSE(keys.release(k)); // Double free.
    EXPECT_EQ(keys.claim(9), k);   // Lowest free key again.
    EXPECT_EQ(keys.holder(k), 9u);
    EXPECT_EQ(keys.holder(other), 8u);
}

TEST(KeyTable, RejectsReservedAndBogusKeys)
{
    KeyTable keys;
    EXPECT_FALSE(keys.release(0));
    EXPECT_FALSE(keys.release(16));
    EXPECT_FALSE(keys.release(3)); // Never claimed.
}

TEST(KeyTable, VictimIsLeastRecentlyTouchedHolder)
{
    KeyTable keys;
    for (DomainId d = 1; d <= 15; ++d)
        keys.touch(keys.claim(d));
    // Key 1 is the oldest; touching it makes key 2 the LRU holder.
    EXPECT_EQ(keys.victim(), 1);
    keys.touch(1);
    EXPECT_EQ(keys.victim(), 2);
    // A free key is never the victim, though its stamp is the oldest,
    // nor once it is touched again after its release.
    ASSERT_TRUE(keys.release(2));
    EXPECT_EQ(keys.victim(), 3);
    keys.touch(2);
    EXPECT_EQ(keys.victim(), 3);
    // Key 2 rejoins as the most recently touched holder.
    EXPECT_EQ(keys.claim(20), 2);
    keys.touch(2);
    for (ProtKey k = 3; k < kNumProtKeys; ++k)
        keys.touch(k);
    EXPECT_EQ(keys.victim(), 1);
}

TEST(PkruFile, PerThreadIsolation)
{
    PkruFile file;
    file.forThread(1).setPerm(4, Perm::ReadWrite);
    EXPECT_EQ(file.forThread(1).permFor(4), Perm::ReadWrite);
    EXPECT_EQ(file.forThread(2).permFor(4), Perm::None);
}

TEST(PkruFile, ConstLookupOfUnknownThreadIsResetState)
{
    const PkruFile file;
    EXPECT_EQ(file.forThread(99).permFor(0), Perm::ReadWrite);
    EXPECT_EQ(file.forThread(99).permFor(7), Perm::None);
}

} // namespace
} // namespace pmodv::arch
