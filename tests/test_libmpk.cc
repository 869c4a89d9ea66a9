/**
 * @file
 * Unit tests for the libmpk software-virtualization cost model.
 */

#include <gtest/gtest.h>

#include "arch/libmpk.hh"
#include "scheme_test_util.hh"
#include "tlb_helpers.hh"

namespace pmodv
{
namespace
{

using arch::LibMpkScheme;
using arch::SchemeKind;
using test::pmoBase;
using test::SchemeHarness;

constexpr Addr kSize = Addr{8} << 20; // 8 MB = 2048 pages.

TEST(LibMpk, FunctionalIsolationMatchesHardware)
{
    SchemeHarness h(SchemeKind::LibMpk);
    h.attach(1, pmoBase(0), kSize);
    const Addr a = pmoBase(0) + 0x100;
    EXPECT_FALSE(h.canRead(0, a));
    h.scheme().setPerm(0, 1, Perm::Read);
    EXPECT_TRUE(h.canRead(0, a));
    EXPECT_FALSE(h.canWrite(0, a));
    h.scheme().setPerm(0, 1, Perm::ReadWrite);
    EXPECT_TRUE(h.canWrite(0, a));
    h.scheme().setPerm(0, 1, Perm::None);
    EXPECT_FALSE(h.canRead(0, a));
}

TEST(LibMpk, FastPathWhenKeyHeld)
{
    arch::ProtParams params;
    SchemeHarness h(SchemeKind::LibMpk, params);
    h.attach(1, pmoBase(0), kSize);
    // First grant maps the domain (slow path).
    const Cycles first = h.scheme().setPerm(0, 1, Perm::ReadWrite);
    // Subsequent changes ride the fast path (WRPKRU + bookkeeping).
    const Cycles second = h.scheme().setPerm(0, 1, Perm::Read);
    EXPECT_GT(first, second);
    EXPECT_EQ(second, params.wrpkruCycles + params.libmpkFastPathCycles);
}

TEST(LibMpk, EvictionCostScalesWithVictimSize)
{
    arch::ProtParams params;
    SchemeHarness h(SchemeKind::LibMpk, params);
    auto &lib = static_cast<LibMpkScheme &>(h.scheme());

    // Fill the 15 keys with 8MB domains.
    for (unsigned i = 0; i < 15; ++i)
        h.attachGranted(i + 1, pmoBase(i), kSize);
    EXPECT_DOUBLE_EQ(lib.keyEvictions.value(), 0.0);

    // The 16th mapping evicts: cost includes 2048 PTE patches.
    h.attach(16, pmoBase(16), kSize);
    const Cycles cost = h.scheme().setPerm(0, 16, Perm::ReadWrite);
    EXPECT_DOUBLE_EQ(lib.keyEvictions.value(), 1.0);
    const std::uint64_t pages = kSize / 4096;
    EXPECT_GE(cost, params.libmpkSyscallCycles +
                        params.libmpkPtePatchCycles * pages +
                        arch::CoreTopology{}.tlbInvalidationCycles);
    EXPECT_GE(lib.ptePatches.value(), static_cast<double>(pages));
}

TEST(LibMpk, AccessToEvictedDomainTrapsAndRemaps)
{
    SchemeHarness h(SchemeKind::LibMpk);
    auto &lib = static_cast<LibMpkScheme &>(h.scheme());
    for (unsigned i = 0; i < 16; ++i)
        h.attachGranted(i + 1, pmoBase(i), kSize);
    // Domain 1 was the LRU victim of the 16th mapping.
    EXPECT_EQ(lib.keyOf(1), kInvalidKey);
    const double remaps_before = lib.keyRemaps.value();
    // Touching it traps into the handler (cost lands in fillExtra)
    // and the access then succeeds with the recorded permission.
    const auto out = h.accessOutcome(0, pmoBase(0), AccessType::Write);
    EXPECT_TRUE(out.allowed);
    EXPECT_GT(lib.keyRemaps.value(), remaps_before);
    EXPECT_GT(out.fillCycles, 1000u);
    EXPECT_NE(lib.keyOf(1), kInvalidKey);
}

TEST(LibMpk, ShootdownFlushesVictimTranslations)
{
    SchemeHarness h(SchemeKind::LibMpk);
    for (unsigned i = 0; i < 15; ++i) {
        h.attachGranted(i + 1, pmoBase(i), kSize);
        h.canWrite(0, pmoBase(i)); // Warm the TLB.
    }
    h.attachGranted(16, pmoBase(16), kSize);
    // Victim = domain 1 (LRU): translations must be gone.
    EXPECT_EQ(test::cached(h.tlbs().l1(), pmoBase(0)), nullptr);
}

TEST(LibMpk, SmallDomainsEvictCheaply)
{
    arch::ProtParams params;
    SchemeHarness h(SchemeKind::LibMpk, params);
    const Addr small = Addr{64} << 10; // 64 KB = 16 pages.
    for (unsigned i = 0; i < 16; ++i)
        h.attach(i + 1, pmoBase(i), small);
    for (unsigned i = 0; i < 15; ++i)
        h.scheme().setPerm(0, i + 1, Perm::ReadWrite);
    const Cycles cost = h.scheme().setPerm(0, 16, Perm::ReadWrite);
    // 16-page victim: far below an 8MB eviction.
    EXPECT_LT(cost, params.libmpkSyscallCycles +
                        params.libmpkPtePatchCycles * 2048);
}

TEST(LibMpk, PerThreadPermsSurviveRemapping)
{
    SchemeHarness h(SchemeKind::LibMpk);
    h.attachGranted(1, pmoBase(0), kSize, Perm::Read);
    h.scheme().setPerm(5, 1, Perm::ReadWrite);
    EXPECT_EQ(h.scheme().effectivePerm(0, 1), Perm::Read);
    EXPECT_EQ(h.scheme().effectivePerm(5, 1), Perm::ReadWrite);
    EXPECT_EQ(h.scheme().effectivePerm(9, 1), Perm::None);
}

TEST(LibMpk, DetachReleasesKey)
{
    SchemeHarness h(SchemeKind::LibMpk);
    auto &lib = static_cast<LibMpkScheme &>(h.scheme());
    h.attachGranted(1, pmoBase(0), kSize);
    ASSERT_NE(lib.keyOf(1), kInvalidKey);
    h.detach(1);
    EXPECT_EQ(lib.keyOf(1), kInvalidKey);
}

} // namespace
} // namespace pmodv
