/**
 * @file
 * Parameterized property tests run against EVERY protection-capable
 * scheme: the paper's three access-legality requirements must hold
 * identically for stock MPK, libmpk, HW MPK virtualization and HW
 * domain virtualization (the timing differs; the security semantics
 * may not).
 */

#include <gtest/gtest.h>

#include <map>

#include "arch/domain_virt.hh"
#include "arch/key_scheme.hh"
#include "common/rng.hh"
#include "scheme_test_util.hh"
#include "tlb_helpers.hh"

namespace pmodv
{
namespace
{

using arch::SchemeKind;
using test::pmoBase;
using test::SchemeHarness;

constexpr Addr kSize = Addr{1} << 20;

class EnforcingScheme : public ::testing::TestWithParam<SchemeKind>
{
};

TEST_P(EnforcingScheme, AttachGrantsNothing)
{
    SchemeHarness h(GetParam());
    h.attach(1, pmoBase(0), kSize);
    EXPECT_FALSE(h.canRead(0, pmoBase(0)));
    EXPECT_FALSE(h.canWrite(0, pmoBase(0)));
}

TEST_P(EnforcingScheme, GrantRevokeCycle)
{
    SchemeHarness h(GetParam());
    h.attach(1, pmoBase(0), kSize);
    for (int round = 0; round < 3; ++round) {
        h.scheme().setPerm(0, 1, Perm::ReadWrite);
        EXPECT_TRUE(h.canRead(0, pmoBase(0)));
        EXPECT_TRUE(h.canWrite(0, pmoBase(0)));
        h.scheme().setPerm(0, 1, Perm::None);
        EXPECT_FALSE(h.canRead(0, pmoBase(0)));
        EXPECT_FALSE(h.canWrite(0, pmoBase(0)));
    }
}

TEST_P(EnforcingScheme, ReadOnlyGrantBlocksWrites)
{
    SchemeHarness h(GetParam());
    h.attach(1, pmoBase(0), kSize);
    h.scheme().setPerm(0, 1, Perm::Read);
    EXPECT_TRUE(h.canRead(0, pmoBase(0)));
    auto res = h.access(0, pmoBase(0), AccessType::Write);
    EXPECT_FALSE(res.allowed);
    EXPECT_EQ(res.fault, arch::FaultKind::DomainPermission);
}

TEST_P(EnforcingScheme, PagePermIntersectsDomainPerm)
{
    SchemeHarness h(GetParam());
    h.attach(1, pmoBase(0), kSize, Perm::Read);
    h.scheme().setPerm(0, 1, Perm::ReadWrite);
    EXPECT_TRUE(h.canRead(0, pmoBase(0)));
    EXPECT_FALSE(h.canWrite(0, pmoBase(0)));
}

TEST_P(EnforcingScheme, PermissionsArePerThread)
{
    SchemeHarness h(GetParam());
    h.attach(1, pmoBase(0), kSize);
    h.scheme().setPerm(3, 1, Perm::ReadWrite);
    h.scheme().contextSwitch(0, 3);
    EXPECT_TRUE(h.canWrite(3, pmoBase(0)));
    h.scheme().contextSwitch(3, 4);
    EXPECT_FALSE(h.canRead(4, pmoBase(0)));
}

TEST_P(EnforcingScheme, WholeRangeIsCovered)
{
    SchemeHarness h(GetParam());
    h.attach(1, pmoBase(0), kSize);
    h.scheme().setPerm(0, 1, Perm::Read);
    // First, middle and last page of the PMO all enforce.
    for (Addr off : {Addr{0}, kSize / 2, kSize - 8}) {
        EXPECT_TRUE(h.canRead(0, pmoBase(0) + off)) << off;
        EXPECT_FALSE(h.canWrite(0, pmoBase(0) + off)) << off;
    }
    // One byte past the PMO is not covered by the domain.
    EXPECT_TRUE(h.canWrite(0, pmoBase(0) + kSize));
}

TEST_P(EnforcingScheme, TwoDomainsIndependent)
{
    SchemeHarness h(GetParam());
    h.attach(1, pmoBase(0), kSize);
    h.attach(2, pmoBase(1), kSize);
    h.scheme().setPerm(0, 1, Perm::ReadWrite);
    h.scheme().setPerm(0, 2, Perm::Read);
    EXPECT_TRUE(h.canWrite(0, pmoBase(0)));
    EXPECT_FALSE(h.canWrite(0, pmoBase(1)));
    EXPECT_TRUE(h.canRead(0, pmoBase(1)));
    // The paper's key-sharing hazard cannot happen: revoking one
    // domain leaves the other untouched.
    h.scheme().setPerm(0, 1, Perm::None);
    EXPECT_FALSE(h.canRead(0, pmoBase(0)));
    EXPECT_TRUE(h.canRead(0, pmoBase(1)));
}

TEST_P(EnforcingScheme, SetPermReturnsNonZeroCost)
{
    SchemeHarness h(GetParam());
    h.attach(1, pmoBase(0), kSize);
    EXPECT_GE(h.scheme().setPerm(0, 1, Perm::ReadWrite), 27u);
}

TEST_P(EnforcingScheme, RandomizedOracleAgreement)
{
    // Drive a random sequence of setPerm/access/context-switch events
    // and compare every access against a trivial oracle map.
    SchemeHarness h(GetParam());
    const unsigned num_domains = 8;
    for (unsigned i = 0; i < num_domains; ++i)
        h.attach(i + 1, pmoBase(i), kSize);

    std::map<std::pair<ThreadId, DomainId>, Perm> oracle;
    Rng rng(2024);
    ThreadId current = 0;
    for (int step = 0; step < 2000; ++step) {
        const DomainId d =
            static_cast<DomainId>(rng.next(num_domains) + 1);
        switch (rng.next(4)) {
          case 0: { // setPerm for the current thread.
            const Perm p = static_cast<Perm>(rng.next(4));
            h.scheme().setPerm(current, d, p);
            // Hardware 2-bit encodings cannot express write-only;
            // the schemes widen it to read-write (permNormalizeHw).
            oracle[{current, d}] = permNormalizeHw(p);
            break;
          }
          case 1: { // Context switch.
            const ThreadId next = static_cast<ThreadId>(rng.next(3));
            h.scheme().contextSwitch(current, next);
            current = next;
            break;
          }
          default: { // Access.
            const bool write = rng.chance(0.5);
            const Addr va = pmoBase(d - 1) + rng.next(kSize - 8);
            auto it = oracle.find({current, d});
            const Perm have =
                it == oracle.end() ? Perm::None : it->second;
            const bool expect =
                permAllows(have, write ? Perm::Write : Perm::Read);
            const bool got = write ? h.canWrite(current, va)
                                   : h.canRead(current, va);
            ASSERT_EQ(got, expect)
                << "step " << step << " tid " << current << " domain "
                << d << " write " << write << " have "
                << permToString(have);
          }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, EnforcingScheme,
    ::testing::Values(SchemeKind::Mpk, SchemeKind::LibMpk,
                      SchemeKind::MpkVirt, SchemeKind::DomainVirt),
    [](const ::testing::TestParamInfo<SchemeKind> &info) {
        return std::string(arch::schemeName(info.param));
    });

// A second attach of a live domain is a caller bug in every scheme;
// none may silently rebind (stock MPK used to leak the first key).
class DoubleAttachDeathTest : public EnforcingScheme
{
};

TEST_P(DoubleAttachDeathTest, SecondAttachOfALiveDomainPanics)
{
    SchemeHarness h(GetParam());
    h.attach(1, pmoBase(0), kSize);
    EXPECT_DEATH(h.attach(1, pmoBase(1), kSize), "attached twice");
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, DoubleAttachDeathTest,
    ::testing::Values(SchemeKind::Mpk, SchemeKind::LibMpk,
                      SchemeKind::MpkVirt, SchemeKind::DomainVirt),
    [](const ::testing::TestParamInfo<SchemeKind> &info) {
        return std::string(arch::schemeName(info.param));
    });

// The schemes that virtualize keys or domains keep one registry row
// per domain id, filled from the page walk's region.
class DenseRegistry : public ::testing::TestWithParam<SchemeKind>
{
};

/** The key @p d holds in a key-virtualizing scheme (kInvalidKey for
 *  domain_virt, which has none). */
ProtKey
keyOf(SchemeHarness &h, DomainId d)
{
    if (auto *k = dynamic_cast<arch::KeyScheme *>(&h.scheme()))
        return k->keyOf(d);
    return kInvalidKey;
}

/** True when the fill of @p va stamped @p d: its id, or its key. */
bool
filledAs(SchemeHarness &h, Addr va, DomainId d)
{
    const tlb::TlbEntry *e = test::cached(h.tlbs().l1(), va);
    if (!e)
        return false;
    if (dynamic_cast<arch::DomainVirtScheme *>(&h.scheme()))
        return e->domain == d;
    return keyOf(h, d) != kInvalidKey && e->key == keyOf(h, d);
}

TEST_P(DenseRegistry, SparseIdsAndReattachAtANewRange)
{
    SchemeHarness h(GetParam());
    auto *virt = dynamic_cast<arch::DomainVirtScheme *>(&h.scheme());
    // Out of order and far apart: rows 2, 5 and 4096 of one table.
    const DomainId ids[] = {4096, 5, 2};
    for (unsigned i = 0; i < 3; ++i)
        h.attach(ids[i], pmoBase(i), kSize);
    h.scheme().setPerm(0, 4096, Perm::ReadWrite);
    h.scheme().setPerm(0, 5, Perm::Read);
    h.scheme().setPerm(3, 2, Perm::ReadWrite);

    EXPECT_TRUE(h.canWrite(0, pmoBase(0)));
    EXPECT_TRUE(h.canRead(0, pmoBase(1)));
    EXPECT_FALSE(h.canWrite(0, pmoBase(1)));
    EXPECT_FALSE(h.canRead(0, pmoBase(2)));
    for (unsigned i = 0; i < 3; ++i)
        EXPECT_TRUE(filledAs(h, pmoBase(i), ids[i])) << ids[i];
    EXPECT_EQ(h.scheme().effectivePerm(0, 4096), Perm::ReadWrite);
    EXPECT_EQ(h.scheme().effectivePerm(0, 5), Perm::Read);
    EXPECT_EQ(h.scheme().effectivePerm(0, 2), Perm::None);
    EXPECT_EQ(h.scheme().effectivePerm(3, 2), Perm::ReadWrite);
    EXPECT_EQ(h.scheme().effectivePerm(0, 3), Perm::ReadWrite); // No row.

    // A round trip through thread 3 writes thread 0's PTLB grants
    // back to the PT rows.
    h.scheme().contextSwitch(0, 3);
    h.scheme().contextSwitch(3, 0);
    if (virt) {
        EXPECT_EQ(virt->ptGet(4096, 0), Perm::ReadWrite);
        EXPECT_EQ(virt->ptGet(5, 0), Perm::Read);
        EXPECT_EQ(virt->ptGet(2, 0), Perm::None);
        EXPECT_EQ(virt->ptGet(2, 3), Perm::ReadWrite);
    }

    // Domain 5 comes back at another range with a fresh row.
    h.detach(5);
    EXPECT_EQ(h.scheme().effectivePerm(0, 5), Perm::ReadWrite); // No row.
    h.attach(5, pmoBase(7), kSize);
    EXPECT_EQ(keyOf(h, 5), kInvalidKey);
    EXPECT_EQ(h.scheme().effectivePerm(0, 5), Perm::None);
    if (virt) {
        EXPECT_EQ(virt->ptGet(5, 0), Perm::None);
    }
    EXPECT_FALSE(h.canRead(0, pmoBase(7)));
    EXPECT_TRUE(filledAs(h, pmoBase(7), 5));
    h.scheme().setPerm(0, 5, Perm::ReadWrite);
    EXPECT_TRUE(h.canWrite(0, pmoBase(7)));
    EXPECT_EQ(h.scheme().effectivePerm(0, 5), Perm::ReadWrite);
    // The old range is unmapped; the neighbours kept their rows.
    EXPECT_EQ(test::cached(h.tlbs().l1(), pmoBase(1)), nullptr);
    EXPECT_TRUE(h.canWrite(0, pmoBase(0)));
    EXPECT_FALSE(h.canRead(0, pmoBase(2)));
    EXPECT_EQ(h.scheme().effectivePerm(3, 2), Perm::ReadWrite);
}

INSTANTIATE_TEST_SUITE_P(
    KeyAndDomainSchemes, DenseRegistry,
    ::testing::Values(SchemeKind::LibMpk, SchemeKind::MpkVirt,
                      SchemeKind::DomainVirt),
    [](const ::testing::TestParamInfo<SchemeKind> &info) {
        return std::string(arch::schemeName(info.param));
    });

// At every core count a key changing hands is loaded into every
// thread's PKRU from the holder's whole row, spilled threads included:
// a thread that is not running holds no stale grant for the key.
class KeyRebind : public ::testing::TestWithParam<SchemeKind>
{
};

/** Thread @p t's PKRU permission for the key @p d holds. */
Perm
pkruPerm(SchemeHarness &h, ThreadId t, DomainId d)
{
    const auto &k = static_cast<arch::KeyScheme &>(h.scheme());
    return k.pkru(t).permFor(k.keyOf(d));
}

TEST_P(KeyRebind, NineThreadRowLoadsIntoEveryPkru)
{
    for (unsigned cores : {1u, 2u}) {
        SCOPED_TRACE(std::to_string(cores) + " cores");
        arch::CoreTopology topo;
        topo.numCores = cores;
        SchemeHarness h(GetParam(), {}, topo);
        const auto perm_of = [](ThreadId t) {
            const Perm cycle[] = {Perm::Read, Perm::None, Perm::ReadWrite};
            return cycle[t % 3];
        };
        h.attach(1, pmoBase(0), kSize);
        for (ThreadId t = 0; t <= 8; ++t) // Thread 8 spills the row.
            h.scheme().setPerm(t, 1, perm_of(t));
        // Fifteen more domains take every usable key from domain 1.
        for (unsigned i = 1; i <= 15; ++i) {
            h.attachGranted(i + 1, pmoBase(i), kSize);
            EXPECT_TRUE(h.canRead(0, pmoBase(i)));
        }
        ASSERT_EQ(keyOf(h, 1), kInvalidKey);

        EXPECT_TRUE(h.canRead(0, pmoBase(0)));
        ASSERT_NE(keyOf(h, 1), kInvalidKey);
        for (ThreadId t = 0; t <= 8; ++t)
            EXPECT_EQ(pkruPerm(h, t, 1), perm_of(t)) << t;
        EXPECT_EQ(pkruPerm(h, 9, 1), Perm::None); // Past the row.
    }
}

INSTANTIATE_TEST_SUITE_P(
    KeySchemes, KeyRebind,
    ::testing::Values(SchemeKind::LibMpk, SchemeKind::MpkVirt),
    [](const ::testing::TestParamInfo<SchemeKind> &info) {
        return std::string(arch::schemeName(info.param));
    });

// The pass-through schemes allow everything by design.
class PassThroughScheme : public ::testing::TestWithParam<SchemeKind>
{
};

TEST_P(PassThroughScheme, EverythingAllowed)
{
    SchemeHarness h(GetParam());
    h.attach(1, pmoBase(0), kSize);
    EXPECT_TRUE(h.canRead(0, pmoBase(0)));
    EXPECT_TRUE(h.canWrite(0, pmoBase(0)));
    EXPECT_EQ(h.scheme().effectivePerm(0, 1), Perm::ReadWrite);
}

INSTANTIATE_TEST_SUITE_P(
    Baselines, PassThroughScheme,
    ::testing::Values(SchemeKind::NoProtection, SchemeKind::Lowerbound),
    [](const ::testing::TestParamInfo<SchemeKind> &info) {
        return std::string(arch::schemeName(info.param));
    });

TEST(SchemeNames, RoundTrip)
{
    for (SchemeKind k :
         {SchemeKind::NoProtection, SchemeKind::Lowerbound,
          SchemeKind::Mpk, SchemeKind::LibMpk, SchemeKind::MpkVirt,
          SchemeKind::DomainVirt}) {
        EXPECT_EQ(arch::schemeFromName(arch::schemeName(k)), k);
    }
}

TEST(SchemeNamesDeathTest, UnknownNameIsFatal)
{
    EXPECT_EXIT(arch::schemeFromName("bogus"),
                ::testing::ExitedWithCode(1), "unknown");
}

} // namespace
} // namespace pmodv
