/**
 * @file
 * Unit tests for the hardware domain-virtualization design: PTLB
 * behaviour, DRT-filled TLB domain ids, PTLB-resident SETPERM, lazy
 * PT write-back, and shootdown-free context switches.
 */

#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "arch/domain_virt.hh"
#include "arch/ptlb.hh"
#include "common/rng.hh"
#include "linear_cam.hh"
#include "scheme_test_util.hh"
#include "tlb_helpers.hh"

namespace pmodv
{
namespace
{

using arch::DomainVirtScheme;
using arch::Ptlb;
using arch::PtlbEntry;
using arch::SchemeKind;
using test::pmoBase;
using test::SchemeHarness;

constexpr Addr kSize = Addr{1} << 20;

// ---------------------------------------------------------------
// PTLB unit tests.
// ---------------------------------------------------------------

PtlbEntry
makeEntry(DomainId domain, Perm perm, bool dirty = false)
{
    PtlbEntry e;
    e.used = true;
    e.domain = domain;
    e.perm = perm;
    e.dirty = dirty;
    return e;
}

TEST(Ptlb, LookupAndStats)
{
    stats::Group root(nullptr, "");
    Ptlb ptlb(&root, 4);
    ptlb.insert(makeEntry(3, Perm::Read));
    EXPECT_NE(ptlb.lookup(3), nullptr);
    EXPECT_EQ(ptlb.lookup(4), nullptr);
    EXPECT_DOUBLE_EQ(ptlb.hits.value(), 1.0);
    EXPECT_DOUBLE_EQ(ptlb.misses.value(), 1.0);
}

TEST(Ptlb, EvictionReturnsVictim)
{
    stats::Group root(nullptr, "");
    Ptlb ptlb(&root, 2);
    ptlb.insert(makeEntry(1, Perm::Read, true));
    EXPECT_FALSE(ptlb.insert(makeEntry(2, Perm::ReadWrite)));
    ptlb.lookup(2); // Make domain 1 the victim.
    const auto evicted = ptlb.insert(makeEntry(3, Perm::Read));
    ASSERT_TRUE(evicted);
    EXPECT_EQ(evicted->domain, 1u);
    EXPECT_TRUE(evicted->dirty);
}

TEST(Ptlb, FlushCollectsOnlyDirty)
{
    stats::Group root(nullptr, "");
    Ptlb ptlb(&root, 4);
    ptlb.insert(makeEntry(1, Perm::Read, true));
    ptlb.insert(makeEntry(2, Perm::Read, false));
    std::vector<PtlbEntry> dirty;
    ptlb.flushAll(dirty);
    ASSERT_EQ(dirty.size(), 1u);
    EXPECT_EQ(dirty[0].domain, 1u);
    EXPECT_EQ(ptlb.usedCount(), 0u);
}

TEST(Ptlb, InvalidateSingleDomain)
{
    stats::Group root(nullptr, "");
    Ptlb ptlb(&root, 4);
    ptlb.insert(makeEntry(1, Perm::Read));
    EXPECT_TRUE(ptlb.invalidate(1));
    EXPECT_FALSE(ptlb.invalidate(1));
}

void
expectSameEntry(const PtlbEntry &a, const PtlbEntry &b)
{
    EXPECT_EQ(a.used, b.used);
    EXPECT_EQ(a.domain, b.domain);
    EXPECT_EQ(a.perm, b.perm);
    EXPECT_EQ(a.dirty, b.dirty);
}

TEST(Ptlb, MatchesLinearScanReference)
{
    // Far more domains than the widest buffer, half the draws from a
    // hot few, and rare flushes, so every size both hits and evicts.
    constexpr unsigned kDomains = 1024;
    constexpr unsigned kHot = 4;
    for (unsigned entries : {1u, 3u, 16u, 64u, 80u, 128u}) {
        SCOPED_TRACE("entries=" + std::to_string(entries));
        stats::Group root(nullptr, "");
        Ptlb cam(&root, entries);
        test::LinearCam<PtlbEntry> ref(entries);
        // Reference slot index -> the CAM's entry for that slot.
        std::vector<PtlbEntry *> slotPtr(entries, nullptr);
        Rng rng(0x971b + entries);
        auto pick = [&](std::uint64_t n) { return rng.next(n); };
        auto perm = [&] { return static_cast<Perm>(pick(4)); };

        auto expectSlot = [&](PtlbEntry *got, int want) {
            if (want < 0) {
                EXPECT_EQ(got, nullptr);
                return;
            }
            ASSERT_NE(got, nullptr);
            ASSERT_NE(slotPtr[want], nullptr);
            EXPECT_EQ(got, slotPtr[want]);
            expectSameEntry(*got, ref.slot(static_cast<unsigned>(want)));
        };

        for (unsigned step = 0; step < 20000; ++step) {
            const unsigned op = static_cast<unsigned>(pick(1000));
            const DomainId d =
                static_cast<DomainId>(pick(pick(2) ? kHot : kDomains));
            if (op < 350) {
                const Perm p = perm();
                const PtlbEntry e = makeEntry(d, p, pick(2));
                std::optional<PtlbEntry> ev_ref;
                const auto ev_cam = cam.insert(e);
                PtlbEntry *got = cam.find(d);
                const unsigned want = ref.insert(e, ev_ref);
                ASSERT_EQ(ev_cam.has_value(), ev_ref.has_value())
                    << "step " << step;
                if (ev_ref)
                    expectSameEntry(*ev_cam, *ev_ref);
                if (!slotPtr[want]) {
                    for (PtlbEntry *p : slotPtr)
                        ASSERT_NE(p, got) << "two slots, one entry";
                    slotPtr[want] = got;
                }
                expectSlot(got, static_cast<int>(want));
            } else if (op < 800) {
                expectSlot(cam.lookup(d), ref.lookup(d));
            } else if (op < 900) {
                const int want = ref.find(d);
                PtlbEntry *got = cam.find(d);
                expectSlot(got, want);
                // Mutate the payload in place, as SETPERM does on a
                // PTLB hit.
                if (got) {
                    got->perm = ref.slot(want).perm = perm();
                    got->dirty = ref.slot(want).dirty = true;
                }
            } else if (op < 999) {
                ASSERT_EQ(cam.invalidate(d), ref.invalidate(d));
            } else {
                std::vector<PtlbEntry> dirty_cam, dirty_ref;
                cam.flushAll(dirty_cam);
                ref.flushAll(dirty_ref);
                ASSERT_EQ(dirty_cam.size(), dirty_ref.size());
                for (std::size_t i = 0; i < dirty_ref.size(); ++i)
                    expectSameEntry(dirty_cam[i], dirty_ref[i]);
                EXPECT_EQ(cam.usedCount(), 0u);
            }
            std::string why;
            ASSERT_TRUE(cam.consistent(&why))
                << "step " << step << ": " << why;
            ASSERT_FALSE(::testing::Test::HasFailure()) << "step " << step;
        }
        ASSERT_DOUBLE_EQ(cam.hits.value(), ref.hits);
        ASSERT_DOUBLE_EQ(cam.misses.value(), ref.misses);
        ASSERT_DOUBLE_EQ(cam.evictions.value(), ref.evictions);
        ASSERT_GT(ref.hits, 100u);
        ASSERT_GT(ref.evictions, 100u);
    }
}

// ---------------------------------------------------------------
// Full-scheme tests.
// ---------------------------------------------------------------

TEST(DomainVirt, TlbEntriesCarryDomainIds)
{
    SchemeHarness h(SchemeKind::DomainVirt);
    h.attachGranted(7, pmoBase(0), kSize, Perm::Read);
    h.canRead(0, pmoBase(0));
    const auto *entry = test::cached(h.tlbs().l1(), pmoBase(0));
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->domain, 7u);
    EXPECT_EQ(entry->key, kNullKey); // No keys in this design.
}

TEST(DomainVirt, Figure2Scenarios)
{
    SchemeHarness h(SchemeKind::DomainVirt);
    h.attachGranted(1, pmoBase(0), kSize, Perm::Read);
    const Addr a = pmoBase(0) + 0x10;

    EXPECT_TRUE(h.canRead(0, a));
    EXPECT_FALSE(h.canWrite(0, a));
    h.scheme().setPerm(0, 1, Perm::ReadWrite);
    EXPECT_TRUE(h.canWrite(0, a));
    h.scheme().setPerm(0, 1, Perm::None);
    EXPECT_FALSE(h.canRead(0, a));

    // Spatial isolation across a context switch.
    h.scheme().setPerm(0, 1, Perm::ReadWrite);
    h.scheme().contextSwitch(0, 2);
    EXPECT_FALSE(h.canRead(2, a));
    h.scheme().contextSwitch(2, 0);
    EXPECT_TRUE(h.canWrite(0, a));
}

TEST(DomainVirt, ScalesFarBeyond16Domains)
{
    SchemeHarness h(SchemeKind::DomainVirt);
    auto &virt = static_cast<DomainVirtScheme &>(h.scheme());
    for (unsigned i = 0; i < 100; ++i)
        h.attachGranted(i + 1, pmoBase(i), kSize,
                        i % 2 ? Perm::ReadWrite : Perm::Read);
    // Spot-check: even-indexed domains are read-only, odd read-write,
    // and crucially there are NO shootdowns anywhere.
    EXPECT_TRUE(h.canRead(0, pmoBase(10)));
    EXPECT_FALSE(h.canWrite(0, pmoBase(10)));
    EXPECT_TRUE(h.canWrite(0, pmoBase(11)));
    EXPECT_DOUBLE_EQ(virt.shootdowns.value(), 0.0);
    EXPECT_DOUBLE_EQ(virt.keyRemaps.value(), 0.0);
}

TEST(DomainVirt, PtlbAccessLatencyCharged)
{
    arch::ProtParams params;
    params.ptlbAccessCycles = 1;
    SchemeHarness h(SchemeKind::DomainVirt, params);
    h.attachGranted(1, pmoBase(0), kSize);
    // First access: PTLB hit (SETPERM installed the entry): 1 cycle.
    const auto out = h.accessOutcome(0, pmoBase(0), AccessType::Write);
    EXPECT_TRUE(out.allowed);
    EXPECT_EQ(out.checkCycles, 1u);
}

TEST(DomainVirt, PtlbMissChargesPtLookup)
{
    arch::ProtParams params;
    params.ptlbEntries = 2;
    params.ptlbMissCycles = 30;
    SchemeHarness h(SchemeKind::DomainVirt, params);
    for (unsigned i = 0; i < 4; ++i)
        h.attachGranted(i + 1, pmoBase(i), kSize);
    // Domains 1/2 were evicted from the 2-entry PTLB by 3/4; touching
    // domain 1 misses and pays the PT lookup.
    const auto out = h.accessOutcome(0, pmoBase(0), AccessType::Write);
    EXPECT_TRUE(out.allowed); // Dirty value was written back to PT.
    EXPECT_GE(out.checkCycles, 30u);
}

TEST(DomainVirt, LazyPtWriteBackOnEviction)
{
    arch::ProtParams params;
    params.ptlbEntries = 2;
    SchemeHarness h(SchemeKind::DomainVirt, params);
    auto &virt = static_cast<DomainVirtScheme &>(h.scheme());
    h.attachGranted(1, pmoBase(0), kSize);
    // SETPERM completes in the PTLB; the PT still has no entry.
    EXPECT_EQ(virt.ptGet(1, 0), Perm::None);
    // Force eviction of domain 1's dirty entry.
    h.attachGranted(2, pmoBase(1), kSize, Perm::Read);
    h.attachGranted(3, pmoBase(2), kSize, Perm::Read);
    EXPECT_EQ(virt.ptGet(1, 0), Perm::ReadWrite);
    EXPECT_GE(virt.ptlbWritebacks.value(), 1.0);
}

TEST(DomainVirt, ContextSwitchKeepsTlbFlushesPtlb)
{
    SchemeHarness h(SchemeKind::DomainVirt);
    auto &virt = static_cast<DomainVirtScheme &>(h.scheme());
    h.attachGranted(1, pmoBase(0), kSize);
    h.canWrite(0, pmoBase(0));
    ASSERT_NE(test::cached(h.tlbs().l1(), pmoBase(0)), nullptr);

    h.scheme().contextSwitch(0, 5);
    // The TLB entry (with its domain id) survives the switch — the
    // design's key advantage.
    EXPECT_NE(test::cached(h.tlbs().l1(), pmoBase(0)), nullptr);
    EXPECT_EQ(virt.ptlb().usedCount(), 0u);
    // And thread 5 has no permission despite the warm TLB.
    EXPECT_FALSE(h.canRead(5, pmoBase(0)));
}

TEST(DomainVirt, ContextSwitchWritesBackOutgoingPerms)
{
    SchemeHarness h(SchemeKind::DomainVirt);
    auto &virt = static_cast<DomainVirtScheme &>(h.scheme());
    h.attachGranted(1, pmoBase(0), kSize); // Grant is dirty in PTLB.
    h.scheme().contextSwitch(0, 5);
    EXPECT_EQ(virt.ptGet(1, 0), Perm::ReadWrite);
    // Thread 0's permission survives the round trip.
    h.scheme().contextSwitch(5, 0);
    EXPECT_TRUE(h.canWrite(0, pmoBase(0)));
}

TEST(DomainVirt, DetachDropsEverything)
{
    SchemeHarness h(SchemeKind::DomainVirt);
    auto &virt = static_cast<DomainVirtScheme &>(h.scheme());
    h.attachGranted(1, pmoBase(0), kSize);
    h.canWrite(0, pmoBase(0));
    h.detach(1);
    EXPECT_EQ(test::cached(h.tlbs().l1(), pmoBase(0)), nullptr);
    // The registry no longer knows the domain: page rules govern.
    EXPECT_EQ(virt.effectivePerm(0, 1), Perm::ReadWrite);
    // The PT row went with the domain: a re-attach of the same id
    // inherits no grant.
    h.attach(1, pmoBase(0), kSize);
    EXPECT_EQ(virt.ptGet(1, 0), Perm::None);
    EXPECT_EQ(h.scheme().effectivePerm(0, 1), Perm::None);
}

TEST(DomainVirt, DomainlessBypassesPtlb)
{
    SchemeHarness h(SchemeKind::DomainVirt);
    const auto out = h.accessOutcome(0, 0x9000, AccessType::Write);
    EXPECT_TRUE(out.allowed);
    EXPECT_EQ(out.charged(), 0u);
}

TEST(DomainVirt, EffectivePermReadsFreshPtlbValue)
{
    SchemeHarness h(SchemeKind::DomainVirt);
    h.attachGranted(1, pmoBase(0), kSize, Perm::Read);
    EXPECT_EQ(h.scheme().effectivePerm(0, 1), Perm::Read);
    h.scheme().setPerm(0, 1, Perm::ReadWrite);
    EXPECT_EQ(h.scheme().effectivePerm(0, 1), Perm::ReadWrite);
    EXPECT_EQ(h.scheme().effectivePerm(3, 1), Perm::None);
}

} // namespace
} // namespace pmodv
