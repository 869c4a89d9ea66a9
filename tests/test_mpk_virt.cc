/**
 * @file
 * Unit tests for the hardware MPK-virtualization design: DTTLB
 * behaviour, DTT-backed key remapping, shootdowns, and the PKRU state
 * a thread finds after a context switch.
 */

#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "arch/dttlb.hh"
#include "arch/mpk_virt.hh"
#include "common/rng.hh"
#include "linear_cam.hh"
#include "scheme_test_util.hh"
#include "tlb_helpers.hh"

namespace pmodv
{
namespace
{

using arch::Dttlb;
using arch::DttlbEntry;
using arch::MpkVirtScheme;
using arch::SchemeKind;
using test::pmoBase;
using test::SchemeHarness;

constexpr Addr kSize = Addr{1} << 20;

// ---------------------------------------------------------------
// DTTLB unit tests.
// ---------------------------------------------------------------

DttlbEntry
makeEntry(DomainId domain, Addr base, Addr size, ProtKey key)
{
    DttlbEntry e;
    e.used = true;
    e.base = base;
    e.size = size;
    e.domain = domain;
    e.key = key;
    e.valid = key != kNullKey;
    return e;
}

TEST(Dttlb, VaRangeLookup)
{
    stats::Group root(nullptr, "");
    Dttlb dttlb(&root, 4);
    EXPECT_FALSE(dttlb.insert(makeEntry(1, 0x10000, 0x4000, 2)));
    EXPECT_NE(dttlb.lookupVa(0x10000), nullptr);
    EXPECT_NE(dttlb.lookupVa(0x13fff), nullptr);
    EXPECT_EQ(dttlb.lookupVa(0x14000), nullptr);
    EXPECT_DOUBLE_EQ(dttlb.hits.value(), 2.0);
    EXPECT_DOUBLE_EQ(dttlb.misses.value(), 1.0);
}

TEST(Dttlb, CapacityEvictionReportsVictim)
{
    stats::Group root(nullptr, "");
    Dttlb dttlb(&root, 2);
    dttlb.insert(makeEntry(1, 0x10000, 0x1000, 1));
    EXPECT_FALSE(dttlb.insert(makeEntry(2, 0x20000, 0x1000, 2)));
    // Touch domain 1 so domain 2 is the PLRU victim.
    dttlb.lookupVa(0x10000);
    const auto evicted = dttlb.insert(makeEntry(3, 0x30000, 0x1000, 3));
    ASSERT_TRUE(evicted);
    EXPECT_EQ(evicted->domain, 2u);
    EXPECT_DOUBLE_EQ(dttlb.evictions.value(), 1.0);
}

TEST(Dttlb, ReinsertSameDomainReusesSlot)
{
    stats::Group root(nullptr, "");
    Dttlb dttlb(&root, 2);
    dttlb.insert(makeEntry(1, 0x10000, 0x1000, 1));
    EXPECT_FALSE(dttlb.insert(makeEntry(1, 0x10000, 0x1000, 5)));
    EXPECT_EQ(dttlb.usedCount(), 1u);
    EXPECT_EQ(dttlb.find(1)->key, 5u);
}

TEST(Dttlb, InvalidateDomain)
{
    stats::Group root(nullptr, "");
    Dttlb dttlb(&root, 4);
    dttlb.insert(makeEntry(1, 0x10000, 0x1000, 1));
    EXPECT_TRUE(dttlb.invalidate(1));
    EXPECT_FALSE(dttlb.invalidate(1));
    EXPECT_EQ(dttlb.usedCount(), 0u);
}

TEST(Dttlb, FlushCollectsDirtyEntries)
{
    stats::Group root(nullptr, "");
    Dttlb dttlb(&root, 4);
    auto e1 = makeEntry(1, 0x10000, 0x1000, 1);
    e1.dirty = true;
    auto e2 = makeEntry(2, 0x20000, 0x1000, 2);
    e2.dirty = false;
    dttlb.insert(e1);
    dttlb.insert(e2);
    std::vector<DttlbEntry> dirty;
    dttlb.flushAll(dirty);
    ASSERT_EQ(dirty.size(), 1u);
    EXPECT_EQ(dirty[0].domain, 1u);
    EXPECT_EQ(dttlb.usedCount(), 0u);
}

void
expectSameEntry(const DttlbEntry &a, const DttlbEntry &b)
{
    EXPECT_EQ(a.used, b.used);
    EXPECT_EQ(a.base, b.base);
    EXPECT_EQ(a.size, b.size);
    EXPECT_EQ(a.domain, b.domain);
    EXPECT_EQ(a.key, b.key);
    EXPECT_EQ(a.valid, b.valid);
    EXPECT_EQ(a.dirty, b.dirty);
}

TEST(Dttlb, MatchesLinearScanReference)
{
    constexpr Addr kTop = Addr{1} << 48;
    constexpr unsigned kDomains = 24;
    // Domain d owns the d-th 2^43-byte window of the 48-bit space and
    // draws each range it inserts from inside it, so used ranges stay
    // disjoint. The last domain's ranges end exactly at 2^48.
    constexpr unsigned kWindowShift = 43;
    for (unsigned entries : {1u, 3u, 16u, 64u, 80u, 128u}) {
        SCOPED_TRACE("entries=" + std::to_string(entries));
        stats::Group root(nullptr, "");
        Dttlb cam(&root, entries);
        test::LinearCam<DttlbEntry> ref(entries);
        // Reference slot index -> the CAM's entry for that slot, so
        // "same slot" is checked by address without widening the API.
        std::vector<DttlbEntry *> slotPtr(entries, nullptr);
        std::vector<DttlbEntry> ranges(kDomains);
        Rng rng(0xd771b + entries);
        auto pick = [&](std::uint64_t n) { return rng.next(n); };

        EXPECT_EQ(cam.lookupVa(0), nullptr);
        EXPECT_EQ(ref.lookupVa(0), -1);

        auto expectSlot = [&](DttlbEntry *got, int want) {
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
            const unsigned op = static_cast<unsigned>(pick(100));
            const DomainId d = static_cast<DomainId>(pick(kDomains));
            if (op < 30) {
                DttlbEntry e;
                const Addr window = Addr{d} << kWindowShift;
                e.size = (1 + pick(1024)) << 12;
                e.base = d == kDomains - 1
                             ? kTop - e.size
                             : window + (pick(1024) << 12);
                e.domain = d;
                e.key = static_cast<ProtKey>(pick(16));
                e.valid = pick(2);
                e.dirty = pick(2);
                ranges[d] = e;
                std::optional<DttlbEntry> ev_ref;
                const auto ev_cam = cam.insert(e);
                DttlbEntry *got = cam.find(d);
                const unsigned want = ref.insert(e, ev_ref);
                ASSERT_EQ(ev_cam.has_value(), ev_ref.has_value())
                    << "step " << step;
                if (ev_ref)
                    expectSameEntry(*ev_cam, *ev_ref);
                if (!slotPtr[want]) {
                    for (DttlbEntry *p : slotPtr)
                        ASSERT_NE(p, got) << "two slots, one entry";
                    slotPtr[want] = got;
                }
                expectSlot(got, static_cast<int>(want));
            } else if (op < 75) {
                // Around a range the domain used: inside, at both
                // ends, just outside, or anywhere.
                const DttlbEntry &r = ranges[d];
                Addr va = 0;
                switch (pick(6)) {
                  case 0:
                    va = r.base;
                    break;
                  case 1:
                    va = r.base + r.size - 1;
                    break;
                  case 2:
                    va = r.base + r.size;
                    break;
                  case 3:
                    va = r.base - 1;
                    break;
                  case 4:
                    va = r.base + pick(r.size + 1);
                    break;
                  default:
                    va = pick(kTop);
                    break;
                }
                expectSlot(cam.lookupVa(va), ref.lookupVa(va));
            } else if (op < 85) {
                const int want = ref.find(d);
                DttlbEntry *got = cam.find(d);
                expectSlot(got, want);
                // Mutate the payload in place, as MPK virtualization
                // does on a key remap.
                if (got) {
                    const ProtKey key = static_cast<ProtKey>(pick(16));
                    got->key = ref.slot(want).key = key;
                    got->valid = ref.slot(want).valid = true;
                    got->dirty = ref.slot(want).dirty = true;
                }
            } else if (op < 98) {
                ASSERT_EQ(cam.invalidate(d), ref.invalidate(d));
            } else {
                std::vector<DttlbEntry> dirty_cam, dirty_ref;
                cam.flushAll(dirty_cam);
                ref.flushAll(dirty_ref);
                ASSERT_EQ(dirty_cam.size(), dirty_ref.size());
                for (std::size_t i = 0; i < dirty_ref.size(); ++i)
                    expectSameEntry(dirty_cam[i], dirty_ref[i]);
                EXPECT_EQ(cam.lookupVa(0), nullptr);
                EXPECT_EQ(ref.lookupVa(0), -1);
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
        if (entries < kDomains) {
            ASSERT_GT(ref.evictions, 100u);
        }
    }
}

// ---------------------------------------------------------------
// Full-scheme tests.
// ---------------------------------------------------------------

TEST(MpkVirt, SupportsMoreThan16Domains)
{
    SchemeHarness h(SchemeKind::MpkVirt);
    for (unsigned i = 0; i < 64; ++i)
        h.attach(i + 1, pmoBase(i), kSize);
    // Every one of the 64 domains is individually protectable.
    h.scheme().setPerm(0, 40, Perm::ReadWrite);
    EXPECT_TRUE(h.canWrite(0, pmoBase(39)));
    EXPECT_FALSE(h.canWrite(0, pmoBase(40))); // Domain 41: no perm.
}

TEST(MpkVirt, FirstAccessAssignsFreeKey)
{
    arch::ProtParams params;
    SchemeHarness h(SchemeKind::MpkVirt, params);
    h.attachGranted(1, pmoBase(0), kSize);
    EXPECT_TRUE(h.canWrite(0, pmoBase(0)));
    auto &virt = static_cast<MpkVirtScheme &>(h.scheme());
    EXPECT_NE(virt.keyOf(1), kInvalidKey);
    EXPECT_DOUBLE_EQ(virt.keyRemaps.value(), 1.0);
    EXPECT_DOUBLE_EQ(virt.shootdowns.value(), 0.0); // Free key: none.
}

TEST(MpkVirt, EvictionRemapsAndShootsDown)
{
    SchemeHarness h(SchemeKind::MpkVirt);
    auto &virt = static_cast<MpkVirtScheme &>(h.scheme());
    // Fill all 15 keys.
    for (unsigned i = 0; i < 15; ++i) {
        h.attachGranted(i + 1, pmoBase(i), kSize);
        EXPECT_TRUE(h.canWrite(0, pmoBase(i)));
    }
    EXPECT_DOUBLE_EQ(virt.shootdowns.value(), 0.0);

    // A 16th domain forces a victim eviction.
    h.attachGranted(16, pmoBase(15), kSize);
    EXPECT_TRUE(h.canWrite(0, pmoBase(15)));
    EXPECT_DOUBLE_EQ(virt.shootdowns.value(), 1.0);

    // The LRU victim is domain 1 (least recently touched); its key
    // is gone and its TLB entries were range-flushed.
    EXPECT_EQ(virt.keyOf(1), kInvalidKey);
    EXPECT_EQ(test::cached(h.tlbs().l1(), pmoBase(0)), nullptr);

    // Accessing domain 1 again remaps it (evicting another victim).
    EXPECT_TRUE(h.canWrite(0, pmoBase(0)));
    EXPECT_NE(virt.keyOf(1), kInvalidKey);
    EXPECT_DOUBLE_EQ(virt.shootdowns.value(), 2.0);
}

TEST(MpkVirt, EvictionCostsMatchConfig)
{
    arch::ProtParams params;
    params.dttWalkCycles = 30;
    SchemeHarness h(SchemeKind::MpkVirt, params);
    for (unsigned i = 0; i < 16; ++i)
        h.attachGranted(i + 1, pmoBase(i), kSize);
    for (unsigned i = 0; i < 15; ++i)
        h.canWrite(0, pmoBase(i));
    // Access to the 16th domain: fill extra must include the DTT walk
    // (DTTLB cold for this domain) and the shootdown.
    const auto out = h.accessOutcome(0, pmoBase(15), AccessType::Write);
    EXPECT_GE(out.fillCycles, 286u + 30u);
}

TEST(MpkVirt, Figure2Scenarios)
{
    SchemeHarness h(SchemeKind::MpkVirt);
    // Temporal.
    h.attachGranted(1, pmoBase(0), kSize, Perm::Read);
    const Addr a = pmoBase(0) + 0x10;

    EXPECT_TRUE(h.canRead(0, a));
    EXPECT_FALSE(h.canWrite(0, a));
    h.scheme().setPerm(0, 1, Perm::ReadWrite);
    EXPECT_TRUE(h.canWrite(0, a));
    h.scheme().setPerm(0, 1, Perm::None);
    EXPECT_FALSE(h.canRead(0, a));

    // Spatial: permissions are per thread.
    h.scheme().setPerm(1, 1, Perm::ReadWrite);
    h.scheme().contextSwitch(0, 1);
    EXPECT_TRUE(h.canWrite(1, a));
    h.scheme().contextSwitch(1, 2);
    EXPECT_FALSE(h.canRead(2, a));
}

TEST(MpkVirt, SetPermInvalidatesDttlbAndUpdatesPkru)
{
    SchemeHarness h(SchemeKind::MpkVirt);
    h.attachGranted(1, pmoBase(0), kSize);
    EXPECT_TRUE(h.canWrite(0, pmoBase(0)));
    // Key is held; revoking must take effect even on the TLB-hit path
    // (PKRU updated alongside the DTT).
    h.scheme().setPerm(0, 1, Perm::Read);
    EXPECT_FALSE(h.canWrite(0, pmoBase(0)));
    EXPECT_TRUE(h.canRead(0, pmoBase(0)));
}

TEST(MpkVirt, ContextSwitchReconstructsPkru)
{
    SchemeHarness h(SchemeKind::MpkVirt);
    h.attachGranted(1, pmoBase(0), kSize);
    h.scheme().setPerm(7, 1, Perm::Read);
    EXPECT_TRUE(h.canWrite(0, pmoBase(0))); // Maps the key for tid 0.

    // Mapping the key loaded it into every thread's PKRU from the DTT
    // row, so thread 7's register already carries its Read-only
    // permission, and the switch to thread 7 leaves it so.
    h.scheme().contextSwitch(0, 7);
    EXPECT_TRUE(h.canRead(7, pmoBase(0)));
    EXPECT_FALSE(h.canWrite(7, pmoBase(0)));
}

TEST(MpkVirt, ContextSwitchFlushesDttlb)
{
    SchemeHarness h(SchemeKind::MpkVirt);
    auto &virt = static_cast<MpkVirtScheme &>(h.scheme());
    h.attachGranted(1, pmoBase(0), kSize);
    h.canWrite(0, pmoBase(0));
    EXPECT_GE(virt.dttlb().usedCount(), 1u);
    h.scheme().contextSwitch(0, 1);
    EXPECT_EQ(virt.dttlb().usedCount(), 0u);
    EXPECT_DOUBLE_EQ(virt.contextSwitches.value(), 1.0);
}

TEST(MpkVirt, DetachFreesKeyAndCleansState)
{
    SchemeHarness h(SchemeKind::MpkVirt);
    auto &virt = static_cast<MpkVirtScheme &>(h.scheme());
    h.attachGranted(1, pmoBase(0), kSize);
    h.canWrite(0, pmoBase(0));
    const ProtKey key = virt.keyOf(1);
    ASSERT_NE(key, kInvalidKey);
    h.detach(1);
    EXPECT_EQ(virt.keyOf(1), kInvalidKey);
    EXPECT_EQ(virt.domainOfKey(key), kNullDomain);
    // The registry no longer knows the domain: page rules govern.
    EXPECT_EQ(virt.effectivePerm(0, 1), Perm::ReadWrite);
}

TEST(MpkVirt, LruVictimSelection)
{
    SchemeHarness h(SchemeKind::MpkVirt);
    auto &virt = static_cast<MpkVirtScheme &>(h.scheme());
    for (unsigned i = 0; i < 15; ++i) {
        h.attachGranted(i + 1, pmoBase(i), kSize);
        h.canWrite(0, pmoBase(i));
    }
    // Refresh domain 1 so domain 2 becomes LRU.
    h.canWrite(0, pmoBase(0));
    h.attachGranted(99, pmoBase(20), kSize);
    h.canWrite(0, pmoBase(20));
    EXPECT_EQ(virt.keyOf(2), kInvalidKey); // Domain 2 was the victim.
    EXPECT_NE(virt.keyOf(1), kInvalidKey);
}

TEST(MpkVirt, DomainlessAccessesUnaffected)
{
    SchemeHarness h(SchemeKind::MpkVirt);
    h.attach(1, pmoBase(0), kSize);
    const auto out = h.accessOutcome(0, 0x4000, AccessType::Write);
    EXPECT_TRUE(out.allowed); // Non-PMO VA.
    EXPECT_EQ(out.charged(), 0u);
}

} // namespace
} // namespace pmodv
