/**
 * @file
 * Multi-core replay: per-core contexts, shared PMO state, and the
 * broadcast shootdown bus.
 *
 * The adversarial traces below pin the bus's filtering semantics:
 * every remote core is interrupted by an eviction broadcast, but only
 * cores *actually holding stale TLB entries* for the victim range pay
 * the invalidation charge (and appear as EventKind::Ipi). domain_virt
 * never touches the bus at all — the paper's central cost asymmetry.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "arch/mpk.hh"
#include "core/system.hh"
#include "replay_util.hh"
#include "tlb_helpers.hh"

namespace pmodv
{
namespace
{

using arch::SchemeKind;
using core::SimConfig;
using core::System;
using trace::EventKind;
using trace::TraceRecord;

constexpr Addr kRegionSize = 4096;

Addr
base(unsigned domain)
{
    return (Addr{1} << 33) + Addr{domain} * (Addr{16} << 20);
}

SimConfig
configWithCores(unsigned cores)
{
    SimConfig config;
    config.topology.numCores = cores;
    return config;
}

void
replay(System &sys, const std::vector<TraceRecord> &records)
{
    sys.replayBatch(records);
    sys.finish();
}

/**
 * The shared preamble: attach domains 1..16 and grant RW. Thread 0
 * owns every domain; @p remote_tid additionally gets RW on domain 1
 * (the victim-to-be) when nonzero.
 */
std::vector<TraceRecord>
preamble(unsigned remote_tid)
{
    std::vector<TraceRecord> t;
    for (unsigned d = 1; d <= 16; ++d)
        t.push_back(TraceRecord::attach(0, d, base(d), kRegionSize,
                                        Perm::ReadWrite));
    for (unsigned d = 1; d <= 16; ++d)
        t.push_back(TraceRecord::setPerm(0, d, Perm::ReadWrite));
    if (remote_tid)
        t.push_back(TraceRecord::setPerm(
            static_cast<std::uint16_t>(remote_tid), 1, Perm::ReadWrite));
    return t;
}

std::uint64_t
countIpis(System &sys)
{
    std::uint64_t n = 0;
    for (const auto &ev : sys.drainEvents())
        if (ev.kind == EventKind::Ipi)
            ++n;
    return n;
}

/**
 * The issue's two-core adversarial trace: thread 1 (core 1) caches
 * one page of domain 1, then thread 0 (core 0) binds keys to domains
 * 2..15 and finally touches domain 16, evicting domain 1's key. The
 * broadcast interrupts core 1, which holds the stale page — exactly
 * one responded IPI, none filtered.
 */
TEST(MultiCore, TwoCoreEvictionChargesExactlyOneIpi)
{
    System sys(configWithCores(2), SchemeKind::MpkVirt);
    auto t = preamble(/*remote_tid=*/1);
    t.push_back(TraceRecord::threadSwitch(1));
    t.push_back(TraceRecord::load(1, base(1), 8, true));
    for (unsigned d = 2; d <= 15; ++d)
        t.push_back(TraceRecord::load(0, base(d), 8, true));
    // 15 keys now bound (domains 1..15); this access evicts the LRU
    // key holder, domain 1 — whose only cached page lives on core 1.
    t.push_back(TraceRecord::load(0, base(16), 8, true));
    replay(sys, t);

    auto *bus = sys.shootdownBus();
    ASSERT_NE(bus, nullptr);
    EXPECT_DOUBLE_EQ(bus->broadcasts.value(), 1.0);
    EXPECT_DOUBLE_EQ(bus->ipisSent.value(), 1.0);
    EXPECT_DOUBLE_EQ(bus->ipisResponded.value(), 1.0);
    EXPECT_DOUBLE_EQ(bus->ipisFiltered.value(), 0.0);
    EXPECT_GE(bus->pagesInvalidated.value(), 1.0);
    EXPECT_DOUBLE_EQ(sys.coreAt(1).ipisResponded.value(), 1.0);
    EXPECT_DOUBLE_EQ(sys.coreAt(0).ipisResponded.value(), 0.0);

    // Exactly one Ipi event: responding core 1, initiating thread 0.
    unsigned ipis = 0;
    for (const auto &ev : sys.drainEvents()) {
        if (ev.kind != EventKind::Ipi)
            continue;
        ++ipis;
        EXPECT_EQ(ev.arg, 1u);
        EXPECT_EQ(ev.tid, 0u);
        EXPECT_GE(ev.value, 1u);
    }
    EXPECT_EQ(ipis, 1u);
}

/** The idle remote core is interrupted but has nothing to flush. */
TEST(MultiCore, IdleRemoteCoreIsFilteredNotCharged)
{
    System sys(configWithCores(2), SchemeKind::MpkVirt);
    auto t = preamble(/*remote_tid=*/0);
    for (unsigned d = 1; d <= 15; ++d)
        t.push_back(TraceRecord::load(0, base(d), 8, true));
    t.push_back(TraceRecord::load(0, base(16), 8, true));
    replay(sys, t);

    auto *bus = sys.shootdownBus();
    ASSERT_NE(bus, nullptr);
    EXPECT_DOUBLE_EQ(bus->broadcasts.value(), 1.0);
    EXPECT_DOUBLE_EQ(bus->ipisSent.value(), 1.0);
    EXPECT_DOUBLE_EQ(bus->ipisResponded.value(), 0.0);
    EXPECT_DOUBLE_EQ(bus->ipisFiltered.value(), 1.0);
    EXPECT_DOUBLE_EQ(sys.coreAt(1).ipisFiltered.value(), 1.0);
    EXPECT_EQ(countIpis(sys), 0u);
}

/**
 * Three cores: core 1 holds the victim's page, core 2 holds an
 * unrelated domain's page. Both are interrupted; only core 1 pays.
 */
TEST(MultiCore, ThreeCoreBroadcastFiltersNonHolders)
{
    System sys(configWithCores(3), SchemeKind::MpkVirt);
    auto t = preamble(/*remote_tid=*/1);
    t.push_back(TraceRecord::setPerm(2, 2, Perm::ReadWrite));
    t.push_back(TraceRecord::load(1, base(1), 8, true)); // core 1: d1
    t.push_back(TraceRecord::load(2, base(2), 8, true)); // core 2: d2
    for (unsigned d = 3; d <= 15; ++d)
        t.push_back(TraceRecord::load(0, base(d), 8, true));
    t.push_back(TraceRecord::load(0, base(16), 8, true)); // evict d1
    replay(sys, t);

    auto *bus = sys.shootdownBus();
    ASSERT_NE(bus, nullptr);
    EXPECT_DOUBLE_EQ(bus->broadcasts.value(), 1.0);
    EXPECT_DOUBLE_EQ(bus->ipisSent.value(), 2.0);
    EXPECT_DOUBLE_EQ(bus->ipisResponded.value(), 1.0);
    EXPECT_DOUBLE_EQ(bus->ipisFiltered.value(), 1.0);
    EXPECT_DOUBLE_EQ(sys.coreAt(1).ipisResponded.value(), 1.0);
    EXPECT_DOUBLE_EQ(sys.coreAt(2).ipisFiltered.value(), 1.0);
    EXPECT_EQ(countIpis(sys), 1u);
}

/** libmpk's pkey_mprotect remap broadcasts the same way. */
TEST(MultiCore, LibMpkEvictionBroadcastsToStaleHolder)
{
    System sys(configWithCores(2), SchemeKind::LibMpk);
    std::vector<TraceRecord> t;
    for (unsigned d = 1; d <= 16; ++d)
        t.push_back(TraceRecord::attach(0, d, base(d), kRegionSize,
                                        Perm::ReadWrite));
    // libmpk maps a key on the first grant: thread 1 maps domain 1
    // first (the LRU victim-to-be) and caches its page on core 1.
    t.push_back(TraceRecord::setPerm(1, 1, Perm::ReadWrite));
    t.push_back(TraceRecord::load(1, base(1), 8, true));
    for (unsigned d = 2; d <= 15; ++d)
        t.push_back(TraceRecord::setPerm(0, d, Perm::ReadWrite));
    // The 16th mapping evicts domain 1's key and broadcasts.
    t.push_back(TraceRecord::setPerm(0, 16, Perm::ReadWrite));
    replay(sys, t);

    auto *bus = sys.shootdownBus();
    ASSERT_NE(bus, nullptr);
    EXPECT_DOUBLE_EQ(bus->broadcasts.value(), 1.0);
    EXPECT_DOUBLE_EQ(bus->ipisResponded.value(), 1.0);
    EXPECT_DOUBLE_EQ(bus->ipisFiltered.value(), 0.0);
    EXPECT_EQ(countIpis(sys), 1u);
}

/**
 * Stock MPK at K=2: the 16th attach finds no free key and goes
 * domainless. Its detach has no key to flush by, so it flushes the
 * PMO's range from every core's TLB, or stale translations would keep
 * the dead region's page rights.
 */
TEST(MultiCore, MpkDomainlessDetachFlushesEveryCore)
{
    System sys(configWithCores(2), SchemeKind::Mpk);
    std::vector<TraceRecord> t;
    for (unsigned d = 1; d <= 16; ++d)
        t.push_back(TraceRecord::attach(0, d, base(d), kRegionSize,
                                        Perm::ReadWrite));
    t.push_back(TraceRecord::load(0, base(16), 8, true)); // core 0
    t.push_back(TraceRecord::load(1, base(16), 8, true)); // core 1
    sys.replayBatch(t);

    auto &mpk = static_cast<arch::MpkScheme &>(sys.scheme());
    EXPECT_DOUBLE_EQ(mpk.keyExhausted.value(), 1.0);
    EXPECT_EQ(mpk.keyOf(16), kNullKey);
    EXPECT_DOUBLE_EQ(sys.deniedAccesses.value(), 0.0);
    for (arch::CoreId k = 0; k < 2; ++k)
        ASSERT_NE(test::cached(sys.coreAt(k).tlb.l1(), base(16)), nullptr)
            << "core " << k;

    sys.replayBatch(std::vector{TraceRecord::detach(0, 16)});
    sys.finish();
    EXPECT_EQ(mpk.keyOf(16), kInvalidKey);
    for (arch::CoreId k = 0; k < 2; ++k) {
        EXPECT_EQ(test::cached(sys.coreAt(k).tlb.l1(), base(16)), nullptr)
            << "core " << k;
        EXPECT_EQ(test::cached(sys.coreAt(k).tlb.l2(), base(16)), nullptr)
            << "core " << k;
    }
}

/** domain_virt never shoots down, whatever the core count. */
TEST(MultiCore, DomainVirtNeverTouchesTheBus)
{
    System sys(configWithCores(4), SchemeKind::DomainVirt);
    auto t = preamble(/*remote_tid=*/1);
    t.push_back(TraceRecord::load(1, base(1), 8, true));
    for (unsigned d = 2; d <= 16; ++d)
        t.push_back(TraceRecord::load(0, base(d), 8, true));
    for (unsigned d = 1; d <= 16; ++d)
        t.push_back(TraceRecord::setPerm(0, d, Perm::Read));
    replay(sys, t);

    auto *bus = sys.shootdownBus();
    ASSERT_NE(bus, nullptr);
    EXPECT_DOUBLE_EQ(bus->broadcasts.value(), 0.0);
    EXPECT_DOUBLE_EQ(bus->ipisSent.value(), 0.0);
    EXPECT_EQ(countIpis(sys), 0u);
    EXPECT_GT(sys.totalCycles(), 0u);
}

/** Single-core machines keep the legacy in-line flush path: no bus. */
TEST(MultiCore, SingleCoreHasNoBus)
{
    System sys(SimConfig{}, SchemeKind::MpkVirt);
    EXPECT_EQ(sys.shootdownBus(), nullptr);
    EXPECT_EQ(sys.numCores(), 1u);
}

/** One-record spans and one whole batch agree at K>1. */
TEST(MultiCore, BatchAndPutAgreeMultiCore)
{
    auto t = preamble(/*remote_tid=*/1);
    t.push_back(TraceRecord::threadSwitch(1));
    t.push_back(TraceRecord::load(1, base(1), 8, true));
    for (unsigned d = 2; d <= 16; ++d)
        t.push_back(TraceRecord::load(0, base(d), 8, true));

    System batched(configWithCores(2), SchemeKind::MpkVirt);
    replay(batched, t);

    System stepped(configWithCores(2), SchemeKind::MpkVirt);
    for (const auto &rec : t)
        test::feed(stepped, rec);
    stepped.finish();

    EXPECT_EQ(batched.totalCycles(), stepped.totalCycles());
    EXPECT_EQ(batched.makespanCycles(), stepped.makespanCycles());
    EXPECT_EQ(batched.drainEvents(), stepped.drainEvents());
    ASSERT_NE(batched.shootdownBus(), nullptr);
    ASSERT_NE(stepped.shootdownBus(), nullptr);
    EXPECT_DOUBLE_EQ(batched.shootdownBus()->ipisResponded.value(),
                     stepped.shootdownBus()->ipisResponded.value());
}

/** Work spreads over cores: the makespan is below the cycle total. */
TEST(MultiCore, MakespanIsBusiestCoreNotSum)
{
    System sys(configWithCores(2), SchemeKind::MpkVirt);
    auto t = preamble(/*remote_tid=*/1);
    for (unsigned i = 0; i < 64; ++i) {
        t.push_back(TraceRecord::load(0, base(2), 8, true));
        t.push_back(TraceRecord::load(1, base(1), 8, true));
    }
    replay(sys, t);

    EXPECT_GT(sys.makespanCycles(), 0u);
    EXPECT_LT(sys.makespanCycles(), sys.totalCycles());
    EXPECT_EQ(sys.coreAt(0).cycleCount + sys.coreAt(1).cycleCount,
              sys.totalCycles());
    EXPECT_EQ(sys.makespanCycles(),
              std::max(sys.coreAt(0).cycleCount,
                       sys.coreAt(1).cycleCount));
}

/** The topology section rejects degenerate core counts. */
TEST(MultiCore, TopologyValidation)
{
    arch::CoreTopology topo;
    topo.numCores = 0;
    EXPECT_DEATH(topo.validate(), "at least 1");
    topo.numCores = arch::kMaxCores + 1;
    EXPECT_DEATH(topo.validate(), "exceeds");
    topo.numCores = arch::kMaxCores;
    topo.validate(); // 256 cores is the supported ceiling.
}

} // namespace
} // namespace pmodv
