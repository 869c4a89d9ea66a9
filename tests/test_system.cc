/**
 * @file
 * Unit tests for the replay System: exact cycle accounting for known
 * record sequences, record semantics, one capture replayed under
 * several schemes, and determinism.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/system.hh"
#include "replay_util.hh"
#include "trace/sinks.hh"

namespace pmodv::core
{
namespace
{

using arch::SchemeKind;
using trace::TraceRecord;

constexpr Addr kBase = Addr{1} << 33;
constexpr Addr kSize = Addr{1} << 20;

SimConfig
testConfig()
{
    SimConfig cfg;
    return cfg;
}

/** Expected visible cycles for one access given total memory/tlb
 *  latency beyond the 1-cycle L1 hit. */
Cycles
visible(const SimConfig &cfg, Cycles tlb_lat, Cycles mem_lat)
{
    const double v = 1.0 + (1.0 - cfg.memOverlap) *
                               static_cast<double>(tlb_lat + mem_lat - 1);
    return static_cast<Cycles>(std::llround(v));
}

TEST(System, InstBlockCycles)
{
    System sys(testConfig(), SchemeKind::NoProtection);
    test::feed(sys, TraceRecord::instBlock(0, 8)); // 8 insts / 4-wide = 2.
    EXPECT_EQ(sys.totalCycles(), 2u);
    test::feed(sys, TraceRecord::instBlock(0, 9)); // ceil(9/4) = 3.
    EXPECT_EQ(sys.totalCycles(), 5u);
    EXPECT_DOUBLE_EQ(sys.instructions.value(), 17.0);
}

TEST(System, ColdPmoLoadLatency)
{
    SimConfig cfg = testConfig();
    System sys(cfg, SchemeKind::NoProtection);
    test::feed(sys, TraceRecord::attach(0, 1, kBase, kSize, Perm::ReadWrite));
    test::feed(sys, TraceRecord::load(0, kBase, 8, true));
    // Cold: TLB walk (4+30) + L1 miss, L2 miss, NVM (1+8+360).
    const Cycles expect = visible(cfg, 34, 1 + 8 + 360);
    EXPECT_EQ(sys.totalCycles(), expect);
    EXPECT_DOUBLE_EQ(sys.pmoAccesses.value(), 1.0);
}

TEST(System, WarmLoadIsOneCycle)
{
    SimConfig cfg = testConfig();
    System sys(cfg, SchemeKind::NoProtection);
    test::feed(sys, TraceRecord::attach(0, 1, kBase, kSize, Perm::ReadWrite));
    test::feed(sys, TraceRecord::load(0, kBase, 8, true));
    const Cycles after_cold = sys.totalCycles();
    test::feed(sys, TraceRecord::load(0, kBase, 8, true));
    EXPECT_EQ(sys.totalCycles(), after_cold + 1);
}

TEST(System, NonPmoLoadUsesDram)
{
    SimConfig cfg = testConfig();
    System a(cfg, SchemeKind::NoProtection);
    System b(cfg, SchemeKind::NoProtection);
    test::feed(a, TraceRecord::load(0, 0x5000, 8, false)); // DRAM.
    test::feed(b, TraceRecord::attach(0, 1, kBase, kSize, Perm::ReadWrite));
    const Cycles before = b.totalCycles();
    test::feed(b, TraceRecord::load(0, kBase, 8, true)); // NVM.
    EXPECT_LT(a.totalCycles(), b.totalCycles() - before);
}

TEST(System, SetPermCostsByScheme)
{
    SimConfig cfg = testConfig();
    System none(cfg, SchemeKind::NoProtection);
    System lower(cfg, SchemeKind::Lowerbound);
    const auto rec = TraceRecord::setPerm(0, 1, Perm::ReadWrite);
    test::feed(none, rec);
    test::feed(lower, rec);
    EXPECT_EQ(none.totalCycles(), 0u);
    EXPECT_EQ(lower.totalCycles(), cfg.prot.wrpkruCycles);
}

TEST(System, OpMarkersCountOperations)
{
    System sys(testConfig(), SchemeKind::NoProtection);
    test::feed(sys, TraceRecord::opBegin(0));
    test::feed(sys, TraceRecord::opEnd(0));
    test::feed(sys, TraceRecord::opBegin(0));
    test::feed(sys, TraceRecord::opEnd(0));
    EXPECT_DOUBLE_EQ(sys.operations.value(), 2.0);
    EXPECT_EQ(sys.totalCycles(), 0u);
}

TEST(System, OpCyclesHistogramSamplesPerOperation)
{
    System sys(testConfig(), SchemeKind::NoProtection);
    test::feed(sys, TraceRecord::opBegin(0));
    test::feed(sys, TraceRecord::instBlock(0, 40)); // 10 cycles.
    test::feed(sys, TraceRecord::opEnd(0));
    test::feed(sys, TraceRecord::opBegin(0));
    test::feed(sys, TraceRecord::instBlock(0, 400)); // 100 cycles.
    test::feed(sys, TraceRecord::opEnd(0));
    EXPECT_EQ(sys.opCycles.samples(), 2u);
    EXPECT_EQ(sys.opCycles.min(), 10u);
    EXPECT_EQ(sys.opCycles.max(), 100u);
    EXPECT_DOUBLE_EQ(sys.opCycles.mean(), 55.0);
}

TEST(System, OpEndWithoutBeginIsTolerated)
{
    System sys(testConfig(), SchemeKind::NoProtection);
    test::feed(sys, TraceRecord::opEnd(0)); // Stray end: counted, no sample.
    EXPECT_DOUBLE_EQ(sys.operations.value(), 1.0);
    EXPECT_EQ(sys.opCycles.samples(), 0u);
}

TEST(System, LargePageAttachReducesWalks)
{
    SimConfig cfg = testConfig();
    System small(cfg, SchemeKind::NoProtection);
    System large(cfg, SchemeKind::NoProtection);
    const Addr base = Addr{1} << 33; // 2MB-aligned.
    const Addr size = Addr{2} << 21; // 4MB.
    test::feed(small, TraceRecord::attach(0, 1, base, size,
                                          Perm::ReadWrite,
                                          PageSize::Size4K));
    test::feed(large, TraceRecord::attach(0, 1, base, size,
                                          Perm::ReadWrite,
                                          PageSize::Size2M));
    // Touch 1024 distinct 4KB pages spanning both 2MB frames.
    for (unsigned i = 0; i < 1024; ++i) {
        const auto rec =
            TraceRecord::load(0, base + Addr{i} * 4096, 8, true);
        test::feed(small, rec);
        test::feed(large, rec);
    }
    const double small_walks =
        static_cast<stats::Group &>(small).lookup("dtlb.walks");
    const double large_walks =
        static_cast<stats::Group &>(large).lookup("dtlb.walks");
    EXPECT_EQ(small_walks, 1024.0); // One per 4KB page.
    EXPECT_EQ(large_walks, 2.0);    // One per 2MB frame.
    EXPECT_LT(large.totalCycles(), small.totalCycles());
}

TEST(System, DeniedAccessesCounted)
{
    System sys(testConfig(), SchemeKind::Mpk);
    test::feed(sys, TraceRecord::attach(0, 1, kBase, kSize, Perm::ReadWrite));
    test::feed(sys, TraceRecord::load(0, kBase, 8, true)); // No SETPERM yet.
    EXPECT_DOUBLE_EQ(sys.deniedAccesses.value(), 1.0);
    test::feed(sys, TraceRecord::setPerm(0, 1, Perm::Read));
    test::feed(sys, TraceRecord::load(0, kBase, 8, true));
    EXPECT_DOUBLE_EQ(sys.deniedAccesses.value(), 1.0);
}

TEST(System, DetachUnmapsRegion)
{
    System sys(testConfig(), SchemeKind::NoProtection);
    test::feed(sys, TraceRecord::attach(0, 1, kBase, kSize, Perm::ReadWrite));
    test::feed(sys, TraceRecord::detach(0, 1));
    EXPECT_EQ(sys.addressSpace().numRegions(), 0u);
    // Re-attach at the same base works.
    test::feed(sys, TraceRecord::attach(0, 1, kBase, kSize, Perm::ReadWrite));
    EXPECT_EQ(sys.addressSpace().numRegions(), 1u);
}

TEST(System, ThreadSwitchRoutedToScheme)
{
    System sys(testConfig(), SchemeKind::DomainVirt);
    test::feed(sys, TraceRecord::attach(0, 1, kBase, kSize, Perm::ReadWrite));
    test::feed(sys, TraceRecord::setPerm(0, 1, Perm::ReadWrite));
    test::feed(sys, TraceRecord::threadSwitch(1));
    EXPECT_DOUBLE_EQ(
        static_cast<stats::Group &>(sys).lookup(
            "domain_virt.context_switches"),
        1.0);
}

TEST(System, ThreadSwitchToRunningThreadDependsOnCoreCount)
{
    const auto setup = [](System &sys) {
        test::feed(sys, TraceRecord::attach(0, 1, kBase, kSize,
                                            Perm::ReadWrite));
        test::feed(sys, TraceRecord::setPerm(0, 1, Perm::ReadWrite));
    };
    const auto lookup = [](System &sys, const std::string &path) {
        return static_cast<stats::Group &>(sys).lookup(path);
    };

    // One core: every ThreadSwitch record is a context switch, even
    // one naming the running thread (the runtime emits those).
    System one(testConfig(), SchemeKind::DomainVirt);
    setup(one);
    test::feed(one, TraceRecord::threadSwitch(0));
    EXPECT_DOUBLE_EQ(lookup(one, "domain_virt.context_switches"), 1.0);

    // Several cores: a switch to the thread already running on its
    // home core is a no-op; a switch to another thread is not.
    SimConfig cfg = testConfig();
    cfg.topology.numCores = 2;
    System two(cfg, SchemeKind::DomainVirt);
    setup(two);
    test::feed(two, TraceRecord::threadSwitch(0));
    EXPECT_DOUBLE_EQ(lookup(two, "domain_virt.context_switches"), 0.0);
    EXPECT_DOUBLE_EQ(lookup(two, "core0.ctx_switches"), 0.0);
    EXPECT_DOUBLE_EQ(lookup(two, "core1.ctx_switches"), 0.0);
    test::feed(two, TraceRecord::threadSwitch(1));
    EXPECT_DOUBLE_EQ(lookup(two, "domain_virt.context_switches"), 1.0);
    EXPECT_DOUBLE_EQ(lookup(two, "core1.ctx_switches"), 1.0);
    test::feed(two, TraceRecord::threadSwitch(1));
    EXPECT_DOUBLE_EQ(lookup(two, "domain_virt.context_switches"), 1.0);
    EXPECT_DOUBLE_EQ(lookup(two, "core0.ctx_switches"), 0.0);
    EXPECT_DOUBLE_EQ(lookup(two, "core1.ctx_switches"), 1.0);
}

TEST(System, SecondsMatchFrequency)
{
    SimConfig cfg = testConfig();
    System sys(cfg, SchemeKind::NoProtection);
    test::feed(sys, TraceRecord::instBlock(0, 4 * 2'200'000));
    EXPECT_NEAR(sys.seconds(), 1e-3, 1e-9); // 2.2e6 cycles at 2.2 GHz.
}

TEST(System, Determinism)
{
    auto run = []() {
        System sys(testConfig(), SchemeKind::MpkVirt);
        test::feed(sys, TraceRecord::attach(0, 1, kBase, kSize,
                                            Perm::ReadWrite));
        test::feed(sys, TraceRecord::setPerm(0, 1, Perm::ReadWrite));
        for (int i = 0; i < 100; ++i)
            test::feed(sys, TraceRecord::load(0, kBase + i * 4096 % kSize,
                                              8, true));
        return sys.totalCycles();
    };
    EXPECT_EQ(run(), run());
}

TEST(System, OneCaptureReplaysUnderEveryScheme)
{
    // One captured trace replays as a span through one System per
    // scheme, and its capture summary counts the same records.
    trace::VectorSink capture;
    for (const TraceRecord &rec :
         {TraceRecord::attach(0, 1, kBase, kSize, Perm::ReadWrite),
          TraceRecord::setPerm(0, 1, Perm::ReadWrite),
          TraceRecord::load(0, kBase, 8, true),
          TraceRecord::instBlock(0, 40)})
        capture.put(rec);
    const trace::RecordStore store = capture.take();
    System none(testConfig(), SchemeKind::NoProtection);
    System lower(testConfig(), SchemeKind::Lowerbound);
    System virt(testConfig(), SchemeKind::DomainVirt);
    for (System *sys : {&none, &lower, &virt}) {
        sys->replayBatch({store.data(), store.size()});
        sys->finish();
    }
    EXPECT_GT(none.totalCycles(), 0u);
    EXPECT_GT(lower.totalCycles(), none.totalCycles());
    EXPECT_EQ(virt.deniedAccesses.value(), 0u);
    EXPECT_GT(virt.totalCycles(), none.totalCycles());
    EXPECT_EQ(store.summary().permissionSwitches(), 1u);
    EXPECT_EQ(store.summary().memAccesses(), 1u);
}

TEST(System, LowerboundOverheadIsPermissionChangeCost)
{
    std::vector<TraceRecord> trace;
    trace.push_back(TraceRecord::instBlock(0, 27 * 4 * 100));
    for (int i = 0; i < 100; ++i)
        trace.push_back(TraceRecord::setPerm(0, 1, Perm::Read));
    System none(testConfig(), SchemeKind::NoProtection);
    System lower(testConfig(), SchemeKind::Lowerbound);
    for (System *sys : {&none, &lower}) {
        sys->replayBatch(trace);
        sys->finish();
    }
    // Lowerbound adds 27 cycles x 100 over a 2700-cycle baseline:
    // 100% overhead.
    EXPECT_EQ(none.totalCycles(), 2700u);
    EXPECT_EQ(lower.totalCycles(), 2u * none.totalCycles());
}

} // namespace
} // namespace pmodv::core
