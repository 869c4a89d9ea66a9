/**
 * @file
 * Integration tests of the experiment drivers: the qualitative
 * results the paper reports must emerge from small-scale runs —
 * orderings, crossover direction, and breakdown consistency.
 */

#include <gtest/gtest.h>

#include "common/thread_pool.hh"
#include "exp/executor.hh"

namespace pmodv::exp
{
namespace
{

using arch::SchemeKind;

// Local spec-building conveniences over the Executor API; the test
// bodies below read like the experiments they model.
MicroPoint
runMicroPoint(const std::string &bench,
              const workloads::MicroParams &mparams,
              const core::SimConfig &config,
              const std::vector<SchemeKind> &schemes)
{
    MicroPointSpec spec;
    spec.benchmark = bench;
    spec.params = mparams;
    spec.config = config;
    spec.schemes = schemes;
    common::ThreadPool pool(2);
    return Executor(pool).runMicro({spec}).front();
}

WhisperRow
runWhisper(const std::string &name,
           const workloads::WhisperParams &wparams,
           const core::SimConfig &config)
{
    WhisperPointSpec spec;
    spec.benchmark = name;
    spec.params = wparams;
    spec.config = config;
    common::ThreadPool pool(2);
    return Executor(pool).runWhisper({spec}).front();
}

workloads::MicroParams
sweepParams(unsigned pmos)
{
    workloads::MicroParams p;
    p.numPmos = pmos;
    p.pmoBytes = Addr{8} << 20;
    p.numOps = 4000;
    p.initialNodes = 512;
    p.seed = 42;
    return p;
}

core::SimConfig
config()
{
    return {};
}

TEST(MicroPoint, SchemesOrderedAtManyPmos)
{
    auto pt = runMicroPoint("avl", sweepParams(128), config(),
                            {SchemeKind::LibMpk, SchemeKind::MpkVirt,
                             SchemeKind::DomainVirt});
    const double libmpk = pt.overheadPct[SchemeKind::LibMpk];
    const double mpkv = pt.overheadPct[SchemeKind::MpkVirt];
    const double domv = pt.overheadPct[SchemeKind::DomainVirt];
    // The paper's headline ordering at high PMO counts.
    EXPECT_GT(libmpk, mpkv);
    EXPECT_GT(mpkv, domv);
    EXPECT_GT(domv, 0.0);
    // And the factors are in the right regime (order of magnitude).
    EXPECT_GT(libmpk / mpkv, 3.0);
    EXPECT_GT(libmpk / domv, 15.0);
}

TEST(MicroPoint, LowerboundMatchesSwitchCost)
{
    auto pt = runMicroPoint("ss", sweepParams(32), config(), {});
    // Lowerbound overhead must be positive and modest (switch cost
    // only), far below the virtualization overheads at scale.
    EXPECT_GT(pt.lowerboundOverheadPct, 0.0);
    EXPECT_LT(pt.lowerboundOverheadPct, 30.0);
    EXPECT_GT(pt.switchesPerSec, 0.0);
}

TEST(MicroPoint, MpkVirtOverheadGrowsWithPmoCount)
{
    auto low = runMicroPoint("avl", sweepParams(16), config(),
                             {SchemeKind::MpkVirt});
    auto high = runMicroPoint("avl", sweepParams(256), config(),
                              {SchemeKind::MpkVirt});
    EXPECT_GT(high.overheadPct[SchemeKind::MpkVirt],
              low.overheadPct[SchemeKind::MpkVirt]);
    EXPECT_GT(high.keyRemaps[SchemeKind::MpkVirt],
              low.keyRemaps[SchemeKind::MpkVirt]);
}

TEST(MicroPoint, DomainVirtIsFlatterThanMpkVirt)
{
    auto low = runMicroPoint("rbt", sweepParams(16), config(),
                             {SchemeKind::MpkVirt,
                              SchemeKind::DomainVirt});
    auto high = runMicroPoint("rbt", sweepParams(256), config(),
                              {SchemeKind::MpkVirt,
                               SchemeKind::DomainVirt});
    const double mpkv_growth =
        high.overheadPct[SchemeKind::MpkVirt] /
        std::max(1.0, low.overheadPct[SchemeKind::MpkVirt]);
    const double domv_growth =
        high.overheadPct[SchemeKind::DomainVirt] /
        std::max(1.0, low.overheadPct[SchemeKind::DomainVirt]);
    EXPECT_GT(mpkv_growth, domv_growth);
}

TEST(MicroPoint, DomainVirtNeverShootsDown)
{
    auto pt = runMicroPoint("avl", sweepParams(64), config(),
                            {SchemeKind::DomainVirt});
    EXPECT_EQ(pt.keyRemaps[SchemeKind::DomainVirt], 0u);
}

TEST(MicroPoint, BreakdownRowsSumToTotal)
{
    auto pt = runMicroPoint("avl", sweepParams(64), config(),
                            {SchemeKind::MpkVirt,
                             SchemeKind::DomainVirt});
    for (auto kind : {SchemeKind::MpkVirt, SchemeKind::DomainVirt}) {
        const Breakdown &b = pt.breakdown[kind];
        const double sum = b.permissionChangePct + b.entryChangesPct +
                           b.tableMissPct + b.tlbInvalidationPct +
                           b.accessLatencyPct;
        EXPECT_NEAR(sum, b.totalPct, 0.1)
            << arch::schemeName(kind);
    }
}

TEST(MicroPoint, TlbInvalidationsDominateMpkVirtBreakdown)
{
    auto pt = runMicroPoint("avl", sweepParams(256), config(),
                            {SchemeKind::MpkVirt});
    const Breakdown &b = pt.breakdown[SchemeKind::MpkVirt];
    // Paper Table VII: the shootdown row is the dominant source.
    EXPECT_GT(b.tlbInvalidationPct, b.permissionChangePct);
    EXPECT_GT(b.tlbInvalidationPct, b.entryChangesPct);
    EXPECT_GT(b.tlbInvalidationPct, b.tableMissPct);
}

TEST(MicroPoint, DomainVirtBreakdownHasNoShootdowns)
{
    auto pt = runMicroPoint("avl", sweepParams(256), config(),
                            {SchemeKind::DomainVirt});
    const Breakdown &b = pt.breakdown[SchemeKind::DomainVirt];
    EXPECT_NEAR(b.tlbInvalidationPct, 0.0, 1.0);
    EXPECT_GT(b.accessLatencyPct, 0.0);
    EXPECT_GT(b.tableMissPct, 0.0);
}

TEST(MicroPoint, BtreeLeastSensitiveToScheme)
{
    auto avl = runMicroPoint("avl", sweepParams(256), config(),
                             {SchemeKind::MpkVirt});
    auto bt = runMicroPoint("bt", sweepParams(256), config(),
                            {SchemeKind::MpkVirt});
    // B+ tree's locality gives it a much smaller MPK-virt penalty
    // (the paper's later-crossover argument).
    EXPECT_LT(bt.overheadPct[SchemeKind::MpkVirt],
              avl.overheadPct[SchemeKind::MpkVirt] / 2);
}

TEST(Whisper, SinglePmoOverheadsMatchPaperShape)
{
    workloads::WhisperParams wp;
    wp.numTxns = 300;
    wp.poolBytes = std::size_t{8} << 20;
    wp.initialKeys = 500;
    auto row = runWhisper("echo", wp, config());

    EXPECT_GT(row.switchesPerSec, 0.0);
    // Table V: overheads are small, single-digit percentages.
    EXPECT_GT(row.overheadMpkPct, 0.0);
    EXPECT_LT(row.overheadMpkPct, 10.0);
    // One PMO: HW MPK virtualization behaves exactly like stock MPK.
    EXPECT_NEAR(row.overheadMpkVirtPct, row.overheadMpkPct, 0.35);
    // Domain virtualization is slightly more expensive (PTLB lookup
    // on every PMO access).
    EXPECT_GT(row.overheadDomainVirtPct, row.overheadMpkPct - 0.05);
}

TEST(Log2Pct, MatchesFigureAxisConvention)
{
    EXPECT_DOUBLE_EQ(log2Pct(4.0), 2.0);  // 2^2 = 4% slower.
    EXPECT_DOUBLE_EQ(log2Pct(16.0), 4.0); // 2^4 = 16%.
    EXPECT_DOUBLE_EQ(log2Pct(0.0), 0.0);
    EXPECT_DOUBLE_EQ(log2Pct(-3.0), 0.0);
}

} // namespace
} // namespace pmodv::exp
