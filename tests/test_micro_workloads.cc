/**
 * @file
 * Tests for the multi-PMO microbenchmark generators: data-structure
 * invariants under load, trace shape (2 SETPERMs per operation,
 * attach records first), determinism, and the synthetic PMO space.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "trace/sinks.hh"
#include "workloads/micro/workloads.hh"

namespace pmodv::workloads
{
namespace
{

MicroParams
smallParams(std::uint64_t seed = 42)
{
    MicroParams p;
    p.numPmos = 16;
    p.pmoBytes = Addr{2} << 20;
    p.numOps = 500;
    p.initialNodes = 200;
    p.seed = seed;
    return p;
}

// ---------------------------------------------------------------
// Synthetic space.
// ---------------------------------------------------------------

TEST(SyntheticSpace, AttachRecordsEmitted)
{
    trace::VectorSink sink;
    TraceCtx ctx(sink, 1);
    SyntheticSpace space(ctx, 4, Addr{1} << 20);
    ASSERT_EQ(sink.records().size(), 4u);
    for (unsigned i = 0; i < 4; ++i) {
        EXPECT_EQ(sink.records()[i].type, trace::RecordType::Attach);
        EXPECT_EQ(sink.records()[i].aux, i + 1);
    }
}

TEST(SyntheticSpace, DisjointVaRanges)
{
    trace::VectorSink sink;
    TraceCtx ctx(sink, 1);
    SyntheticSpace space(ctx, 8, Addr{8} << 20);
    for (unsigned i = 1; i < 8; ++i) {
        EXPECT_GE(space.pmo(i).vaBase(),
                  space.pmo(i - 1).vaBase() + space.pmo(i - 1).bytes());
    }
}

TEST(SyntheticSpace, OwnerResolvesAllocations)
{
    trace::VectorSink sink;
    TraceCtx ctx(sink, 1);
    SyntheticSpace space(ctx, 8, Addr{1} << 20);
    for (unsigned i = 0; i < 8; ++i) {
        const Addr va = space.pmo(i).alloc(96);
        EXPECT_EQ(&space.owner(va), &space.pmo(i));
    }
}

TEST(SyntheticPmo, AllocFreeReuse)
{
    SyntheticPmo pmo(1, Addr{1} << 30, Addr{1} << 16);
    const Addr a = pmo.alloc(96);
    const Addr b = pmo.alloc(96);
    EXPECT_NE(a, b);
    pmo.free(a, 96);
    EXPECT_EQ(pmo.alloc(96), a); // First-fit reuse.
}

TEST(SyntheticPmoDeathTest, ExhaustionPanics)
{
    SyntheticPmo pmo(1, Addr{1} << 30, 256);
    pmo.alloc(128);
    pmo.alloc(128);
    EXPECT_DEATH(pmo.alloc(16), "exhausted");
}

TEST(TraceCtx, MutingSuppressesDataRecordsOnly)
{
    trace::VectorSink sink;
    TraceCtx ctx(sink, 1);
    ctx.setMuted(true);
    ctx.load(0x1000);
    ctx.store(0x1000);
    ctx.compute(100);
    ctx.setPerm(1, Perm::Read); // Control records still pass.
    ctx.setMuted(false);
    ctx.load(0x1000);
    ASSERT_EQ(sink.records().size(), 2u);
    EXPECT_EQ(sink.records()[0].type, trace::RecordType::SetPerm);
    EXPECT_EQ(sink.records()[1].type, trace::RecordType::Load);
}

TEST(TraceCtx, ThreadSwitchOnlyOnChange)
{
    trace::VectorSink sink;
    TraceCtx ctx(sink, 1);
    ctx.setThread(0); // Already thread 0: no record.
    ctx.setThread(2);
    ctx.setThread(2);
    ASSERT_EQ(sink.records().size(), 1u);
    EXPECT_EQ(sink.records()[0].type, trace::RecordType::ThreadSwitch);
}

// ---------------------------------------------------------------
// Data-structure invariants (parameterized over all benchmarks).
// ---------------------------------------------------------------

class MicroInvariants
    : public ::testing::TestWithParam<std::tuple<std::string,
                                                 std::uint64_t>>
{
};

TEST_P(MicroInvariants, HoldAfterManyOps)
{
    const auto &[name, seed] = GetParam();
    auto workload = makeMicro(name, smallParams(seed));
    trace::VectorSink sink;
    TraceCtx ctx(sink, seed);
    workload->run(ctx);
    workload->checkInvariants(); // panics on violation.
    SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchesAndSeeds, MicroInvariants,
    ::testing::Combine(::testing::Values("avl", "rbt", "bt", "ll",
                                         "ss"),
                       ::testing::Values(1u, 7u, 42u)),
    [](const auto &info) {
        return std::get<0>(info.param) + "_seed" +
               std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------
// Trace shape.
// ---------------------------------------------------------------

class MicroTraceShape : public ::testing::TestWithParam<std::string>
{
};

TEST_P(MicroTraceShape, TwoSwitchesPerOpAndAttachFirst)
{
    auto params = smallParams();
    auto workload = makeMicro(GetParam(), params);
    trace::VectorSink buffer;
    TraceCtx ctx(buffer, params.seed);
    workload->run(ctx);
    const trace::RecordStore store = buffer.take();
    const trace::TraceSummary &summary = store.summary();

    EXPECT_EQ(summary.count(trace::RecordType::Attach), params.numPmos);
    EXPECT_EQ(summary.operations(), params.numOps);
    // 2 per op + the initial per-domain grant.
    EXPECT_EQ(summary.permissionSwitches(),
              2 * params.numOps + params.numPmos);
    EXPECT_GT(summary.pmoAccesses, params.numOps); // Real work happened.

    // Attaches precede everything else.
    for (unsigned i = 0; i < params.numPmos; ++i)
        EXPECT_EQ(store[i].type, trace::RecordType::Attach);
}

TEST_P(MicroTraceShape, OpsBracketedBySetPerm)
{
    auto params = smallParams();
    params.numOps = 50;
    auto workload = makeMicro(GetParam(), params);
    trace::VectorSink sink;
    TraceCtx ctx(sink, params.seed);
    workload->run(ctx);

    const auto &recs = sink.records();
    using trace::RecordType;
    for (std::size_t i = 0; i < recs.size(); ++i) {
        if (recs[i].type == RecordType::OpBegin) {
            ASSERT_LT(i + 1, recs.size());
            EXPECT_EQ(recs[i + 1].type, RecordType::SetPerm);
        }
        if (recs[i].type == RecordType::OpEnd) {
            ASSERT_GE(i, 1u);
            EXPECT_EQ(recs[i - 1].type, RecordType::SetPerm);
        }
    }
}

TEST_P(MicroTraceShape, DeterministicAcrossRuns)
{
    auto params = smallParams();
    params.numOps = 200;
    auto run = [&]() {
        auto workload = makeMicro(GetParam(), params);
        trace::VectorSink sink;
        TraceCtx ctx(sink, params.seed);
        workload->run(ctx);
        return sink.take();
    };
    EXPECT_TRUE(std::ranges::equal(run(), run()));
}

TEST_P(MicroTraceShape, AccessesFallInsideAttachedRanges)
{
    auto params = smallParams();
    params.numOps = 100;
    auto workload = makeMicro(GetParam(), params);
    trace::VectorSink sink;
    TraceCtx ctx(sink, params.seed);
    workload->run(ctx);

    // Collect attach ranges.
    std::vector<std::pair<Addr, Addr>> ranges;
    for (const auto &rec : sink.records()) {
        if (rec.type == trace::RecordType::Attach)
            ranges.emplace_back(rec.attachBase(),
                                rec.attachBase() + rec.attachSize());
    }
    for (const auto &rec : sink.records()) {
        if (!rec.isPmoAccess())
            continue;
        bool inside = false;
        for (const auto &[lo, hi] : ranges)
            inside |= rec.addr >= lo && rec.addr + rec.aux <= hi;
        ASSERT_TRUE(inside)
            << "PMO access outside every attached range: "
            << trace::toString(rec);
    }
}

INSTANTIATE_TEST_SUITE_P(AllBenches, MicroTraceShape,
                         ::testing::Values("avl", "rbt", "bt", "ll",
                                           "ss"));

// ---------------------------------------------------------------
// Structure-specific checks.
// ---------------------------------------------------------------

TEST(Avl, NodeCountTracksInsertDeleteMix)
{
    auto params = smallParams();
    params.insertRatio = 1.0; // Insert only.
    AvlWorkload workload(params);
    trace::VectorSink sink;
    TraceCtx ctx(sink, params.seed);
    workload.run(ctx);
    // Duplicates aside, the count is near initial + ops.
    EXPECT_GE(workload.nodeCount(),
              params.initialNodes + params.numOps - 5);
    workload.checkInvariants();
}

TEST(StringSwap, PermutationPreserved)
{
    auto params = smallParams();
    StringSwapWorkload workload(params);
    trace::VectorSink sink;
    TraceCtx ctx(sink, params.seed);
    workload.run(ctx);
    workload.checkInvariants();
    EXPECT_FALSE(workload.permutation().empty());
}

TEST(MicroFactory, RejectsUnknownName)
{
    EXPECT_EXIT((void)makeMicro("bogus", smallParams()),
                ::testing::ExitedWithCode(1), "unknown");
}

TEST(MicroFactory, NamesListMatchesTableIV)
{
    const auto &names = microNames();
    ASSERT_EQ(names.size(), 5u);
    EXPECT_EQ(names[0], "avl");
    EXPECT_EQ(names[4], "ss");
    for (const auto &name : names)
        EXPECT_NE(makeMicro(name, smallParams()), nullptr);
}

} // namespace
} // namespace pmodv::workloads
