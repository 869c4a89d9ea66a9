/**
 * @file
 * Tests for the WHISPER-like single-PMO benchmarks, which run on the
 * real PMO library and capture traces through the Runtime.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "pmo/pmo_namespace.hh"
#include "trace/sinks.hh"
#include "workloads/whisper/whisper.hh"

namespace pmodv::workloads
{
namespace
{

WhisperParams
tinyParams()
{
    WhisperParams p;
    p.numTxns = 200;
    p.poolBytes = std::size_t{8} << 20;
    p.initialKeys = 500;
    p.seed = 42;
    return p;
}

class WhisperShape : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WhisperShape, RunsAndEmitsSaneTrace)
{
    auto workload = makeWhisper(GetParam(), tinyParams());
    pmo::Namespace ns;
    trace::VectorSink buffer;
    workload->run(ns, buffer);
    const trace::RecordStore store = buffer.take();
    const trace::TraceSummary &summary = store.summary();

    // Exactly one PMO, attached before anything else.
    EXPECT_EQ(summary.count(trace::RecordType::Attach), 1u);
    EXPECT_EQ(store[0].type, trace::RecordType::Attach);
    EXPECT_EQ(summary.operations(), tinyParams().numTxns);
    EXPECT_GT(summary.pmoAccesses, 0u);

    // The paper's discipline: a SETPERM pair wraps every PMO access
    // in the measured phase.
    EXPECT_EQ(summary.permissionSwitches(), 2 * summary.pmoAccesses);
}

TEST_P(WhisperShape, SwitchRecordsBracketAccesses)
{
    auto workload = makeWhisper(GetParam(), tinyParams());
    pmo::Namespace ns;
    trace::VectorSink sink;
    workload->run(ns, sink);

    using trace::RecordType;
    const auto &recs = sink.records();
    for (std::size_t i = 0; i < recs.size(); ++i) {
        if (!recs[i].isPmoAccess())
            continue;
        ASSERT_GE(i, 1u);
        EXPECT_EQ(recs[i - 1].type, RecordType::SetPerm)
            << "access " << i << " not preceded by SETPERM";
        ASSERT_LT(i + 1, recs.size());
        EXPECT_EQ(recs[i + 1].type, RecordType::SetPerm)
            << "access " << i << " not followed by SETPERM";
        // The trailing switch always revokes.
        EXPECT_EQ(recs[i + 1].perm(), Perm::None);
    }
}

TEST_P(WhisperShape, Deterministic)
{
    auto run = [&]() {
        auto workload = makeWhisper(GetParam(), tinyParams());
        pmo::Namespace ns;
        trace::VectorSink sink;
        workload->run(ns, sink);
        return sink.take();
    };
    EXPECT_TRUE(std::ranges::equal(run(), run()));
}

INSTANTIATE_TEST_SUITE_P(AllSix, WhisperShape,
                         ::testing::Values("echo", "ycsb", "tpcc",
                                           "ctree", "hashmap",
                                           "redis"));

TEST(WhisperFactory, NamesListMatchesTableIII)
{
    const auto &names = whisperNames();
    ASSERT_EQ(names.size(), 6u);
    EXPECT_EQ(names.front(), "echo");
    EXPECT_EQ(names.back(), "redis");
}

TEST(WhisperFactory, RejectsUnknownName)
{
    EXPECT_EXIT((void)makeWhisper("bogus", tinyParams()),
                ::testing::ExitedWithCode(1), "unknown");
}

TEST(Whisper, WritesActuallyLandInThePool)
{
    // Run hashmap (insert-heavy) and verify the pool contains live
    // allocations afterwards: these benchmarks use the real library.
    auto workload = makeWhisper("hashmap", tinyParams());
    pmo::Namespace ns;
    trace::VectorSink sink;
    workload->run(ns, sink);
    pmo::Pool &pool = ns.pool("hashmap_pool");
    EXPECT_GT(pool.allocatedBlocks(), tinyParams().numTxns / 2);
    pool.check();
}

TEST(Whisper, SwitchRatesOrderedRoughlyLikeTableV)
{
    // Echo inserts the largest inter-access instruction budget, YCSB
    // the smallest of the two — their switch *rates* must order the
    // opposite way (YCSB > Echo), as in Table V.
    WhisperParams p = tinyParams();
    auto rate = [&](const std::string &name) {
        auto workload = makeWhisper(name, p);
        pmo::Namespace ns;
        trace::VectorSink sink;
        workload->run(ns, sink);
        const trace::RecordStore store = sink.take();
        return static_cast<double>(store.summary().permissionSwitches()) /
               static_cast<double>(store.summary().totalInstructions());
    };
    EXPECT_GT(rate("ycsb"), rate("echo"));
}

} // namespace
} // namespace pmodv::workloads
