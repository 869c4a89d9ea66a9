/**
 * @file
 * End-to-end integration tests across the whole stack: capture a
 * workload trace to a file, replay it, and check stability; run a
 * crash/recovery cycle across namespace persistence; verify replay
 * pipelines never see protection faults from well-formed workloads.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <span>

#include "common/thread_pool.hh"
#include "exp/executor.hh"
#include "pmo/api.hh"
#include "pmo/txn.hh"
#include "trace/trace_file.hh"
#include "workloads/micro/micro.hh"
#include "workloads/whisper/whisper.hh"
#include "replay_util.hh"

namespace pmodv
{
namespace
{

using arch::SchemeKind;

/** Replay the trace captured in @p sink under each of @p kinds. */
exp::SchemeResults
replayAll(trace::VectorSink &sink, std::vector<SchemeKind> kinds)
{
    exp::RawPointSpec spec;
    spec.trace = trace::TraceBuffer::fromRecords(sink.take());
    spec.schemes = std::move(kinds);
    common::ThreadPool pool(2);
    return exp::Executor(pool).runRaw(spec).schemes;
}

TEST(Integration, FileTraceReplayEqualsLiveReplay)
{
    const auto path = std::filesystem::temp_directory_path() /
                      ("pmodv_integ_" + std::to_string(::getpid()) +
                       ".trc");
    workloads::MicroParams params;
    params.numPmos = 8;
    params.pmoBytes = Addr{1} << 20;
    params.numOps = 300;
    params.initialNodes = 100;

    // Capture to a memory buffer, then write it to a file.
    trace::VectorSink memory;
    workloads::TraceCtx ctx(memory, params.seed);
    workloads::makeMicro("avl", params)->run(ctx);
    {
        trace::TraceFileWriter file(path.string());
        for (const trace::TraceRecord &rec : memory.records())
            file.put(rec);
    }

    core::SimConfig cfg;
    auto replay_records = [&](std::span<const trace::TraceRecord> v) {
        core::System sys(cfg, SchemeKind::MpkVirt);
        sys.replayBatch(v);
        sys.finish();
        return sys.totalCycles();
    };

    trace::TraceFileReader reader(path.string());
    const auto from_file = reader.view();
    EXPECT_EQ(from_file->size(), memory.records().size());
    EXPECT_EQ(replay_records(from_file->records()),
              replay_records(memory.records()));
    std::filesystem::remove(path);
}

TEST(Integration, WellFormedWorkloadsNeverFault)
{
    workloads::MicroParams params;
    params.numPmos = 32;
    params.pmoBytes = Addr{1} << 20;
    params.numOps = 500;
    params.initialNodes = 64;
    trace::VectorSink sink;
    workloads::TraceCtx ctx(sink, params.seed);
    workloads::makeMicro("rbt", params)->run(ctx);

    const auto results =
        replayAll(sink, {SchemeKind::Mpk, SchemeKind::LibMpk,
                         SchemeKind::MpkVirt, SchemeKind::DomainVirt});
    EXPECT_EQ(results.size(), 4u);
    for (const auto &[kind, r] : results)
        EXPECT_EQ(r.denied, 0u) << arch::schemeName(kind);
}

TEST(Integration, WhisperTraceFaultFree)
{
    workloads::WhisperParams wp;
    wp.numTxns = 100;
    wp.poolBytes = std::size_t{4} << 20;
    wp.initialKeys = 200;
    trace::VectorSink sink;
    pmo::Namespace ns;
    workloads::makeWhisper("redis", wp)->run(ns, sink);
    const auto results =
        replayAll(sink, {SchemeKind::Mpk, SchemeKind::DomainVirt});
    EXPECT_EQ(results.size(), 2u);
    for (const auto &[kind, r] : results)
        EXPECT_EQ(r.denied, 0u) << arch::schemeName(kind);
}

TEST(Integration, CrashRecoveryAcrossNamespaceReload)
{
    const auto dir = (std::filesystem::temp_directory_path() /
                      ("pmodv_integ_ns_" + std::to_string(::getpid())))
                         .string();
    std::filesystem::remove_all(dir);
    pmo::Oid counter_oid;

    // Session 1: create a pool, commit 10 increments, then crash in
    // the middle of the 11th.
    {
        pmo::Namespace ns(dir);
        pmo::PmoApi api(ns, 1000, 1);
        pmo::Pool *pool = api.poolCreate("ledger", 256 * 1024);
        counter_oid = api.poolRoot(pool, 8);
        pmo::Transaction txn(*pool);
        for (std::uint64_t i = 1; i <= 10; ++i) {
            txn.begin();
            txn.writeValue<std::uint64_t>(counter_oid, i);
            txn.commit();
        }
        txn.begin();
        txn.writeValue<std::uint64_t>(counter_oid, 999);
        pool->arena().crash(); // Power loss before commit.
        ns.sync();
    }

    // Session 2: reopen, recover, and observe the committed value.
    {
        pmo::Namespace ns(dir);
        pmo::Pool &pool = ns.pool("ledger");
        EXPECT_TRUE(pmo::Transaction::recover(pool));
        std::uint64_t value = 0;
        pool.read(counter_oid, &value, 8);
        EXPECT_EQ(value, 10u);
        pool.check();
    }
    std::filesystem::remove_all(dir);
}

TEST(Integration, SchemeStatsConsistentAfterReplay)
{
    workloads::MicroParams params;
    params.numPmos = 64;
    params.pmoBytes = Addr{1} << 20;
    params.numOps = 400;
    params.initialNodes = 64;
    trace::VectorSink capture;
    workloads::TraceCtx ctx(capture, params.seed);
    workloads::makeMicro("ll", params)->run(ctx);
    core::System sys(core::SimConfig{}, SchemeKind::MpkVirt);
    sys.replayBatch(capture.records());
    sys.finish();

    auto &scheme = sys.scheme();
    // Every shootdown belongs to a key remap.
    EXPECT_LE(scheme.shootdowns.value(), scheme.keyRemaps.value());
    // Permission changes = 2/op + initial grants.
    EXPECT_DOUBLE_EQ(scheme.permChanges.value(),
                     2.0 * params.numOps + params.numPmos);
    // Cycle buckets are all non-negative and total cycles exceed the
    // sum of protection extras.
    const double extras = scheme.cycPermissionChange.value() +
                          scheme.cycEntryChange.value() +
                          scheme.cycTableMiss.value() +
                          scheme.cycTlbInvalidation.value() +
                          scheme.cycAccessLatency.value();
    EXPECT_GT(extras, 0.0);
    EXPECT_GT(static_cast<double>(sys.totalCycles()), extras);
}

TEST(Integration, RuntimeEnforcementMatchesSimulatedScheme)
{
    // The library's software enforcement and the simulated hardware
    // must agree: a trace produced by a misbehaving thread would be
    // denied by both. Construct one access the runtime forbids and
    // verify the simulated MPK-virt scheme forbids it too.
    pmo::Namespace ns;
    ns.create("p", 256 * 1024, 1000);
    pmo::Runtime rt(ns, 1000, 1);
    const auto &att = rt.attach("p", Perm::ReadWrite);
    const pmo::Oid oid = att.pool->pmalloc(64);

    // Runtime denies (no SETPERM).
    std::uint64_t v;
    EXPECT_THROW(rt.read(0, oid, &v, 8), pmo::ProtectionFault);

    // Simulated scheme denies the equivalent raw trace.
    core::SimConfig cfg;
    core::System sys(cfg, SchemeKind::MpkVirt);
    test::feed(sys, trace::TraceRecord::attach(0, att.domain, att.vaBase,
                                               att.vaSize,
                                               Perm::ReadWrite));
    test::feed(sys, trace::TraceRecord::load(0, rt.vaOf(oid), 8, true));
    EXPECT_DOUBLE_EQ(sys.deniedAccesses.value(), 1.0);
}

} // namespace
} // namespace pmodv
