/**
 * @file
 * Batch-split invariance of the replay engine: for every protection
 * scheme, one System::replayBatch over a whole trace must produce
 * bit-identical observable state — total cycles, the full stats tree
 * (timeline included), and the event ring — to replaying the same
 * records one by one as one-record spans, and to any other split of
 * the trace into spans. The reference outputs themselves are pinned
 * by tests/test_golden_k1.cc.
 */

#include <gtest/gtest.h>

#include "core/system.hh"
#include "pmo/api.hh"
#include "trace/trace_file.hh"
#include "stats/export.hh"
#include "workloads/micro/micro.hh"
#include "workloads/whisper/whisper.hh"
#include "replay_util.hh"

namespace pmodv
{
namespace
{

using arch::SchemeKind;
using trace::TraceRecord;

constexpr SchemeKind kAllSchemes[] = {
    SchemeKind::NoProtection, SchemeKind::Lowerbound,
    SchemeKind::Mpk,          SchemeKind::LibMpk,
    SchemeKind::MpkVirt,      SchemeKind::DomainVirt,
};

/** Replay @p records one at a time, as one-record spans. */
void
replayOneByOne(core::System &sys, const std::vector<TraceRecord> &records)
{
    for (const TraceRecord &rec : records)
        test::feed(sys, rec);
    sys.finish();
}

/** Replay @p records through the batch engine. */
void
replayBatched(core::System &sys, const std::vector<TraceRecord> &records)
{
    sys.replayBatch(records);
    sys.finish();
}

/**
 * Assert every observable output of the two Systems is identical:
 * cycle count, the serialized stats tree (scalars, histograms,
 * formulas, TLB/cache substructure and the sampling timeline), and
 * the event ring contents.
 */
void
expectIdentical(const core::System &stepped, const core::System &batch,
                SchemeKind kind, const char *workload)
{
    EXPECT_EQ(stepped.totalCycles(), batch.totalCycles())
        << arch::schemeName(kind) << " on " << workload;
    EXPECT_EQ(stats::toJsonString(stepped), stats::toJsonString(batch))
        << arch::schemeName(kind) << " on " << workload;
    EXPECT_EQ(stepped.events().snapshot(), batch.events().snapshot())
        << arch::schemeName(kind) << " on " << workload;
}

void
compareAllSchemes(const std::vector<TraceRecord> &records,
                  const core::SimConfig &cfg, const char *workload)
{
    for (SchemeKind kind : kAllSchemes) {
        core::System stepped(cfg, kind);
        core::System batch(cfg, kind);
        replayOneByOne(stepped, records);
        replayBatched(batch, records);
        expectIdentical(stepped, batch, kind, workload);
    }
}

std::vector<TraceRecord>
captureMicro(const char *name)
{
    workloads::MicroParams params;
    params.numPmos = 24;
    params.pmoBytes = Addr{1} << 20;
    params.numOps = 400;
    params.initialNodes = 96;
    trace::VectorSink sink;
    workloads::TraceCtx ctx(sink, params.seed);
    workloads::makeMicro(name, params)->run(ctx);
    const auto records = sink.records();
    return {records.begin(), records.end()};
}

std::vector<TraceRecord>
captureWhisper(const char *name)
{
    workloads::WhisperParams params;
    params.numTxns = 120;
    params.poolBytes = std::size_t{4} << 20;
    params.initialKeys = 150;
    trace::VectorSink sink;
    pmo::Namespace ns;
    workloads::makeWhisper(name, params)->run(ns, sink);
    const auto records = sink.records();
    return {records.begin(), records.end()};
}

/**
 * A hand-built trace covering every record type and the branches a
 * workload capture never exercises: denied accesses (loads before any
 * SETPERM), cross-thread denials, large pages, detach/re-attach and
 * explicit WRPKRU records.
 */
std::vector<TraceRecord>
adversarialTrace()
{
    constexpr Addr base = Addr{1} << 33;
    constexpr Addr stride = Addr{16} << 20;
    constexpr Addr size = Addr{1} << 20;
    std::vector<TraceRecord> t;
    for (unsigned d = 1; d <= 3; ++d) {
        t.push_back(TraceRecord::attach(0, d, base + (d - 1) * stride,
                                        size, Perm::ReadWrite));
    }
    t.push_back(TraceRecord::attach(
        0, 4, base + 3 * stride, Addr{2} << 21, Perm::ReadWrite,
        PageSize::Size2M));
    t.push_back(TraceRecord::load(0, base, 8, true)); // Denied: no perm.
    t.push_back(TraceRecord::setPerm(0, 1, Perm::Read));
    t.push_back(TraceRecord::store(0, base, 8, true)); // Denied: RO.
    t.push_back(TraceRecord::setPerm(0, 1, Perm::ReadWrite));
    t.push_back(TraceRecord::wrpkru(0, 2, Perm::ReadWrite));
    t.push_back(TraceRecord::opBegin(0, 1));
    for (unsigned i = 0; i < 200; ++i) {
        t.push_back(TraceRecord::instBlock(0, 7 + i % 9));
        t.push_back(TraceRecord::load(
            0, base + (i * 4096) % size, 8, true));
        if (i % 3 == 0) {
            t.push_back(TraceRecord::store(
                0, base + (i * 64) % size, 8, true));
        }
        if (i % 7 == 0) {
            t.push_back(TraceRecord::load(
                0, base + 3 * stride + (i * 4096) % (Addr{2} << 21), 8,
                true));
        }
    }
    t.push_back(TraceRecord::opEnd(0, 1));
    t.push_back(TraceRecord::threadSwitch(1));
    t.push_back(TraceRecord::load(1, base, 8, true)); // Cross-thread.
    t.push_back(TraceRecord::setPerm(1, 2, Perm::ReadWrite));
    for (unsigned i = 0; i < 50; ++i) {
        t.push_back(TraceRecord::load(
            1, base + stride + (i * 4096) % size, 8, true));
    }
    t.push_back(TraceRecord::threadSwitch(0));
    t.push_back(TraceRecord::detach(0, 3));
    t.push_back(TraceRecord::attach(0, 3, base + 2 * stride, size,
                                    Perm::ReadWrite));
    t.push_back(TraceRecord::opEnd(0, 9)); // Stray end: tolerated.
    return t;
}

TEST(ReplayBatch, MicroTraceBitIdenticalAcrossPaths)
{
    compareAllSchemes(captureMicro("avl"), core::SimConfig{}, "avl");
}

TEST(ReplayBatch, SecondMicroWorkloadBitIdentical)
{
    compareAllSchemes(captureMicro("ll"), core::SimConfig{}, "ll");
}

TEST(ReplayBatch, WhisperTraceBitIdenticalAcrossPaths)
{
    compareAllSchemes(captureWhisper("redis"), core::SimConfig{},
                      "whisper/redis");
}

TEST(ReplayBatch, AdversarialTraceBitIdenticalAcrossPaths)
{
    compareAllSchemes(adversarialTrace(), core::SimConfig{},
                      "adversarial");
}

TEST(ReplayBatch, TimelineSamplingBitIdenticalAcrossPaths)
{
    // With epoch sampling on, the batch engine must close epochs at
    // exactly the same boundaries the per-record path ticks at —
    // TimeSeries rows are part of the stats JSON, so any divergence
    // fails the comparison.
    core::SimConfig cfg;
    cfg.samplingEpochCycles = 2048;
    cfg.samplingMaxEpochs = 512;
    compareAllSchemes(captureMicro("avl"), cfg, "avl+timeline");
    compareAllSchemes(adversarialTrace(), cfg, "adversarial+timeline");
}

#ifdef PMODV_TESTDATA_DIR
TEST(ReplayBatch, CommittedV1FixtureBitIdenticalAcrossPaths)
{
    // End-to-end legacy-format path: a v1 trace checked into the repo
    // flows through the decode-on-load fallback into the batch engine
    // and must match the per-record path — this is what the CI v1
    // compatibility job runs.
    trace::TraceFileReader reader(std::string(PMODV_TESTDATA_DIR) +
                                  "/micro_v1.trace");
    ASSERT_EQ(reader.version(), trace::kTraceVersionLegacy);
    auto buf = reader.view();
    const std::vector<TraceRecord> records(buf->records().begin(),
                                           buf->records().end());
    compareAllSchemes(records, core::SimConfig{}, "v1-fixture");
    core::System sys(core::SimConfig{}, SchemeKind::DomainVirt);
    sys.replayBatch(buf->records());
    sys.finish();
    EXPECT_GT(sys.totalCycles(), 0u);
}
#endif

TEST(ReplayBatch, SplitBatchesMatchSingleBatch)
{
    // Replaying a trace as several replayBatch() calls must equal one
    // call over the whole span (the loop keeps no counter state
    // between calls, so a split is invisible in the final totals).
    const auto records = adversarialTrace();
    for (SchemeKind kind : kAllSchemes) {
        core::SimConfig cfg;
        core::System whole(cfg, kind);
        core::System split(cfg, kind);
        whole.replayBatch(records);
        whole.finish();
        const std::size_t third = records.size() / 3;
        std::span<const TraceRecord> all(records);
        split.replayBatch(all.subspan(0, third));
        split.replayBatch(all.subspan(third, third));
        split.replayBatch(all.subspan(2 * third));
        split.finish();
        expectIdentical(whole, split, kind, "split-batch");
    }
}

} // namespace
} // namespace pmodv
