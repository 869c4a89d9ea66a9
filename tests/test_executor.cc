/**
 * @file
 * Tests of the parallel experiment executor and the declarative
 * SweepSpec/ExperimentSuite API. The load-bearing property is
 * determinism: per-scheme cycle counts must be bit-identical to
 * replaying the trace through plain Systems one after another, and
 * independent of the worker count.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>

#include "common/thread_pool.hh"
#include "exp/suite.hh"
#include "exp/trace_export.hh"
#include "stats/export.hh"
#include "workloads/trace_ctx.hh"

namespace pmodv::exp
{
namespace
{

using arch::SchemeKind;

MicroPointSpec
avlSpec(unsigned pmos = 64)
{
    MicroPointSpec spec;
    spec.benchmark = "avl";
    spec.params.numPmos = pmos;
    spec.params.pmoBytes = Addr{8} << 20;
    spec.params.numOps = 3000;
    spec.params.initialNodes = 512;
    spec.params.seed = 42;
    spec.schemes = {SchemeKind::LibMpk, SchemeKind::MpkVirt,
                    SchemeKind::DomainVirt};
    return spec;
}

/**
 * Serial reference: replay @p records through one plain System per
 * scheme, one after another on this thread.
 */
std::map<SchemeKind, std::unique_ptr<core::System>>
serialReplay(std::span<const trace::TraceRecord> records,
             const core::SimConfig &config,
             const std::vector<SchemeKind> &kinds)
{
    std::map<SchemeKind, std::unique_ptr<core::System>> systems;
    for (SchemeKind k : kinds) {
        auto sys = std::make_unique<core::System>(config, k);
        sys->replayBatch(records);
        sys->finish();
        systems[k] = std::move(sys);
    }
    return systems;
}

TEST(Executor, MatchesSerialReplayBitForBit)
{
    const MicroPointSpec spec = avlSpec();
    const std::vector<SchemeKind> kinds{
        SchemeKind::NoProtection, SchemeKind::Lowerbound,
        SchemeKind::LibMpk, SchemeKind::MpkVirt,
        SchemeKind::DomainVirt};
    trace::VectorSink capture;
    workloads::TraceCtx ctx(capture, spec.params.seed);
    workloads::makeMicro(spec.benchmark, spec.params)->run(ctx);
    const auto serial = serialReplay(capture.records(), spec.config, kinds);

    common::ThreadPool pool(4);
    Executor executor(pool);
    const MicroPoint pt = executor.runMicro({spec}).front();

    ASSERT_EQ(pt.schemes.size(), kinds.size());
    for (SchemeKind k : kinds) {
        EXPECT_EQ(pt.schemes.at(k).cycles, serial.at(k)->totalCycles())
            << arch::schemeName(k);
        EXPECT_EQ(pt.schemes.at(k).statsJson,
                  stats::toJsonString(*serial.at(k)))
            << arch::schemeName(k);
    }
}

TEST(Executor, JobCountDoesNotChangeAnyRow)
{
    const std::vector<MicroPointSpec> specs{avlSpec(16), avlSpec(64),
                                            avlSpec(128)};

    common::ThreadPool serial(1);
    common::ThreadPool wide(4);
    const auto rows1 = Executor(serial).runMicro(specs);
    const auto rows4 = Executor(wide).runMicro(specs);

    ASSERT_EQ(rows1.size(), rows4.size());
    for (std::size_t i = 0; i < rows1.size(); ++i) {
        EXPECT_EQ(rows1[i].benchmark, rows4[i].benchmark);
        EXPECT_EQ(rows1[i].numPmos, rows4[i].numPmos);
        EXPECT_EQ(rows1[i].overheadPct, rows4[i].overheadPct);
        EXPECT_EQ(rows1[i].keyRemaps, rows4[i].keyRemaps);
        EXPECT_EQ(rows1[i].ipisResponded, rows4[i].ipisResponded);
        EXPECT_DOUBLE_EQ(rows1[i].switchesPerSec,
                         rows4[i].switchesPerSec);
        EXPECT_DOUBLE_EQ(rows1[i].lowerboundOverheadPct,
                         rows4[i].lowerboundOverheadPct);
        // Every per-scheme result is identical too — cycles, the
        // full stats tree, the event ring and the hot domains must
        // not depend on the worker count.
        EXPECT_EQ(rows1[i].schemes, rows4[i].schemes);
    }
}

TEST(Executor, WhisperDeterministicAcrossJobCounts)
{
    WhisperPointSpec spec;
    spec.benchmark = "echo";
    spec.params.numTxns = 200;
    spec.params.poolBytes = std::size_t{8} << 20;
    spec.params.initialKeys = 300;

    common::ThreadPool serial(1);
    common::ThreadPool wide(4);
    const WhisperRow row1 = Executor(serial).runWhisper({spec}).front();
    const WhisperRow row4 = Executor(wide).runWhisper({spec}).front();

    EXPECT_EQ(row1.schemes, row4.schemes);
    EXPECT_DOUBLE_EQ(row1.switchesPerSec, row4.switchesPerSec);
    EXPECT_DOUBLE_EQ(row1.overheadMpkPct, row4.overheadMpkPct);
    EXPECT_DOUBLE_EQ(row1.overheadMpkVirtPct, row4.overheadMpkVirtPct);
    EXPECT_DOUBLE_EQ(row1.overheadDomainVirtPct,
                     row4.overheadDomainVirtPct);
    EXPECT_GT(row1.schemes.at(SchemeKind::NoProtection).cycles, 0u);
}

TEST(Executor, RawReplayMatchesSerialReplay)
{
    using trace::TraceRecord;
    std::vector<TraceRecord> records;
    constexpr Addr base = Addr{1} << 33;
    records.push_back(TraceRecord::attach(0, 1, base, Addr{1} << 20,
                                          Perm::ReadWrite));
    records.push_back(TraceRecord::setPerm(0, 1, Perm::ReadWrite));
    for (unsigned i = 0; i < 500; ++i)
        records.push_back(
            TraceRecord::load(0, base + i * 64, 8, true));
    const auto buf = trace::TraceBuffer::copyOf(records);

    const std::vector<SchemeKind> kinds{SchemeKind::NoProtection,
                                        SchemeKind::MpkVirt,
                                        SchemeKind::DomainVirt};
    const auto serial = serialReplay(buf->records(), {}, kinds);

    RawPointSpec spec;
    spec.trace = buf;
    spec.schemes = kinds;
    common::ThreadPool pool(3);
    const RawPointResult res = Executor(pool).runRaw(spec);

    ASSERT_EQ(res.schemes.size(), kinds.size());
    for (SchemeKind k : kinds) {
        const core::System &sys = *serial.at(k);
        const SchemeResult &r = res.schemes.at(k);
        EXPECT_EQ(r.cycles, sys.totalCycles()) << arch::schemeName(k);
        EXPECT_EQ(r.denied, sys.deniedAccesses.value());
        EXPECT_EQ(r.hotDomains,
                  sys.scheme().domainProfile().topN(kHotDomainsTopN));
    }
}

TEST(Executor, DuplicateSchemesReplayOnce)
{
    using trace::TraceRecord;
    constexpr Addr base = Addr{1} << 33;
    std::vector<TraceRecord> records{
        TraceRecord::attach(0, 1, base, Addr{1} << 20, Perm::ReadWrite),
        TraceRecord::setPerm(0, 1, Perm::ReadWrite),
        TraceRecord::load(0, base, 8, true)};

    RawPointSpec spec;
    spec.trace = trace::TraceBuffer::copyOf(records);
    spec.schemes = {SchemeKind::NoProtection, SchemeKind::MpkVirt,
                    SchemeKind::MpkVirt};
    common::ThreadPool pool(2);
    Executor executor(pool);
    trace::PerfettoExporter exporter = makeExporter(spec.config);
    executor.setPerfettoExporter(&exporter);
    const RawPointResult res = executor.runRaw(spec);
    EXPECT_EQ(res.schemes.size(), 2u);
    EXPECT_EQ(exporter.numTracks(), 2u);

    // Extra schemes of a micro point that repeat each other or the
    // always-added baseline/lowerbound replay once as well.
    MicroPointSpec micro = avlSpec(16);
    micro.params.numOps = 200;
    micro.schemes = {SchemeKind::MpkVirt, SchemeKind::Lowerbound,
                     SchemeKind::MpkVirt};
    executor.setPerfettoExporter(nullptr);
    executor.setProgress(true);
    ::testing::internal::CaptureStderr();
    const MicroPoint pt = executor.runMicro({micro}).front();
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(pt.schemes.size(), 3u);
    EXPECT_NE(err.find("replays 3/3"), std::string::npos) << err;
}

TEST(SweepSpec, ExpandsBenchmarkMajor)
{
    SweepSpec sweep;
    sweep.benchmarks = {"avl", "ll"};
    sweep.pmoCounts = {16, 64};
    sweep.base.numOps = 100;
    const auto points = sweep.points();
    ASSERT_EQ(points.size(), 4u);
    EXPECT_EQ(points[0].benchmark, "avl");
    EXPECT_EQ(points[0].params.numPmos, 16u);
    EXPECT_EQ(points[1].benchmark, "avl");
    EXPECT_EQ(points[1].params.numPmos, 64u);
    EXPECT_EQ(points[2].benchmark, "ll");
    EXPECT_EQ(points[2].params.numPmos, 16u);
    EXPECT_EQ(points[3].benchmark, "ll");
    EXPECT_EQ(points[3].params.numPmos, 64u);
}

TEST(SweepSpec, EmptyBenchmarksMeansFullSuite)
{
    SweepSpec sweep;
    sweep.pmoCounts = {32};
    EXPECT_EQ(sweep.points().size(), workloads::microNames().size());
}

TEST(ExperimentSuite, RowsComeBackInRegistrationOrder)
{
    ExperimentSuite suite("test");
    EXPECT_EQ(suite.add(avlSpec(128)), 0u);
    MicroPointSpec ll = avlSpec(16);
    ll.benchmark = "ll";
    EXPECT_EQ(suite.add(std::move(ll)), 1u);

    common::ThreadPool pool(2);
    suite.run(pool);

    ASSERT_EQ(suite.microRows().size(), 2u);
    EXPECT_EQ(suite.microRows()[0].benchmark, "avl");
    EXPECT_EQ(suite.microRows()[0].numPmos, 128u);
    EXPECT_EQ(suite.microRows()[1].benchmark, "ll");
    EXPECT_EQ(suite.microRows()[1].numPmos, 16u);
    EXPECT_EQ(suite.jobs(), 2u);
    EXPECT_GT(suite.wallSeconds(), 0.0);
}

TEST(ExperimentSuite, JsonReportIsWellFormed)
{
    ExperimentSuite suite("json_probe");
    MicroPointSpec spec = avlSpec(16);
    spec.params.numOps = 500;
    suite.add(std::move(spec));
    common::ThreadPool pool(2);
    suite.run(pool);

    std::ostringstream os;
    suite.writeJson(os);
    const std::string json = os.str();

    // Structural sanity: balanced braces/brackets, key fields present.
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
    EXPECT_NE(json.find("\"suite\": \"json_probe\""), std::string::npos);
    EXPECT_NE(json.find("\"jobs\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"wall_seconds\""), std::string::npos);
    EXPECT_NE(json.find("\"benchmark\": \"avl\""), std::string::npos);
    EXPECT_NE(json.find("\"total_cycles\""), std::string::npos);
    EXPECT_NE(json.find("\"overhead_pct\""), std::string::npos);
    // The embedded per-scheme stats tree and event ring.
    EXPECT_NE(json.find("\"stats\""), std::string::npos);
    EXPECT_NE(json.find("\"events\""), std::string::npos);
    EXPECT_NE(json.find("\"cyc_mem\""), std::string::npos);
    EXPECT_NE(json.find("\"cyc_issue\""), std::string::npos);
    EXPECT_NE(json.find("\"dtlb\""), std::string::npos);
    EXPECT_NE(json.find("\"dcache\""), std::string::npos);
    EXPECT_NE(json.find("\"recorded\""), std::string::npos);
    // No NaN/inf can sneak into a JSON document.
    EXPECT_EQ(json.find("nan"), std::string::npos);
    EXPECT_EQ(json.find("inf"), std::string::npos);
}

TEST(Executor, StatsAttributionSumsToTotalCycles)
{
    common::ThreadPool pool(2);
    const MicroPoint pt = Executor(pool).runMicro({avlSpec(64)}).front();
    for (const auto &[kind, r] : pt.schemes) {
        const std::string &json = r.statsJson;
        // Extract a top-level scalar from the compact JSON payload.
        const auto grab = [&json](const std::string &key) {
            const std::string needle = "\"" + key + "\":";
            const auto pos = json.find(needle);
            EXPECT_NE(pos, std::string::npos) << key;
            return std::strtod(json.c_str() + pos + needle.size(),
                               nullptr);
        };
        const double total = grab("cycles");
        const double sum = grab("cyc_issue") + grab("cyc_mem") +
                           grab("cyc_prot_fill") +
                           grab("cyc_prot_check") +
                           grab("cyc_perm_instr") + grab("cyc_syscall") +
                           grab("cyc_ctx_switch");
        EXPECT_DOUBLE_EQ(sum, total) << arch::schemeName(kind);
        EXPECT_EQ(static_cast<Cycles>(total), r.cycles)
            << arch::schemeName(kind);
    }
}

TEST(ExperimentSuite, EmptySuiteRunsToCompletion)
{
    ExperimentSuite suite("empty");
    common::ThreadPool pool(2);
    suite.run(pool);
    EXPECT_TRUE(suite.microRows().empty());
    EXPECT_TRUE(suite.whisperRows().empty());
    std::ostringstream os;
    suite.writeJson(os);
    EXPECT_NE(os.str().find("\"micro\": [\n  ]"), std::string::npos);
}

TEST(Executor, ProgressSkipsEmptySweepsAndCountsCaptures)
{
    common::ThreadPool pool(2);
    Executor executor(pool);
    executor.setProgress(true);

    // Empty sub-sweeps (fig7_average has no whisper or server points)
    // print no progress line at all.
    ::testing::internal::CaptureStderr();
    EXPECT_TRUE(executor.runWhisper(std::vector<WhisperPointSpec>{})
                    .empty());
    EXPECT_TRUE(executor.runServer(std::vector<ServerPointSpec>{})
                    .empty());
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");

    // A real sweep reports captures beside replays; the final line
    // shows both complete (avlSpec replays 5 schemes).
    MicroPointSpec spec = avlSpec(16);
    spec.params.numOps = 200;
    ::testing::internal::CaptureStderr();
    executor.runMicro({spec});
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("captures 1/1  replays 5/5"), std::string::npos)
        << err;
}

} // namespace
} // namespace pmodv::exp
