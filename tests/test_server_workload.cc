/**
 * @file
 * The open-loop KV server's latency-correctness battery:
 *
 *  * capture determinism — one seed, one trace, byte for byte;
 *  * the open-loop invariant — arrival stamps are a property of the
 *    captured trace (monotone, one per request, seed-reproducible),
 *    so every scheme serves the identical arrival process;
 *  * Zipf tenant skew — request counts per tenant rank pass a
 *    chi-square test against ZipfDist's exact masses;
 *  * replay correctness — latency histograms are batch-split
 *    invariant (idle-skew state must survive replayBatch boundaries),
 *    per-class samples partition the total, and queueing delay never
 *    exceeds total latency;
 *  * suite determinism — fig_tail-shaped suite JSON is byte-identical
 *    across worker counts and across runs (modulo the run-environment
 *    fields, which live on their own lines);
 *  * the paper's tail story — past the 16-key cliff the re-keying
 *    schemes' p99 sits far above domain virtualization's.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.hh"
#include "core/system.hh"
#include "exp/suite.hh"
#include "stats/export.hh"
#include "trace/buffer.hh"
#include "trace/sinks.hh"
#include "trace/trace_file.hh"
#include "workloads/server/server.hh"

namespace pmodv
{
namespace
{

using arch::SchemeKind;

std::vector<trace::TraceRecord>
capture(const workloads::ServerParams &params)
{
    trace::VectorSink sink;
    workloads::TraceCtx ctx(sink, params.seed);
    workloads::ServerWorkload workload(params);
    workload.run(ctx);
    const auto records = sink.records();
    return {records.begin(), records.end()};
}

workloads::ServerParams
smallParams()
{
    workloads::ServerParams p;
    p.numTenants = 32;
    p.numRequests = 2'000;
    return p;
}

/** The stamped arrivals of a captured trace, in trace order. */
std::vector<std::uint64_t>
arrivalsOf(const std::vector<trace::TraceRecord> &recs)
{
    std::vector<std::uint64_t> out;
    for (const trace::TraceRecord &rec : recs) {
        if (rec.type == trace::RecordType::OpBegin)
            out.push_back(rec.arrival());
    }
    return out;
}

core::SimConfig
latencyConfig(unsigned cores = 1)
{
    core::SimConfig config;
    config.opClasses = workloads::ServerWorkload::kNumTenantClasses;
    config.topology.numCores = cores;
    return config;
}

TEST(ServerCapture, SeededAndDeterministic)
{
    const auto params = smallParams();
    const auto a = capture(params);
    const auto b = capture(params);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_TRUE(a == b);

    auto other = params;
    other.seed = 43;
    EXPECT_FALSE(a == capture(other));
}

TEST(ServerCapture, OpenLoopArrivalInvariant)
{
    const auto params = smallParams();
    const auto recs = capture(params);
    std::uint64_t begins = 0;
    std::uint64_t ends = 0;
    std::uint64_t prev_arrival = 0;
    for (const trace::TraceRecord &rec : recs) {
        if (rec.type == trace::RecordType::OpBegin) {
            ++begins;
            // Every request carries a stamp; the arrival process is
            // monotone (an open-loop clock, not per-request jitter).
            EXPECT_TRUE(rec.hasArrival());
            EXPECT_GE(rec.arrival(), prev_arrival);
            prev_arrival = rec.arrival();
            // Class is one of the server's tenant classes.
            EXPECT_LT(rec.opClass(),
                      workloads::ServerWorkload::kNumTenantClasses);
        } else if (rec.type == trace::RecordType::OpEnd) {
            ++ends;
        }
    }
    EXPECT_EQ(begins, params.numRequests);
    EXPECT_EQ(ends, params.numRequests);

    // The stamps are a pure function of the seed — the "same arrivals
    // for every scheme" guarantee is capture-level by construction.
    EXPECT_EQ(arrivalsOf(recs), arrivalsOf(capture(params)));
}

TEST(ServerCapture, TenantSkewMatchesZipfChiSquare)
{
    workloads::ServerParams params;
    params.numTenants = 32;
    params.numRequests = 20'000;
    const auto recs = capture(params);

    std::vector<std::uint64_t> counts(params.numTenants, 0);
    std::uint64_t total = 0;
    for (const trace::TraceRecord &rec : recs) {
        if (rec.type != trace::RecordType::OpBegin)
            continue;
        // OpBegin's op-kind is the tenant's domain, 1-based rank.
        ASSERT_GE(rec.aux, 1u);
        ASSERT_LE(rec.aux, params.numTenants);
        ++counts[rec.aux - 1];
        ++total;
    }
    ASSERT_EQ(total, params.numRequests);

    const ZipfDist dist(params.numTenants, params.zipfTheta);
    double chi2 = 0.0;
    for (unsigned r = 0; r < params.numTenants; ++r) {
        const double expected =
            dist.rankMass(r) * static_cast<double>(total);
        ASSERT_GT(expected, 5.0);
        const double diff = static_cast<double>(counts[r]) - expected;
        chi2 += diff * diff / expected;
    }
    // 31 dof: the 99.9th percentile is ~61. Deterministic seed, so
    // this is really a regression pin with statistical meaning.
    EXPECT_LT(chi2, 90.0);
}

/**
 * FNV-1a over every logical field of every record, in trace order:
 * the two payload words as a trace file holds them, {base, size} on
 * an attach and {arrival, class} on a stamped OpBegin.
 */
std::uint64_t
digestOf(const std::vector<trace::TraceRecord> &recs)
{
    std::uint64_t h = trace::kFnvOffsetBasis;
    const auto fold = [&h](std::uint64_t v) {
        for (unsigned i = 0; i < 8; ++i, v >>= 8)
            h = (h ^ (v & 0xff)) * trace::kFnvPrime;
    };
    for (const trace::TraceRecord &rec : recs) {
        fold(static_cast<std::uint64_t>(rec.type));
        fold(rec.flags);
        fold(rec.tid);
        fold(rec.aux);
        if (rec.type == trace::RecordType::Attach) {
            fold(rec.attachBase());
            fold(rec.attachSize());
        } else if (rec.hasArrival()) {
            fold(rec.arrival());
            fold(rec.opClass());
        } else {
            fold(rec.addr);
            fold(0);
        }
    }
    return h;
}

/**
 * More keys than buckets: the preload chains six nodes per bucket and
 * new PUT keys push more onto each chain's head, so GETs and PUTs
 * walk long chains. The count and digest pin the capture record for
 * record, chain order included.
 */
TEST(ServerCapture, LongChainCapturePinned)
{
    workloads::ServerParams params;
    params.numTenants = 8;
    params.keysPerTenant = 96;
    params.numBuckets = 16;
    params.numRequests = 1'500;
    params.numThreads = 2;
    params.seed = 11;
    trace::VectorSink sink;
    workloads::TraceCtx ctx(sink, params.seed);
    workloads::ServerWorkload workload(params);
    workload.run(ctx);
    const auto span = sink.records();
    const std::vector<trace::TraceRecord> recs(span.begin(), span.end());

    EXPECT_EQ(workload.gets() + workload.puts(), params.numRequests);
    EXPECT_EQ(workload.hits(), 855u);
    EXPECT_EQ(recs.size(), 19395u);
    EXPECT_EQ(digestOf(recs), 0xe75286de740ae7d2ull);
}

/**
 * A chain node keeps its key and its PMO offset in 32 bits each, so a
 * key space (2 * keysPerTenant) or a tenant PMO of 2^32 or more is
 * rejected before anything is attached or allocated.
 */
TEST(ServerCaptureDeathTest, RejectsParamsPast32Bits)
{
    auto run = [](const workloads::ServerParams &params) {
        trace::VectorSink sink;
        workloads::TraceCtx ctx(sink, params.seed);
        workloads::ServerWorkload(params).run(ctx);
    };
    workloads::ServerParams keys = smallParams();
    keys.keysPerTenant = 1u << 31;
    EXPECT_DEATH(run(keys), "key space .* 32 bits");
    workloads::ServerParams bytes = smallParams();
    bytes.tenantBytes = Addr{1} << 32;
    EXPECT_DEATH(run(bytes), "tenant PMO .* 32 bits");
    // The largest values that fit are accepted.
    workloads::ServerParams edge = smallParams();
    edge.numTenants = 2;
    edge.numRequests = 10;
    edge.keysPerTenant = 4;
    edge.tenantBytes = Addr{UINT32_MAX} + 1 - (Addr{1} << 20);
    run(edge);
}

TEST(ServerReplay, LatencyHistogramsAreBatchSplitInvariant)
{
    const auto params = smallParams();
    const auto recs = capture(params);
    const auto buffer = trace::TraceBuffer::copyOf(recs);

    for (SchemeKind kind : {SchemeKind::LibMpk, SchemeKind::DomainVirt}) {
        core::System whole(latencyConfig(), kind);
        whole.replayBatch(buffer->records());
        whole.finish();

        // Odd split sizes land boundaries inside OpBegin..OpEnd
        // windows; the idle-skew virtual clock must carry across.
        core::System split(latencyConfig(), kind);
        const auto all = buffer->records();
        for (std::size_t at = 0; at < all.size(); at += 777)
            split.replayBatch(all.subspan(at, std::min<std::size_t>(
                                                  777, all.size() - at)));
        split.finish();

        EXPECT_EQ(whole.totalCycles(), split.totalCycles());
        EXPECT_EQ(stats::toJsonString(whole), stats::toJsonString(split))
            << arch::schemeName(kind);
    }
}

TEST(ServerReplay, ClassHistogramsPartitionTheTotal)
{
    const auto params = smallParams();
    const auto buffer =
        trace::TraceBuffer::copyOf(capture(params));

    core::System sys(latencyConfig(), SchemeKind::DomainVirt);
    sys.replayBatch(buffer->records());
    sys.finish();

    const stats::Histogram *lat = sys.opLatHist();
    const stats::Histogram *queue = sys.opQueueHist();
    ASSERT_NE(lat, nullptr);
    ASSERT_NE(queue, nullptr);
    EXPECT_EQ(lat->samples(), params.numRequests);
    EXPECT_EQ(queue->samples(), params.numRequests);

    std::uint64_t class_samples = 0;
    for (unsigned c = 0;
         c < workloads::ServerWorkload::kNumTenantClasses; ++c) {
        ASSERT_NE(sys.opLatClassHist(c), nullptr);
        class_samples += sys.opLatClassHist(c)->samples();
        // Hot tenants exist for every class under Zipf at 32 tenants.
        EXPECT_GT(sys.opLatClassHist(c)->samples(), 0u);
    }
    EXPECT_EQ(class_samples, params.numRequests);

    // Queueing delay is a component of total latency.
    EXPECT_LE(queue->mean(), lat->mean());
    EXPECT_LE(queue->max(), lat->max());
    // Quantiles are monotone in q.
    EXPECT_LE(lat->quantile(0.5), lat->quantile(0.99));
    EXPECT_LE(lat->quantile(0.99), lat->quantile(0.999));
}

TEST(ServerReplay, LegacyConfigIgnoresStampsBitIdentically)
{
    // A stamped trace replayed on a default config (opClasses == 0)
    // must produce exactly the cycles of... itself with tracking on:
    // the virtual clock never charges cycles. And the stats tree must
    // keep the legacy shape (no op_lat nodes).
    const auto params = smallParams();
    const auto buffer =
        trace::TraceBuffer::copyOf(capture(params));

    core::SimConfig legacy;
    core::System plain(legacy, SchemeKind::LibMpk);
    plain.replayBatch(buffer->records());
    plain.finish();

    core::System tracked(latencyConfig(), SchemeKind::LibMpk);
    tracked.replayBatch(buffer->records());
    tracked.finish();

    EXPECT_EQ(plain.totalCycles(), tracked.totalCycles());
    EXPECT_EQ(plain.opLatHist(), nullptr);
    const std::string legacy_json = stats::toJsonString(plain);
    EXPECT_EQ(legacy_json.find("op_lat"), std::string::npos);
    EXPECT_NE(stats::toJsonString(tracked).find("op_lat"),
              std::string::npos);
}

TEST(ServerReplay, MultiCoreTracksEveryRequest)
{
    auto params = smallParams();
    params.numThreads = 2;
    const auto buffer =
        trace::TraceBuffer::copyOf(capture(params));

    core::System sys(latencyConfig(2), SchemeKind::DomainVirt);
    sys.replayBatch(buffer->records());
    sys.finish();

    ASSERT_NE(sys.opLatHist(), nullptr);
    EXPECT_EQ(sys.opLatHist()->samples(), params.numRequests);
    EXPECT_EQ(sys.opQueueHist()->samples(), params.numRequests);
}

/** Suite JSON minus the run-environment lines (jobs, wall_seconds). */
std::string
strippedSuiteJson(const exp::ExperimentSuite &suite)
{
    std::ostringstream os;
    suite.writeJson(os);
    std::istringstream in(os.str());
    std::string out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("  \"jobs\":", 0) == 0 ||
            line.rfind("  \"wall_seconds\":", 0) == 0)
            continue;
        out += line;
        out += '\n';
    }
    return out;
}

std::string
runTailSuite(unsigned jobs)
{
    exp::ServerSweepSpec sweep;
    sweep.tenantCounts = {16, 32};
    sweep.base.numRequests = 1'000;
    sweep.schemes = {SchemeKind::LibMpk, SchemeKind::MpkVirt,
                     SchemeKind::DomainVirt};
    exp::ExperimentSuite suite("tail_test");
    suite.add(sweep);
    common::ThreadPool pool(jobs);
    suite.run(pool);
    return strippedSuiteJson(suite);
}

TEST(ServerSuite, JsonByteIdenticalAcrossJobsAndRuns)
{
    const std::string j1 = runTailSuite(1);
    const std::string j4 = runTailSuite(4);
    const std::string j1_again = runTailSuite(1);
    EXPECT_EQ(j1, j4);
    EXPECT_EQ(j1, j1_again);
    // The stripped report still carries the server rows.
    EXPECT_NE(j1.find("\"server\": ["), std::string::npos);
    EXPECT_NE(j1.find("\"tenants\": 16"), std::string::npos);
    EXPECT_NE(j1.find("\"queue_p99\":"), std::string::npos);
}

TEST(ServerSuite, TailDivergesPastTheKeyCliff)
{
    exp::ServerPointSpec spec;
    spec.params.numTenants = 256;
    spec.params.numRequests = 3'000;
    spec.schemes = {SchemeKind::LibMpk, SchemeKind::MpkVirt,
                    SchemeKind::DomainVirt};
    common::ThreadPool pool(4);
    exp::Executor executor(pool);
    const exp::ServerRow row = executor.runServer({spec}).front();

    const exp::ServerLatency &libmpk =
        row.latency.at(SchemeKind::LibMpk);
    const exp::ServerLatency &mpk_virt =
        row.latency.at(SchemeKind::MpkVirt);
    const exp::ServerLatency &domain =
        row.latency.at(SchemeKind::DomainVirt);
    ASSERT_EQ(libmpk.samples, spec.params.numRequests);
    ASSERT_EQ(domain.samples, spec.params.numRequests);

    // 256 tenants >> 16 keys: the re-keying schemes' tails must sit
    // far above domain virtualization's, and their p99 must be
    // queueing-dominated (the open-loop signature).
    EXPECT_GT(libmpk.p99, 3.0 * domain.p99);
    EXPECT_GT(mpk_virt.p99, 1.5 * domain.p99);
    EXPECT_GT(libmpk.queueP99, 0.5 * libmpk.p99);
    // Tail ordering within each scheme.
    EXPECT_LE(domain.p50, domain.p99);
    EXPECT_LE(domain.p99, domain.p999);
}

} // namespace
} // namespace pmodv
