/**
 * @file
 * Tail-forensics correctness battery:
 *
 *  * the partition invariant — every captured request's breakdown
 *    (queueing + the seven service buckets + residue) sums exactly to
 *    its arrival-to-completion latency, with residue 0, on one core
 *    and on four, whole-trace and split mid-window into odd batches;
 *  * blame referential integrity — every blamed event id resolves to
 *    a real EventRing post inside the request's [begin, commit]
 *    window, chains are chronological, and commit markers are never
 *    blamed;
 *  * the digest bound — at most K entries, latency-sorted, counting
 *    every offered request;
 *  * admission gating — skipping the entries admits() refuses keeps
 *    exactly what offering every request keeps;
 *  * gating — slowRequestK = 0 (the default) leaves the stats tree
 *    without any forensics nodes, and suite rows without blame
 *    blocks or event id/req fields, so golden trees stay pinned;
 *  * suite determinism — forensics-on suite JSON is byte-identical
 *    across worker counts, and the digest inside it survives a
 *    parse/recompute round trip through common::parseJson.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/thread_pool.hh"
#include "core/system.hh"
#include "exp/suite.hh"
#include "stats/export.hh"
#include "stats/slow_digest.hh"
#include "trace/buffer.hh"
#include "trace/sinks.hh"
#include "workloads/server/server.hh"

namespace pmodv
{
namespace
{

using arch::SchemeKind;

std::shared_ptr<const trace::TraceBuffer>
captureServer(const workloads::ServerParams &params)
{
    trace::VectorSink sink;
    workloads::TraceCtx ctx(sink, params.seed);
    workloads::ServerWorkload workload(params);
    workload.run(ctx);
    return trace::TraceBuffer::fromRecords(sink.take());
}

workloads::ServerParams
smallParams(unsigned threads = 1)
{
    workloads::ServerParams p;
    p.numTenants = 32;
    p.numRequests = 2'000;
    p.numThreads = threads;
    return p;
}

core::SimConfig
forensicsConfig(unsigned k, unsigned cores = 1)
{
    core::SimConfig config;
    config.opClasses = workloads::ServerWorkload::kNumTenantClasses;
    config.slowRequestK = k;
    config.topology.numCores = cores;
    // Big enough that no in-window event is overwritten before OpEnd
    // in these traces; ids stay valid regardless (they are monotone
    // post counts, not slot indices).
    config.eventRingCapacity = 65536;
    return config;
}

/** queue + buckets + residue == latency, residue == 0, for @p e. */
void
expectPartition(const stats::SlowRequestEntry &e)
{
    std::uint64_t service = 0;
    for (unsigned b = 0; b < stats::kSlowDigestBuckets; ++b)
        service += e.buckets[b];
    EXPECT_EQ(e.queue + service + e.residue, e.latency)
        << "request " << e.id;
    EXPECT_EQ(e.residue, 0u) << "request " << e.id;
    EXPECT_LE(e.begin, e.commit) << "request " << e.id;
}

TEST(Forensics, PartitionInvariantHoldsForEveryRequest)
{
    const auto params = smallParams();
    const auto buffer = captureServer(params);

    for (SchemeKind kind : {SchemeKind::LibMpk, SchemeKind::MpkVirt,
                            SchemeKind::DomainVirt}) {
        // K = one slot per request: the digest retains everything, so
        // the invariant is checked for every single request.
        core::System sys(forensicsConfig(4096), kind);
        sys.replayBatch(buffer->records());
        sys.finish();

        ASSERT_TRUE(sys.forensicsEnabled());
        const stats::SlowRequestDigest *digest = sys.slowDigest();
        ASSERT_NE(digest, nullptr);
        EXPECT_EQ(digest->offered(), params.numRequests);
        ASSERT_EQ(digest->entries().size(), params.numRequests);
        for (const stats::SlowRequestEntry &e : digest->entries())
            expectPartition(e);

        // The per-class digests partition the offered requests.
        std::uint64_t class_offered = 0;
        for (unsigned c = 0;
             c < workloads::ServerWorkload::kNumTenantClasses; ++c) {
            ASSERT_NE(sys.slowDigestClass(c), nullptr);
            class_offered += sys.slowDigestClass(c)->offered();
            for (const stats::SlowRequestEntry &e :
                 sys.slowDigestClass(c)->entries()) {
                EXPECT_EQ(e.cls, c);
                expectPartition(e);
            }
        }
        EXPECT_EQ(class_offered, params.numRequests);
    }
}

TEST(Forensics, PartitionInvariantHoldsOnFourCores)
{
    const auto params = smallParams(/*threads=*/4);
    const auto buffer = captureServer(params);

    core::System sys(forensicsConfig(4096, /*cores=*/4),
                     SchemeKind::LibMpk);
    sys.replayBatch(buffer->records());
    sys.finish();

    const stats::SlowRequestDigest *digest = sys.slowDigest();
    ASSERT_NE(digest, nullptr);
    EXPECT_EQ(digest->offered(), params.numRequests);
    ASSERT_EQ(digest->entries().size(), params.numRequests);
    for (const stats::SlowRequestEntry &e : digest->entries())
        expectPartition(e);
}

TEST(Forensics, BlamedEventsResolveToRealRingEvents)
{
    const auto params = smallParams();
    const auto buffer = captureServer(params);

    // libmpk at 32 tenants floods the 16-key space: evictions and
    // shootdowns land inside request windows constantly.
    core::System sys(forensicsConfig(4096), SchemeKind::LibMpk);
    sys.replayBatch(buffer->records());
    sys.finish();

    const auto recorded =
        static_cast<std::uint64_t>(sys.events().recorded.value());
    std::uint64_t blamed = 0;
    for (const stats::SlowRequestEntry &e :
         sys.slowDigest()->entries()) {
        std::uint64_t prev_id = 0;
        for (const stats::SlowBlamedEvent &ev : e.events) {
            ++blamed;
            // Ids are 1-based monotone post counts: a blamed id names
            // exactly one posted event, and it must exist.
            EXPECT_GE(ev.id, 1u);
            EXPECT_LE(ev.id, recorded);
            EXPECT_GT(ev.id, prev_id) << "chain not chronological";
            prev_id = ev.id;
            // Causality: the event fired inside the request's window.
            EXPECT_GE(ev.cycle, e.begin);
            EXPECT_LE(ev.cycle, e.commit);
            EXPECT_NE(ev.kind, "txn_commit");
        }
    }
    EXPECT_GT(blamed, 0u) << "libmpk at 32 tenants must blame events";
}

TEST(Forensics, DigestIsBatchSplitInvariant)
{
    const auto params = smallParams();
    const auto buffer = captureServer(params);

    for (SchemeKind kind : {SchemeKind::LibMpk, SchemeKind::DomainVirt}) {
        core::System whole(forensicsConfig(8), kind);
        whole.replayBatch(buffer->records());
        whole.finish();

        // 777-record batches land boundaries inside request windows;
        // the OpBegin bucket snapshot must carry across the flush.
        core::System split(forensicsConfig(8), kind);
        const auto all = buffer->records();
        for (std::size_t at = 0; at < all.size(); at += 777)
            split.replayBatch(all.subspan(
                at, std::min<std::size_t>(777, all.size() - at)));
        split.finish();

        EXPECT_EQ(whole.totalCycles(), split.totalCycles());
        EXPECT_EQ(stats::toJsonString(whole),
                  stats::toJsonString(split))
            << arch::schemeName(kind);
    }
}

TEST(Forensics, DigestKeepsTheKSlowest)
{
    const auto params = smallParams();
    const auto buffer = captureServer(params);

    core::System sys(forensicsConfig(8), SchemeKind::LibMpk);
    sys.replayBatch(buffer->records());
    sys.finish();

    const stats::SlowRequestDigest *digest = sys.slowDigest();
    EXPECT_EQ(digest->k(), 8u);
    EXPECT_EQ(digest->offered(), params.numRequests);
    ASSERT_EQ(digest->entries().size(), 8u);
    for (std::size_t i = 1; i < digest->entries().size(); ++i) {
        EXPECT_GE(digest->entries()[i - 1].latency,
                  digest->entries()[i].latency);
    }

    // Cross-check against a keep-everything digest: the bounded one
    // must retain exactly the top of the full latency ranking.
    core::System full(forensicsConfig(4096), SchemeKind::LibMpk);
    full.replayBatch(buffer->records());
    full.finish();
    std::vector<std::uint64_t> lat;
    for (const stats::SlowRequestEntry &e : full.slowDigest()->entries())
        lat.push_back(e.latency);
    std::sort(lat.begin(), lat.end(), std::greater<>());
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(digest->entries()[i].latency, lat[i]) << i;
}

/**
 * The replay's gate: a request neither the global nor its class digest
 * admits is only counted. On random (latency, id) streams with heavy
 * latency ties, that must retain exactly what offering every request
 * to both digests retains, with the same offered() counts.
 */
TEST(Forensics, AdmissionGatingMatchesOfferingEverything)
{
    constexpr unsigned kClasses = 3;
    for (unsigned k : {1u, 8u}) {
        for (std::uint64_t seed : {1u, 2u, 3u}) {
            SCOPED_TRACE("k " + std::to_string(k) + " seed " +
                         std::to_string(seed));
            stats::Group root(nullptr, "");
            auto makeDigests = [&](const std::string &tag) {
                std::vector<std::unique_ptr<stats::SlowRequestDigest>> d;
                for (unsigned c = 0; c <= kClasses; ++c)
                    d.push_back(std::make_unique<stats::SlowRequestDigest>(
                        &root, tag + std::to_string(c), k));
                return d; // [0] global, [1 + c] class c.
            };
            auto all = makeDigests("all");
            auto gated = makeDigests("gated");

            std::mt19937_64 rng(seed);
            unsigned skipped = 0;
            for (std::uint64_t id = 1; id <= 5'000; ++id) {
                // Mostly a handful of latencies (ties), sometimes a
                // wide one.
                const std::uint64_t latency =
                    rng() % 4 == 0 ? rng() % 100'000 : 100 + rng() % 5;
                const unsigned cls = 1 + rng() % kClasses;
                stats::SlowRequestEntry e;
                e.id = id;
                e.latency = latency;
                e.cls = cls - 1;

                all[0]->offer(e);
                all[cls]->offer(e);

                if (!gated[0]->admits(latency, id) &&
                    !gated[cls]->admits(latency, id)) {
                    gated[0]->countRejected();
                    gated[cls]->countRejected();
                    ++skipped;
                } else {
                    gated[0]->offer(e);
                    gated[cls]->offer(e);
                }
            }
            EXPECT_GT(skipped, 4'000u);
            for (unsigned c = 0; c <= kClasses; ++c) {
                EXPECT_EQ(gated[c]->offered(), all[c]->offered()) << c;
                ASSERT_EQ(gated[c]->entries().size(),
                          all[c]->entries().size())
                    << c;
                for (std::size_t i = 0; i < all[c]->entries().size();
                     ++i) {
                    EXPECT_EQ(gated[c]->entries()[i].id,
                              all[c]->entries()[i].id)
                        << c << "/" << i;
                    EXPECT_EQ(gated[c]->entries()[i].latency,
                              all[c]->entries()[i].latency);
                }
            }
        }
    }
}

TEST(Forensics, OffByDefaultLeavesTreesUntouched)
{
    const auto params = smallParams();
    const auto buffer = captureServer(params);

    core::SimConfig off;
    off.opClasses = workloads::ServerWorkload::kNumTenantClasses;
    core::System sys(off, SchemeKind::LibMpk);
    sys.replayBatch(buffer->records());
    sys.finish();

    EXPECT_FALSE(sys.forensicsEnabled());
    EXPECT_EQ(sys.slowDigest(), nullptr);
    const std::string json = stats::toJsonString(sys);
    EXPECT_EQ(json.find("slow_requests"), std::string::npos);

    // Same cycles with forensics on: capture is observation only.
    core::System on(forensicsConfig(8), SchemeKind::LibMpk);
    on.replayBatch(buffer->records());
    on.finish();
    EXPECT_EQ(sys.totalCycles(), on.totalCycles());
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
runForensicsSuite(unsigned jobs, unsigned slow_k)
{
    exp::ServerSweepSpec sweep;
    sweep.tenantCounts = {32};
    sweep.base.numRequests = 1'000;
    sweep.schemes = {SchemeKind::LibMpk, SchemeKind::DomainVirt};
    sweep.config.slowRequestK = slow_k;
    exp::ExperimentSuite suite("forensics_test");
    suite.add(sweep);
    common::ThreadPool pool(jobs);
    suite.run(pool);
    return strippedSuiteJson(suite);
}

TEST(ForensicsSuite, JsonByteIdenticalAcrossJobs)
{
    const std::string j1 = runForensicsSuite(1, 8);
    const std::string j4 = runForensicsSuite(4, 8);
    EXPECT_EQ(j1, j4);
    EXPECT_NE(j1.find("\"slow_requests\""), std::string::npos);
    EXPECT_NE(j1.find("\"blame\""), std::string::npos);
    EXPECT_NE(j1.find("\"req\""), std::string::npos);
}

TEST(ForensicsSuite, OffKeepsRowsFreeOfForensicsFields)
{
    const std::string off = runForensicsSuite(2, 0);
    EXPECT_EQ(off.find("slow_requests"), std::string::npos);
    EXPECT_EQ(off.find("\"blame\""), std::string::npos);
    EXPECT_EQ(off.find("\"req\""), std::string::npos);
}

TEST(ForensicsSuite, DigestSurvivesAJsonRoundTrip)
{
    const std::string json = runForensicsSuite(2, 8);
    std::string error;
    const auto doc = common::parseJson(json, &error);
    ASSERT_TRUE(doc.has_value()) << error;

    const common::JsonValue &row = doc->at("server").at(0);
    const common::JsonValue &stats = row.at("stats");
    int digests = 0;
    for (const auto &[scheme, tree] : stats.object()) {
        const common::JsonValue *events = tree.find("events");
        ASSERT_NE(events, nullptr) << scheme;
        const std::uint64_t recorded =
            events->at("recorded").asU64();

        // Find the digest and recompute the partition in the parsed
        // domain — the same check tools/check_stats_schema.py runs.
        std::function<const common::JsonValue *(
            const common::JsonValue &)>
            find = [&](const common::JsonValue &node)
            -> const common::JsonValue * {
            if (!node.isObject())
                return nullptr;
            for (const auto &[key, value] : node.object()) {
                if (key == "slow_requests" && value.isObject() &&
                    value.find("entries"))
                    return &value;
                if (const auto *hit = find(value))
                    return hit;
            }
            return nullptr;
        };
        const common::JsonValue *digest = find(tree);
        if (!digest)
            continue;
        ++digests;
        EXPECT_LE(digest->at("entries").size(),
                  digest->at("k").asU64());
        for (const common::JsonValue &e :
             digest->at("entries").array()) {
            std::uint64_t service = 0;
            for (const auto &[name, cycles] :
                 e.at("buckets").object())
                service += cycles.asU64();
            EXPECT_EQ(e.at("queue").asU64() + service +
                          e.at("residue").asU64(),
                      e.at("latency").asU64());
            for (const common::JsonValue &ev :
                 e.at("events").array()) {
                EXPECT_GE(ev.at("id").asU64(), 1u);
                EXPECT_LE(ev.at("id").asU64(), recorded);
            }
        }
    }
    // The executor adds the baseline and lowerbound pipelines to the
    // two requested schemes; all four replay with forensics on.
    EXPECT_EQ(digests, 4) << "every scheme tree must carry a digest";
}

} // namespace
} // namespace pmodv
