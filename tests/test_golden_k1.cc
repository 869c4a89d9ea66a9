/**
 * @file
 * Golden-output regression for replay: the full stats tree and event
 * ring of every protection scheme, replaying fixed deterministic
 * traces, must stay byte-identical to the committed baselines under
 * tests/data/golden_k1. Each trace is pinned at the default one-core
 * topology and at four cores; the open-loop KV server trace also pins
 * the request-latency histograms and the slow-request digests.
 *
 * This is the safety net for any refactor of core::System, the
 * schemes, or the stats wiring: a change to a single number — a
 * cycle, a counter, an event — fails here with a diffable payload.
 *
 * Regenerate the baselines (only when an intentional model change
 * lands) with:
 *
 *     PMODV_GOLDEN_REGEN=1 ./build/tests/test_golden_k1
 */

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/system.hh"
#include "stats/export.hh"
#include "trace/event_ring.hh"
#include "workloads/micro/micro.hh"
#include "workloads/server/server.hh"

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

std::string
goldenDir()
{
    return std::string(PMODV_TESTDATA_DIR) + "/golden_k1";
}

bool
regenRequested()
{
    const char *env = std::getenv("PMODV_GOLDEN_REGEN");
    return env != nullptr && *env != '\0' && *env != '0';
}

/** Serialize the FULL event ring (all buffered events, oldest first). */
std::string
eventsToJson(const core::System &sys)
{
    std::string out = "[";
    bool first = true;
    for (const trace::Event &ev : sys.events().snapshot()) {
        if (!first)
            out += ",";
        first = false;
        out += "{\"kind\":\"";
        out += trace::eventKindName(ev.kind);
        out += "\",\"cycle\":" + std::to_string(ev.cycle);
        out += ",\"tid\":" + std::to_string(ev.tid);
        out += ",\"arg\":" + std::to_string(ev.arg);
        out += ",\"value\":" + std::to_string(ev.value) + "}";
    }
    out += "]";
    return out;
}

/** The deterministic micro trace the baselines were captured from. */
std::vector<TraceRecord>
microTrace()
{
    workloads::MicroParams params;
    params.numPmos = 24;
    params.pmoBytes = Addr{1} << 20;
    params.numOps = 400;
    params.initialNodes = 96;
    trace::VectorSink sink;
    workloads::TraceCtx ctx(sink, params.seed);
    workloads::makeMicro("avl", params)->run(ctx);
    const auto records = sink.records();
    return {records.begin(), records.end()};
}

/**
 * A hand-built multi-thread trace: cross-thread permission grants,
 * thread switches, denials, key-pressure evictions (36 domains > 15
 * MPK keys) and detach/re-attach — the paths a single-thread micro
 * capture never reaches.
 */
std::vector<TraceRecord>
multithreadTrace()
{
    constexpr Addr base = Addr{1} << 33;
    constexpr Addr stride = Addr{16} << 20;
    constexpr Addr size = Addr{1} << 20;
    constexpr unsigned domains = 36;
    std::vector<TraceRecord> t;
    for (unsigned d = 1; d <= domains; ++d) {
        t.push_back(TraceRecord::attach(0, d, base + (d - 1) * stride,
                                        size, Perm::ReadWrite));
    }
    for (unsigned d = 1; d <= domains; ++d) {
        t.push_back(TraceRecord::setPerm(0, d, Perm::ReadWrite));
        t.push_back(TraceRecord::setPerm(1, d, d % 3 ? Perm::ReadWrite
                                                     : Perm::Read));
    }
    std::uint16_t tid = 0;
    for (unsigned i = 0; i < 600; ++i) {
        const auto next =
            static_cast<std::uint16_t>(i % 5 == 4 ? 1 - tid : tid);
        if (next != tid) {
            t.push_back(TraceRecord::threadSwitch(next));
            tid = next;
        }
        const unsigned d = (i * 7) % domains + 1;
        const Addr addr = base + (d - 1) * stride + (i * 64) % size;
        if (i % 3 == 0)
            t.push_back(TraceRecord::store(tid, addr, 8, true));
        else
            t.push_back(TraceRecord::load(tid, addr, 8, true));
    }
    t.push_back(TraceRecord::detach(tid, 3));
    t.push_back(TraceRecord::attach(tid, 3, base + 2 * stride, size,
                                    Perm::ReadWrite));
    t.push_back(TraceRecord::load(tid, base + 2 * stride, 8, true));
    return t;
}

/**
 * A small seeded open-loop KV server trace: four worker threads, more
 * tenants than MPK keys (so the key-based schemes evict), stamped
 * arrivals for the request-latency and forensics layers.
 */
std::vector<TraceRecord>
serverTrace()
{
    workloads::ServerParams params;
    params.numTenants = 32;
    params.numRequests = 400;
    params.keysPerTenant = 16;
    params.numThreads = 4;
    params.seed = 7;
    trace::VectorSink sink;
    workloads::TraceCtx ctx(sink, params.seed);
    workloads::ServerWorkload(params).run(ctx);
    const auto records = sink.records();
    return {records.begin(), records.end()};
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return {};
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
writeFile(const std::string &path, const std::string &payload)
{
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.is_open()) << "cannot write " << path;
    out << payload;
}

/** The replay config of a baseline: @p cores cores, timeline on. */
core::SimConfig
goldenConfig(unsigned cores)
{
    core::SimConfig cfg;
    cfg.topology.numCores = cores;
    // Sample a timeline so its serialization is pinned too.
    cfg.samplingEpochCycles = 65536;
    cfg.samplingMaxEpochs = 256;
    return cfg;
}

/** goldenConfig() plus request-latency tracking and forensics. */
core::SimConfig
serverConfig(unsigned cores)
{
    core::SimConfig cfg = goldenConfig(cores);
    cfg.opClasses = workloads::ServerWorkload::kNumTenantClasses;
    cfg.slowRequestK = 8;
    return cfg;
}

void
checkTrace(const std::string &trace_name,
           const std::vector<TraceRecord> &records,
           const core::SimConfig &cfg)
{
    for (SchemeKind kind : kAllSchemes) {
        core::System sys(cfg, kind);
        sys.replayBatch(records);
        sys.finish();
        const std::string stats_json = stats::toJsonString(sys);
        const std::string events_json = eventsToJson(sys);
        const std::string stem = goldenDir() + "/" + trace_name + "_" +
                                 arch::schemeName(kind);
        if (regenRequested()) {
            writeFile(stem + ".stats.json", stats_json);
            writeFile(stem + ".events.json", events_json);
            continue;
        }
        const std::string want_stats = readFile(stem + ".stats.json");
        const std::string want_events = readFile(stem + ".events.json");
        ASSERT_FALSE(want_stats.empty())
            << "missing golden baseline " << stem << ".stats.json"
            << " (run with PMODV_GOLDEN_REGEN=1 to create it)";
        EXPECT_EQ(stats_json, want_stats)
            << arch::schemeName(kind) << " stats drifted on '"
            << trace_name << "' — replay is no longer bit-identical";
        EXPECT_EQ(events_json, want_events)
            << arch::schemeName(kind) << " event ring drifted on '"
            << trace_name << "'";
    }
}

TEST(GoldenK1, MicroAvlBitIdentical)
{
    checkTrace("avl", microTrace(), goldenConfig(1));
}

TEST(GoldenK1, MultithreadTraceBitIdentical)
{
    checkTrace("mt", multithreadTrace(), goldenConfig(1));
}

TEST(GoldenK1, ServerTraceBitIdentical)
{
    checkTrace("kv", serverTrace(), serverConfig(1));
}

TEST(GoldenK4, MicroAvlBitIdentical)
{
    checkTrace("avl_k4", microTrace(), goldenConfig(4));
}

TEST(GoldenK4, MultithreadTraceBitIdentical)
{
    checkTrace("mt_k4", multithreadTrace(), goldenConfig(4));
}

TEST(GoldenK4, ServerTraceBitIdentical)
{
    checkTrace("kv_k4", serverTrace(), serverConfig(4));
}

} // namespace
} // namespace pmodv
