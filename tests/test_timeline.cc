/**
 * @file
 * Tests of the timeline profiler stack: stats::TimeSeries epoch
 * sampling (deltas sum to aggregates, bounded coalescing, disabled
 * no-op), per-domain hot-object attribution (arch::DomainProfile and
 * its surfacing through executor rows and suite JSON), TxnCommit op
 * identity (workloads stamp the op's primary domain into the
 * OpBegin/OpEnd aux field), and the Perfetto trace export (well-formed
 * Chrome trace-event JSON, required event classes, byte-identical
 * output across executor worker counts).
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.hh"
#include "core/system.hh"
#include "exp/suite.hh"
#include "exp/trace_export.hh"
#include "stats/timeseries.hh"
#include "trace/perfetto.hh"
#include "workloads/micro/micro.hh"
#include "workloads/trace_ctx.hh"

namespace pmodv
{
namespace
{

using arch::SchemeKind;
using trace::TraceRecord;

// ------------------------------------------- minimal JSON validator

/**
 * A strict recursive-descent JSON checker (no values surfaced — we
 * only care that the exported document parses). Cheaper than pulling
 * a JSON library into the test build; CI additionally json.load()s
 * real trace files.
 */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : s_(text) {}

    bool valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos_ == s_.size();
    }

  private:
    bool value()
    {
        if (pos_ >= s_.size())
            return false;
        switch (s_[pos_]) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default: return number();
        }
    }

    bool object()
    {
        ++pos_; // '{'
        skipWs();
        if (peek('}'))
            return true;
        while (true) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (!peek(':'))
                return false;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek('}'))
                return true;
            if (!peek(','))
                return false;
        }
    }

    bool array()
    {
        ++pos_; // '['
        skipWs();
        if (peek(']'))
            return true;
        while (true) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek(']'))
                return true;
            if (!peek(','))
                return false;
        }
    }

    bool string()
    {
        if (pos_ >= s_.size() || s_[pos_] != '"')
            return false;
        ++pos_;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (s_[pos_] == '\\')
                ++pos_;
            ++pos_;
        }
        if (pos_ >= s_.size())
            return false;
        ++pos_; // closing '"'
        return true;
    }

    bool number()
    {
        const std::size_t start = pos_;
        if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+'))
            ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                s_[pos_] == '-' || s_[pos_] == '+')) {
            ++pos_;
        }
        return pos_ > start;
    }

    bool literal(const char *word)
    {
        const std::size_t n = std::string(word).size();
        if (s_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    bool peek(char c)
    {
        if (pos_ < s_.size() && s_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    void skipWs()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_]))) {
            ++pos_;
        }
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

/** Sum of track @p t over every closed epoch of @p ts. */
std::uint64_t
trackTotal(const stats::TimeSeries &ts, std::size_t t)
{
    std::uint64_t sum = 0;
    for (std::size_t e = 0; e < ts.numEpochs(); ++e)
        sum += ts.sample(t, e);
    return sum;
}

// ------------------------------------------------ TimeSeries (unit)

TEST(TimeSeries, DisabledByDefaultIsANoOp)
{
    stats::Group root(nullptr, "");
    stats::Scalar counter(&root, "ctr");
    stats::TimeSeries ts(&root, "tl");

    EXPECT_FALSE(ts.enabled());
    ts.track(counter, "ctr"); // No-op while disabled.
    EXPECT_EQ(ts.numTracks(), 0u);

    counter += 5;
    ts.tick(1'000'000);
    ts.finalize(2'000'000);
    EXPECT_EQ(ts.numEpochs(), 0u);
}

TEST(TimeSeries, EpochDeltasSumToFinalCounterValue)
{
    stats::Group root(nullptr, "");
    stats::Scalar counter(&root, "ctr");
    stats::TimeSeries ts(&root, "tl");
    ts.configure(100, 16);
    ts.track(counter, "ctr");

    // Uneven increments across several epochs plus a partial tail.
    std::uint64_t now = 0;
    for (int i = 0; i < 35; ++i) {
        counter += i;
        now += 10;
        ts.tick(now);
    }
    ts.finalize(now);

    ASSERT_EQ(ts.numTracks(), 1u);
    ASSERT_GT(ts.numEpochs(), 1u);
    EXPECT_EQ(trackTotal(ts, 0), counter.value());
}

TEST(TimeSeries, CoalescingBoundsRowsAndPreservesTotals)
{
    stats::Group root(nullptr, "");
    stats::Scalar counter(&root, "ctr");
    stats::TimeSeries ts(&root, "tl");
    ts.configure(10, 4); // Tiny bound: force repeated coalescing.
    ts.track(counter, "ctr");

    std::uint64_t now = 0;
    for (int i = 0; i < 200; ++i) {
        counter += 3;
        now += 7;
        ts.tick(now);
    }
    ts.finalize(now);

    EXPECT_LE(ts.numEpochs(), 4u);
    EXPECT_GT(ts.epochCycles(), 10u); // Width doubled at least once.
    EXPECT_EQ(trackTotal(ts, 0), counter.value());
}

// --------------------------------------------- DomainProfile (unit)

TEST(DomainProfile, TopNRanksByEvictionsThenAscendingDomain)
{
    arch::DomainProfile profile;
    profile.access(3);
    profile.access(3);
    profile.eviction(7, 4);
    profile.eviction(7, 2);
    profile.eviction(5, 1);
    profile.setPerm(9);

    const auto top = profile.topN(2);
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0].domain, 7u);
    EXPECT_EQ(top[0].counters.evictions, 2u);
    EXPECT_EQ(top[0].counters.shootdownPages, 6u);
    EXPECT_EQ(top[1].domain, 5u);

    // Ties break toward the smaller domain id.
    arch::DomainProfile tied;
    tied.access(11);
    tied.access(4);
    const auto order = tied.topN(2);
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0].domain, 4u);
    EXPECT_EQ(order[1].domain, 11u);
}

// ----------------------------------------- System-level integration

std::vector<TraceRecord>
captureAvl(unsigned pmos = 24, std::uint64_t ops = 3000)
{
    workloads::MicroParams params;
    params.numPmos = pmos;
    params.numOps = ops;
    params.initialNodes = 256;
    trace::VectorSink sink;
    workloads::TraceCtx ctx(sink, params.seed);
    workloads::makeMicro("avl", params)->run(ctx);
    const auto records = sink.records();
    return {records.begin(), records.end()};
}

core::SimConfig
sampledConfig(Cycles epoch = 4096)
{
    core::SimConfig config;
    config.samplingEpochCycles = epoch;
    config.samplingMaxEpochs = 64;
    config.eventRingCapacity = 1 << 16;
    return config;
}

TEST(SystemTimeline, EpochDeltasSumToAggregateCounters)
{
    const auto records = captureAvl();
    core::System sys(sampledConfig(), SchemeKind::MpkVirt);
    sys.replayBatch(records);
    sys.finish();

    const stats::TimeSeries &tl = sys.timeline;
    ASSERT_TRUE(tl.enabled());
    ASSERT_GT(tl.numEpochs(), 1u);

    // Every track's epoch deltas must reconstruct its aggregate.
    const std::map<std::string, std::uint64_t> expected{
        {"cycles", sys.cycles.value()},
        {"instructions", sys.instructions.value()},
        {"mem_accesses", sys.memAccesses.value()},
        {"operations", sys.operations.value()},
        {"cyc_mem", sys.cycMem.value()},
        {"cyc_prot_fill", sys.cycProtFill.value()},
        {"cyc_prot_check", sys.cycProtCheck.value()},
        {"cyc_perm_instr", sys.cycPermInstr.value()},
    };
    ASSERT_GE(tl.numTracks(), expected.size());
    for (std::size_t t = 0; t < tl.numTracks(); ++t) {
        const auto it = expected.find(tl.trackLabel(t));
        if (it == expected.end())
            continue;
        EXPECT_EQ(trackTotal(tl, t), it->second)
            << "track " << tl.trackLabel(t);
    }
    EXPECT_GT(sys.cycles.value(), 0u);
}

TEST(SystemTimeline, DisabledByDefault)
{
    const auto records = captureAvl(8, 500);
    core::System sys(core::SimConfig{}, SchemeKind::MpkVirt);
    sys.replayBatch(records);
    sys.finish();
    EXPECT_FALSE(sys.timeline.enabled());
    EXPECT_EQ(sys.timeline.numEpochs(), 0u);
}

TEST(TxnCommit, OpMarkersCarryThePrimaryDomain)
{
    // The satellite regression: micro workloads stamp each
    // operation's primary domain into the OpBegin/OpEnd aux field, so
    // the replay's TxnCommit events are attributable.
    const auto records = captureAvl(16, 1000);
    std::size_t op_ends = 0, stamped = 0;
    for (const TraceRecord &rec : records) {
        if (rec.type != trace::RecordType::OpEnd)
            continue;
        ++op_ends;
        if (rec.aux != kNullDomain)
            ++stamped;
    }
    ASSERT_GT(op_ends, 0u);
    EXPECT_EQ(stamped, op_ends);

    // And the replayed event ring carries them through.
    core::System sys(sampledConfig(), SchemeKind::MpkVirt);
    sys.replayBatch(records);
    sys.finish();
    std::size_t commits = 0, attributed = 0;
    for (const trace::Event &ev : sys.events().snapshot()) {
        if (ev.kind != trace::EventKind::TxnCommit)
            continue;
        ++commits;
        if (ev.arg != kNullDomain)
            ++attributed;
        EXPECT_GT(ev.value, 0u); // Op duration in cycles.
    }
    ASSERT_GT(commits, 0u);
    EXPECT_EQ(attributed, commits);
}

TEST(HotDomains, ProfiledSchemeReportsActivity)
{
    const auto records = captureAvl();
    core::System sys(sampledConfig(), SchemeKind::MpkVirt);
    sys.replayBatch(records);
    sys.finish();

    const arch::DomainProfile &profile = sys.scheme().domainProfile();
    EXPECT_GT(profile.numActiveDomains(), 0u);
    const auto top = profile.topN(4);
    ASSERT_FALSE(top.empty());
    EXPECT_GT(top[0].counters.accesses, 0u);

    const std::string json = exp::hotDomainsJson(top);
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("\"accesses\""), std::string::npos);
    EXPECT_NE(json.find("\"evictions\""), std::string::npos);
}

// ------------------------------------------------- Perfetto export

TEST(Perfetto, ExportIsWellFormedAndCoversEventClasses)
{
    const auto records = captureAvl();
    core::SimConfig config = sampledConfig();
    core::System sys(config, SchemeKind::MpkVirt);
    sys.replayBatch(records);
    sys.finish();

    trace::PerfettoExporter exporter = exp::makeExporter(config);
    exp::appendSystemTrack(exporter, sys, "mpk_virt");

    EXPECT_EQ(exporter.numTracks(), 1u);
    const std::string json = exporter.toString();
    EXPECT_TRUE(JsonChecker(json).valid());
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    // Track metadata, spans, instants and counter samples all present.
    EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
    // mpk_virt under key pressure must log evictions + shootdowns.
    EXPECT_NE(json.find("\"key_eviction\""), std::string::npos);
    EXPECT_NE(json.find("\"shootdown\""), std::string::npos);
    EXPECT_NE(json.find("\"key_evictions\""), std::string::npos);
}

TEST(Perfetto, EscapesQuotesAndHandlesEmptyDocument)
{
    trace::PerfettoExporter exporter(2200.0);
    EXPECT_TRUE(JsonChecker(exporter.toString()).valid());

    const int track = exporter.addTrack("odd \"name\"\\");
    exporter.span(track, "sp\"an", 100, 50, 0, {{"k\"ey", 1.5}});
    exporter.instant(track, "i", 120, 1);
    exporter.counter(track, "c", 200, 3.25);
    EXPECT_EQ(exporter.numEvents(), 4u);
    EXPECT_TRUE(JsonChecker(exporter.toString()).valid())
        << exporter.toString();
}

TEST(Perfetto, ExecutorExportIsIdenticalAcrossWorkerCounts)
{
    exp::RawPointSpec spec;
    spec.trace = trace::TraceBuffer::copyOf(captureAvl());
    spec.config = sampledConfig();
    spec.schemes = {SchemeKind::NoProtection, SchemeKind::MpkVirt,
                    SchemeKind::DomainVirt};

    auto runWith = [&](unsigned jobs) {
        common::ThreadPool pool(jobs);
        exp::Executor executor(pool);
        trace::PerfettoExporter exporter =
            exp::makeExporter(spec.config);
        executor.setPerfettoExporter(&exporter);
        executor.runRaw(spec);
        return exporter.toString();
    };

    const std::string serial = runWith(1);
    const std::string parallel = runWith(4);
    EXPECT_GT(serial.size(), 2u);
    EXPECT_EQ(serial, parallel);
    EXPECT_TRUE(JsonChecker(serial).valid());
}

// -------------------------------------------------- suite plumbing

TEST(SuiteReport, EmbedsTimelineAndHotDomains)
{
    exp::SweepSpec sweep;
    sweep.benchmarks = {"avl"};
    sweep.pmoCounts = {24};
    sweep.base.numOps = 2000;
    sweep.base.initialNodes = 256;
    sweep.config = sampledConfig();
    sweep.schemes = {SchemeKind::MpkVirt};

    exp::ExperimentSuite suite("timeline_probe");
    suite.add(sweep);
    common::ThreadPool pool(2);
    suite.run(pool);

    std::ostringstream os;
    suite.writeJson(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"hot_domains\""), std::string::npos);
    EXPECT_NE(json.find("\"timeline\""), std::string::npos);
    EXPECT_NE(json.find("\"epoch_cycles\""), std::string::npos);

    ASSERT_FALSE(suite.microRows().empty());
    const exp::MicroPoint &pt = suite.microRows().front();
    const auto it = pt.schemes.find(SchemeKind::MpkVirt);
    ASSERT_NE(it, pt.schemes.end());
    ASSERT_FALSE(it->second.hotDomains.empty());
    const std::string hot = exp::hotDomainsJson(it->second.hotDomains);
    EXPECT_TRUE(JsonChecker(hot).valid()) << hot;
    EXPECT_NE(hot.find("\"domain\""), std::string::npos);
}

} // namespace
} // namespace pmodv
