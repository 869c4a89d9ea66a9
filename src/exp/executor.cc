#include "exp/executor.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <future>
#include <thread>

#include "common/logging.hh"
#include "exp/trace_export.hh"
#include "pmo/pmo_namespace.hh"
#include "stats/export.hh"

namespace pmodv::exp
{

using arch::SchemeKind;

double
log2Pct(double pct)
{
    return pct <= 0 ? 0.0 : std::log2(pct);
}

std::vector<SchemeKind>
uniqueSchemes(const std::vector<SchemeKind> &kinds)
{
    std::vector<SchemeKind> out;
    for (SchemeKind k : kinds) {
        if (std::find(out.begin(), out.end(), k) == out.end())
            out.push_back(k);
    }
    return out;
}

namespace
{

/**
 * The in-flight state of one experiment point. The coordinating
 * thread sets `kinds` (distinct schemes), the capture task populates
 * the rest; each replay task drives exactly one System. Futures synchronize: the coordinating thread reads
 * `replays` only after the capture future completed, and `systems`
 * only after every replay future completed.
 */
struct PointRun
{
    std::vector<SchemeKind> kinds; ///< One per System, in order.
    std::shared_ptr<const trace::TraceBuffer> buffer;
    std::vector<std::unique_ptr<core::System>> systems;
    std::vector<std::future<void>> replays;
};

/**
 * Build the Systems for `run.kinds`, then enqueue one replay task per
 * System. Called at the tail of a capture task, once `run.buffer`
 * is frozen.
 */
void
launchReplays(common::ThreadPool &pool, PointRun &run,
              const core::SimConfig &config)
{
    run.systems.reserve(run.kinds.size());
    run.replays.reserve(run.kinds.size());
    for (SchemeKind kind : run.kinds) {
        run.systems.push_back(
            std::make_unique<core::System>(config, kind));
        core::System *sys = run.systems.back().get();
        auto buffer = run.buffer;
        run.replays.push_back(pool.submit([sys, buffer] {
            sys->replayBatch(buffer->records());
            sys->finish();
        }));
    }
}

/** The system replaying @p kind in @p run; panics if absent. */
const core::System &
systemOf(const PointRun &run, SchemeKind kind)
{
    for (std::size_t i = 0; i < run.kinds.size(); ++i) {
        if (run.kinds[i] == kind)
            return *run.systems[i];
    }
    panic("no system for scheme '%s' in this point",
          arch::schemeName(kind));
}

double
overheadOver(const SchemeResults &schemes, SchemeKind kind,
             SchemeKind baseline)
{
    const double base = static_cast<double>(schemes.at(baseline).cycles);
    const double val = static_cast<double>(schemes.at(kind).cycles);
    return base == 0 ? 0.0 : (val - base) / base;
}

/** Permission switches per simulated second of the baseline replay. */
double
switchesPerSec(const PointRun &run)
{
    const double seconds =
        systemOf(run, SchemeKind::NoProtection).seconds();
    return seconds == 0
               ? 0
               : static_cast<double>(
                     run.buffer->summary().permissionSwitches()) /
                     seconds;
}

Breakdown
computeBreakdown(const core::System &sys, const core::System &baseline)
{
    // Table VII reports each source as a percentage of the
    // *unprotected baseline* execution time; Total is the full
    // protection overhead (and therefore includes the
    // permission-change row that the lowerbound also pays).
    Breakdown b;
    const double base = static_cast<double>(baseline.totalCycles());
    if (base == 0)
        return b;
    const auto &s = sys.scheme();
    b.permissionChangePct = s.cycPermissionChange.value() / base * 100.0;
    b.entryChangesPct = s.cycEntryChange.value() / base * 100.0;
    b.tableMissPct = s.cycTableMiss.value() / base * 100.0;
    b.accessLatencyPct = s.cycAccessLatency.value() / base * 100.0;
    b.totalPct = (static_cast<double>(sys.totalCycles()) - base) / base *
                 100.0;
    // The shootdown row absorbs both the direct invalidation cycles
    // and the induced TLB refills — computed as the residual, exactly
    // the "subsequent TLB misses ... also taken into account" of the
    // paper's methodology (§V).
    b.tlbInvalidationPct = b.totalPct - b.permissionChangePct -
                           b.entryChangesPct - b.tableMissPct -
                           b.accessLatencyPct;
    // Clamp tiny negative rounding artefacts.
    if (b.tlbInvalidationPct < 0 && b.tlbInvalidationPct > -0.05)
        b.tlbInvalidationPct = 0;
    return b;
}

/** At most this many trailing ring events are embedded per scheme. */
constexpr std::size_t kMaxEmbeddedEvents = 32;

/** Serialize the tail of @p sys's event ring as a JSON array. */
std::string
eventsToJson(const core::System &sys)
{
    // The forensics id/req fields are emitted only when the layer is
    // on, so reports from forensics-off runs stay byte-identical to
    // their pre-blame form.
    const bool forensics = sys.forensicsEnabled();
    const std::vector<trace::Event> events = sys.events().snapshot();
    const std::size_t skip = events.size() > kMaxEmbeddedEvents
                                 ? events.size() - kMaxEmbeddedEvents
                                 : 0;
    std::string out = "[";
    for (std::size_t i = skip; i < events.size(); ++i) {
        const trace::Event &ev = events[i];
        if (i != skip)
            out += ",";
        out += "{\"kind\":\"";
        out += trace::eventKindName(ev.kind);
        out += "\",\"cycle\":" + std::to_string(ev.cycle);
        out += ",\"tid\":" + std::to_string(ev.tid);
        out += ",\"arg\":" + std::to_string(ev.arg);
        out += ",\"value\":" + std::to_string(ev.value);
        if (forensics) {
            out += ",\"id\":" + std::to_string(ev.id);
            out += ",\"req\":" + std::to_string(ev.req);
        }
        out += "}";
    }
    out += "]";
    return out;
}

/** Reduce @p digest into a row-level blame summary at @p p99. */
ServerBlame
summarizeBlame(const stats::SlowRequestDigest &digest, double p99)
{
    ServerBlame b;
    b.present = true;
    b.k = digest.k();
    b.entries = digest.entries().size();
    std::map<std::uint64_t, std::uint64_t> by_domain;
    std::uint64_t lat_sum = 0;
    std::uint64_t queue_sum = 0;
    for (const stats::SlowRequestEntry &e : digest.entries()) {
        if (static_cast<double>(e.latency) < p99)
            continue;
        ++b.cohort;
        lat_sum += e.latency;
        queue_sum += e.queue;
        ++by_domain[e.domain];
        b.blamedEvents += e.events.size() + e.eventsDropped;
        for (const stats::SlowBlamedEvent &ev : e.events)
            ++b.blamedByKind[ev.kind];
    }
    b.cohortQueueShare =
        lat_sum == 0 ? 0.0
                     : static_cast<double>(queue_sum) /
                           static_cast<double>(lat_sum);
    for (const auto &[domain, count] : by_domain) {
        if (count > b.topDomainEntries) {
            b.topDomain = domain;
            b.topDomainEntries = count;
        }
    }
    return b;
}

/** What a finished replay reports; the one System -> row bridge. */
SchemeResult
resultOf(const core::System &sys)
{
    return {sys.totalCycles(), sys.deniedAccesses.value(),
            stats::toJsonString(sys), eventsToJson(sys),
            sys.scheme().domainProfile().topN(kHotDomainsTopN)};
}

/** The scheme list of a micro point: baseline + lowerbound + extras. */
std::vector<SchemeKind>
microKinds(const std::vector<SchemeKind> &schemes)
{
    std::vector<SchemeKind> all{SchemeKind::NoProtection,
                                SchemeKind::Lowerbound};
    all.insert(all.end(), schemes.begin(), schemes.end());
    return all;
}

/** The fixed Table V scheme set of a WHISPER point. */
std::vector<SchemeKind>
whisperKinds()
{
    return {SchemeKind::NoProtection, SchemeKind::Mpk,
            SchemeKind::MpkVirt, SchemeKind::DomainVirt};
}

/**
 * Poll-and-report loop: counts ready futures every ~200 ms and prints
 * one overwriting stderr line with captures and replays done/total,
 * elapsed and a linear ETA. `run->replays` is only read for runs
 * whose capture already completed — before that the vector is still
 * being populated by the capture task. An empty sweep prints nothing.
 */
void
awaitWithProgress(std::vector<std::future<void>> &captures,
                  std::vector<std::unique_ptr<PointRun>> &runs)
{
    if (captures.empty())
        return;
    using clock = std::chrono::steady_clock;
    const auto start = clock::now();
    std::size_t total = 0;
    for (const auto &run : runs)
        total += run->kinds.size();

    auto last_print = start;
    bool printed = false;
    for (;;) {
        std::size_t captures_done = 0;
        std::size_t replays_done = 0;
        std::size_t replays_known = 0;
        for (std::size_t i = 0; i < captures.size(); ++i) {
            if (captures[i].wait_for(std::chrono::seconds(0)) !=
                std::future_status::ready)
                continue;
            ++captures_done;
            for (auto &f : runs[i]->replays) {
                ++replays_known;
                if (f.wait_for(std::chrono::seconds(0)) ==
                    std::future_status::ready)
                    ++replays_done;
            }
        }
        const bool done = captures_done == captures.size() &&
                          replays_done == replays_known;
        const auto now = clock::now();
        if (done || now - last_print > std::chrono::milliseconds(200)) {
            last_print = now;
            const double elapsed =
                std::chrono::duration<double>(now - start).count();
            const double eta =
                replays_done == 0
                    ? 0.0
                    : elapsed *
                          static_cast<double>(total - replays_done) /
                          static_cast<double>(replays_done);
            std::fprintf(stderr,
                         "\r[exp] captures %zu/%zu  replays %zu/%zu"
                         "  elapsed %.1fs  eta %.1fs ",
                         captures_done, captures.size(), replays_done,
                         total, elapsed, eta);
            std::fflush(stderr);
            printed = true;
        }
        if (done)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    if (printed)
        std::fprintf(stderr, "\n");
}

/**
 * Wait for every capture, then every replay, then rethrow the first
 * stored exception (captures before replays). Waiting on everything
 * before rethrowing keeps no task alive past the runs it references.
 */
void
awaitAll(std::vector<std::future<void>> &captures,
         std::vector<std::unique_ptr<PointRun>> &runs, bool progress)
{
    if (progress)
        awaitWithProgress(captures, runs);
    for (auto &f : captures)
        f.wait();
    for (auto &run : runs) {
        for (auto &f : run->replays)
            f.wait();
    }
    for (auto &f : captures)
        f.get();
    for (auto &run : runs) {
        for (auto &f : run->replays)
            f.get();
    }
}

void
reduceMicro(const MicroPointSpec &spec, const PointRun &run,
            MicroPoint &point)
{
    point.benchmark = spec.benchmark;
    point.numPmos = spec.params.numPmos;
    point.cores = spec.config.topology.numCores;
    point.switchesPerSec = switchesPerSec(run);
    point.lowerboundOverheadPct =
        overheadOver(point.schemes, SchemeKind::Lowerbound,
                     SchemeKind::NoProtection) * 100.0;

    const auto &baseline = systemOf(run, SchemeKind::NoProtection);
    for (SchemeKind k : run.kinds) {
        if (k == SchemeKind::NoProtection || k == SchemeKind::Lowerbound)
            continue;
        const auto &sys = systemOf(run, k);
        point.overheadPct[k] =
            overheadOver(point.schemes, k, SchemeKind::Lowerbound) *
            100.0;
        point.breakdown[k] = computeBreakdown(sys, baseline);
        point.keyRemaps[k] = sys.scheme().keyRemaps.value();
        const auto *bus = sys.shootdownBus();
        point.ipisResponded[k] = bus ? bus->ipisResponded.value() : 0;
    }
}

void
reduceWhisper(const WhisperPointSpec &spec, const PointRun &run,
              WhisperRow &row)
{
    row.benchmark = spec.benchmark;
    row.switchesPerSec = switchesPerSec(run);
    row.overheadMpkPct =
        overheadOver(row.schemes, SchemeKind::Mpk,
                     SchemeKind::NoProtection) * 100.0;
    row.overheadMpkVirtPct =
        overheadOver(row.schemes, SchemeKind::MpkVirt,
                     SchemeKind::NoProtection) * 100.0;
    row.overheadDomainVirtPct =
        overheadOver(row.schemes, SchemeKind::DomainVirt,
                     SchemeKind::NoProtection) * 100.0;
}

/** Quantile summary of one live latency/queue histogram pair. */
void
summarizeLatency(const stats::Histogram *lat, const stats::Histogram *q,
                 std::uint64_t &samples, double &mean, double &p50,
                 double &p99, double &p999, double &queue_p50,
                 double &queue_p99)
{
    if (lat) {
        samples = lat->samples();
        mean = lat->mean();
        p50 = lat->quantile(0.50);
        p99 = lat->quantile(0.99);
        p999 = lat->quantile(0.999);
    }
    if (q) {
        queue_p50 = q->quantile(0.50);
        queue_p99 = q->quantile(0.99);
    }
}

void
reduceServer(const ServerPointSpec &spec, const PointRun &run,
             ServerRow &row)
{
    row.numTenants = spec.params.numTenants;
    row.cores = std::max(1u, spec.config.topology.numCores);
    row.requests = spec.params.numRequests;
    row.meanInterArrivalCycles = spec.params.meanInterArrivalCycles;
    for (SchemeKind k : run.kinds) {
        const core::System &sys = systemOf(run, k);
        ServerLatency lat;
        summarizeLatency(sys.opLatHist(), sys.opQueueHist(), lat.samples,
                         lat.mean, lat.p50, lat.p99, lat.p999,
                         lat.queueP50, lat.queueP99);
        for (unsigned c = 0; c < workloads::ServerWorkload::kNumTenantClasses;
             ++c) {
            ServerClassLatency cls;
            cls.name = workloads::ServerWorkload::tenantClassName(c);
            double unused_mean = 0;
            summarizeLatency(sys.opLatClassHist(c), sys.opQueueClassHist(c),
                             cls.samples, unused_mean, cls.p50, cls.p99,
                             cls.p999, cls.queueP50, cls.queueP99);
            lat.classes.push_back(std::move(cls));
        }
        if (sys.forensicsEnabled())
            row.blame[k] = summarizeBlame(*sys.slowDigest(), lat.p99);
        row.latency[k] = std::move(lat);
    }
}

/**
 * Append every System of @p run to @p exporter (when one is set), one
 * track per scheme named "<point>/<scheme>". Runs on the coordinating
 * thread during reduction, preserving spec order.
 */
void
exportTracks(trace::PerfettoExporter *exporter, const PointRun &run,
             const std::string &point_label)
{
    if (!exporter)
        return;
    for (std::size_t i = 0; i < run.kinds.size(); ++i) {
        const std::string label =
            point_label.empty()
                ? std::string(arch::schemeName(run.kinds[i]))
                : point_label + "/" + arch::schemeName(run.kinds[i]);
        appendSystemTrack(*exporter, *run.systems[i], label);
    }
}

/**
 * One point of a sweep as the pipeline sees it: the schemes to
 * replay, the replay config, the Perfetto track label prefix and the
 * capture producing the trace.
 */
struct PointPlan
{
    std::vector<SchemeKind> kinds;
    core::SimConfig config;
    std::string label;
    std::function<std::shared_ptr<const trace::TraceBuffer>()> capture;
};

/**
 * The pipeline every run* entry point shares. One capture task per
 * planned point captures the trace, then launches one replay task per
 * distinct scheme. Once everything is done, each point's row gets one
 * SchemeResult per System, @p reduce (if any) adds the row-level
 * numbers, and the Systems are exported — on this thread, in spec
 * order.
 */
template <typename Spec, typename Row>
std::vector<Row>
runPipeline(common::ThreadPool &pool, bool progress,
            trace::PerfettoExporter *perfetto,
            const std::vector<Spec> &specs, std::vector<PointPlan> plans,
            void (*reduce)(const Spec &, const PointRun &, Row &))
{
    std::vector<std::unique_ptr<PointRun>> runs;
    std::vector<std::future<void>> captures;
    runs.reserve(plans.size());
    captures.reserve(plans.size());
    for (PointPlan &plan : plans) {
        runs.push_back(std::make_unique<PointRun>());
        PointRun *run = runs.back().get();
        run->kinds = uniqueSchemes(plan.kinds);
        captures.push_back(pool.submit([&pool, run, &plan] {
            run->buffer = plan.capture();
            launchReplays(pool, *run, plan.config);
        }));
    }
    awaitAll(captures, runs, progress);

    std::vector<Row> rows(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const PointRun &run = *runs[i];
        for (std::size_t s = 0; s < run.kinds.size(); ++s)
            rows[i].schemes[run.kinds[s]] = resultOf(*run.systems[s]);
        if (reduce)
            reduce(specs[i], run, rows[i]);
        exportTracks(perfetto, run, plans[i].label);
    }
    return rows;
}

} // namespace

std::vector<MicroPoint>
Executor::runMicro(const std::vector<MicroPointSpec> &specs)
{
    std::vector<PointPlan> plans;
    for (const MicroPointSpec &spec : specs) {
        plans.push_back(
            {microKinds(spec.schemes), spec.config,
             spec.benchmark + "/pmos=" +
                 std::to_string(spec.params.numPmos),
             [spec] {
                 trace::VectorSink sink;
                 workloads::TraceCtx ctx(sink, spec.params.seed);
                 workloads::makeMicro(spec.benchmark, spec.params)
                     ->run(ctx);
                 return trace::TraceBuffer::fromRecords(sink.take());
             }});
    }
    return runPipeline(pool_, progress_, perfetto_, specs,
                       std::move(plans), &reduceMicro);
}

std::vector<WhisperRow>
Executor::runWhisper(const std::vector<WhisperPointSpec> &specs)
{
    std::vector<PointPlan> plans;
    for (const WhisperPointSpec &spec : specs) {
        plans.push_back(
            {whisperKinds(), spec.config, spec.benchmark, [spec] {
                 trace::VectorSink sink;
                 pmo::Namespace ns; // In-memory: pools are ephemeral.
                 workloads::makeWhisper(spec.benchmark, spec.params)
                     ->run(ns, sink);
                 return trace::TraceBuffer::fromRecords(sink.take());
             }});
    }
    return runPipeline(pool_, progress_, perfetto_, specs,
                       std::move(plans), &reduceWhisper);
}

std::vector<ServerRow>
Executor::runServer(const std::vector<ServerPointSpec> &specs)
{
    std::vector<PointPlan> plans;
    for (const ServerPointSpec &spec : specs) {
        // Replays must grow the request-latency histograms the
        // reduction reads, whatever the caller's config says.
        core::SimConfig config = spec.config;
        config.opClasses = workloads::ServerWorkload::kNumTenantClasses;
        plans.push_back(
            {microKinds(spec.schemes), config,
             ServerRow().benchmark + "/tenants=" +
                 std::to_string(spec.params.numTenants),
             [spec] {
                 trace::VectorSink sink;
                 workloads::TraceCtx ctx(sink, spec.params.seed);
                 workloads::ServerWorkload(spec.params).run(ctx);
                 return trace::TraceBuffer::fromRecords(sink.take());
             }});
    }
    return runPipeline(pool_, progress_, perfetto_, specs,
                       std::move(plans), &reduceServer);
}

std::vector<RawPointResult>
Executor::runRaw(const std::vector<RawPointSpec> &specs)
{
    std::vector<PointPlan> plans;
    for (const RawPointSpec &spec : specs) {
        panic_if(!spec.trace, "RawPointSpec without a trace buffer");
        // No workload to capture: the capture task hands over the
        // given buffer and launches the replays.
        plans.push_back({spec.schemes, spec.config,
                         specs.size() == 1
                             ? std::string()
                             : "p" + std::to_string(plans.size()),
                         [trace = spec.trace] { return trace; }});
    }
    return runPipeline<RawPointSpec, RawPointResult>(
        pool_, progress_, perfetto_, specs, std::move(plans), nullptr);
}

RawPointResult
Executor::runRaw(const RawPointSpec &spec)
{
    return runRaw(std::vector<RawPointSpec>{spec}).front();
}

} // namespace pmodv::exp
