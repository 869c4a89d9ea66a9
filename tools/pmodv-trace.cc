/**
 * @file
 * pmodv-trace: inspect and replay binary trace files.
 *
 *   pmodv-trace capture <out.trc> <bench> [--pmos N] [--ops N]
 *       Generate a benchmark trace into a file. <bench> is one of
 *       the five microbenchmarks (avl/rbt/bt/ll/ss) or "kv", the
 *       open-loop multi-tenant KV server whose stamped arrivals make
 *       the trace explainable (--pmos doubles as the tenant count).
 *   pmodv-trace info <file.trc>
 *       Print record counts, access mix and switch statistics.
 *   pmodv-trace dump <file.trc> [--limit N]
 *       Print records in human-readable form.
 *   pmodv-trace convert <in.trc> <out.trc>
 *       Rewrite a trace in the current (v2) format. Upgrades legacy
 *       v1 files to the mmap-able checksummed layout.
 *   pmodv-trace replay <file.trc> [--scheme name]... [--jobs N]
 *                      [--trace-out out.json] [--epoch CYCLES]
 *                      [--progress]
 *       Replay under one or more protection schemes (one worker
 *       thread per scheme pipeline) and report cycles + overheads
 *       plus a per-scheme hot-domain table (default: all six
 *       schemes). --trace-out writes a Chrome trace-event JSON
 *       (loadable in Perfetto / chrome://tracing) with one track per
 *       scheme; it enables epoch sampling (--epoch, default 65536
 *       cycles) for the counter tracks and widens the event ring so
 *       transaction spans survive.
 *   pmodv-trace explain <suite.json> [--scheme name]
 *   pmodv-trace explain --replay <file.trc> [--scheme name]...
 *                       [--jobs N] [--k K] [--classes N]
 *       Print a tail-latency blame report from the slow-request
 *       digests: the p99 cohort's latency broken down into queueing,
 *       the seven service buckets and the residue, the domains and
 *       tenant classes that dominate the cohort, and the top-K
 *       request chains with their blamed events. The first form reads
 *       the digests out of a suite --json file (rows written with
 *       forensics on, i.e. config.slowRequestK > 0); the second
 *       replays a v2 trace with forensics enabled and explains the
 *       result. The report carries no environment fields, so reports
 *       from --jobs 1 and --jobs N runs compare byte for byte.
 */

#include <algorithm>
#include <array>
#include <climits>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/thread_pool.hh"
#include "exp/executor.hh"
#include "exp/trace_export.hh"
#include "stats/slow_digest.hh"
#include "stats/stats.hh"
#include "trace/trace_file.hh"
#include "workloads/micro/micro.hh"
#include "workloads/server/server.hh"

using namespace pmodv;

namespace
{

/**
 * A --jobs value, saturated rather than wrapped to unsigned, so "-1"
 * or 2^32 reaches the ThreadPool bound check instead of becoming a
 * huge or zero worker count.
 */
unsigned
parseJobs(const char *arg)
{
    return static_cast<unsigned>(std::min<unsigned long>(
        std::strtoul(arg, nullptr, 10), UINT_MAX));
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: pmodv-trace capture <out.trc> <avl|rbt|bt|ll|ss|kv> "
        "[--pmos N] [--ops N]\n"
        "       pmodv-trace info <file.trc>\n"
        "       pmodv-trace dump <file.trc> [--limit N]\n"
        "       pmodv-trace convert <in.trc> <out.trc>\n"
        "       pmodv-trace replay <file.trc> [--scheme name]...\n"
        "           [--jobs N] [--trace-out out.json] [--epoch CYCLES]\n"
        "           [--progress]\n"
        "       pmodv-trace explain <suite.json> [--scheme name]\n"
        "       pmodv-trace explain --replay <file.trc>\n"
        "           [--scheme name]... [--jobs N] [--k K] "
        "[--classes N]\n");
    return 2;
}

int
cmdCapture(int argc, char **argv)
{
    if (argc < 4)
        return usage();
    const std::string path = argv[2];
    const std::string bench = argv[3];
    workloads::MicroParams params;
    params.numPmos = 64;
    params.numOps = 20'000;
    params.initialNodes = 1024;
    for (int i = 4; i + 1 < argc; i += 2) {
        if (!std::strcmp(argv[i], "--pmos"))
            params.numPmos =
                static_cast<unsigned>(std::strtoul(argv[i + 1],
                                                   nullptr, 10));
        else if (!std::strcmp(argv[i], "--ops"))
            params.numOps = std::strtoull(argv[i + 1], nullptr, 10);
    }
    trace::TraceFileWriter writer(path);
    if (bench == "kv") {
        // The open-loop KV server stamps every request with its
        // arrival cycle, so the resulting trace feeds the forensics
        // path (`explain --replay`). --pmos maps onto tenants and
        // --ops onto requests.
        workloads::ServerParams sp;
        sp.numTenants = params.numPmos;
        sp.numRequests = params.numOps;
        workloads::TraceCtx ctx(writer, sp.seed);
        workloads::ServerWorkload(sp).run(ctx);
    } else {
        workloads::TraceCtx ctx(writer, params.seed);
        workloads::makeMicro(bench, params)->run(ctx);
    }
    std::printf("wrote %llu records to %s\n",
                static_cast<unsigned long long>(writer.recordsWritten()),
                path.c_str());
    return 0;
}

int
cmdInfo(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    trace::TraceFileReader reader(argv[2]);
    // view() verifies the checksum for v2 files and hands back the
    // one-pass summary; no per-record counting pass needed.
    const auto buf = reader.view();
    const trace::TraceSummary &summary = buf->summary();
    std::printf("format version:       %u\n", reader.version());
    std::printf("records:              %llu\n",
                static_cast<unsigned long long>(reader.recordCount()));
    std::printf("instructions:         %llu\n",
                static_cast<unsigned long long>(
                    summary.totalInstructions()));
    std::printf("memory accesses:      %llu (%llu to PMOs)\n",
                static_cast<unsigned long long>(summary.memAccesses()),
                static_cast<unsigned long long>(summary.pmoAccesses));
    std::printf("permission switches:  %llu\n",
                static_cast<unsigned long long>(
                    summary.permissionSwitches()));
    std::printf("attaches / detaches:  %llu / %llu\n",
                static_cast<unsigned long long>(
                    summary.count(trace::RecordType::Attach)),
                static_cast<unsigned long long>(
                    summary.count(trace::RecordType::Detach)));
    std::printf("operations:           %llu\n",
                static_cast<unsigned long long>(summary.operations()));
    std::printf("thread switches:      %llu\n",
                static_cast<unsigned long long>(
                    summary.count(trace::RecordType::ThreadSwitch)));
    return 0;
}

int
cmdDump(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    std::uint64_t limit = 100;
    for (int i = 3; i + 1 < argc; i += 2) {
        if (!std::strcmp(argv[i], "--limit"))
            limit = std::strtoull(argv[i + 1], nullptr, 10);
    }
    trace::TraceFileReader reader(argv[2]);
    trace::TraceRecord rec;
    std::uint64_t n = 0;
    while (n < limit && reader.next(rec)) {
        std::printf("%8llu  %s\n", static_cast<unsigned long long>(n),
                    trace::toString(rec).c_str());
        ++n;
    }
    // Read past the limit too: at the end of the trace next() checks
    // the whole body against the header.
    while (reader.next(rec)) {
    }
    if (n == limit && reader.recordCount() > limit) {
        std::printf("... (%llu more records)\n",
                    static_cast<unsigned long long>(
                        reader.recordCount() - limit));
    }
    return 0;
}

int
cmdConvert(int argc, char **argv)
{
    if (argc < 4)
        return usage();
    trace::TraceFileReader reader(argv[2]);
    const unsigned in_version = reader.version();
    trace::TraceFileWriter writer(argv[3]);
    // Stream record by record: converting must not materialize the
    // whole input in memory (v1 traces can be arbitrarily large).
    trace::TraceRecord rec;
    std::uint64_t n = 0;
    while (reader.next(rec)) {
        writer.put(rec);
        ++n;
    }
    writer.finish();
    std::printf("converted %llu records (v%u -> v%u) to %s\n",
                static_cast<unsigned long long>(n), in_version,
                trace::kTraceVersion, argv[3]);
    return 0;
}

int
cmdReplay(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    std::vector<arch::SchemeKind> schemes;
    unsigned jobs = 0; // 0 = hardware concurrency.
    std::string trace_out;
    Cycles epoch = 0; // 0 = sampling off (unless --trace-out).
    bool progress = false;
    for (int i = 3; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--scheme") && i + 1 < argc)
            schemes.push_back(arch::schemeFromName(argv[++i]));
        else if (!std::strcmp(argv[i], "--jobs") && i + 1 < argc)
            jobs = parseJobs(argv[++i]);
        else if (!std::strcmp(argv[i], "--trace-out") && i + 1 < argc)
            trace_out = argv[++i];
        else if (!std::strcmp(argv[i], "--epoch") && i + 1 < argc)
            epoch = std::strtoull(argv[++i], nullptr, 10);
        else if (!std::strcmp(argv[i], "--progress"))
            progress = true;
        else
            return usage();
    }
    // Counter tracks need epoch sampling; pick a default when the
    // user asked for a trace but no epoch width.
    if (!trace_out.empty() && epoch == 0)
        epoch = 65536;
    if (schemes.empty()) {
        schemes = {arch::SchemeKind::NoProtection,
                   arch::SchemeKind::Lowerbound,
                   arch::SchemeKind::Mpk,
                   arch::SchemeKind::LibMpk,
                   arch::SchemeKind::MpkVirt,
                   arch::SchemeKind::DomainVirt};
    }
    // Always include the baseline so overheads are reportable, and
    // report a repeated scheme once, as the executor replays it once.
    if (std::find(schemes.begin(), schemes.end(),
                  arch::SchemeKind::NoProtection) == schemes.end()) {
        schemes.insert(schemes.begin(),
                       arch::SchemeKind::NoProtection);
    }
    schemes = exp::uniqueSchemes(schemes);

    // Load the trace once (zero-copy mmap for v2 files), then fan the
    // scheme pipelines out over the pool (one worker per System).
    exp::RawPointSpec spec;
    {
        trace::TraceFileReader reader(argv[2]);
        spec.trace = reader.view();
    }
    spec.schemes = schemes;
    if (epoch != 0) {
        spec.config.samplingEpochCycles = epoch;
        spec.config.samplingMaxEpochs = 256;
    }
    if (!trace_out.empty()) {
        // Keep enough events for the trace's transaction spans.
        spec.config.eventRingCapacity = 65536;
    }

    common::ThreadPool pool(jobs);
    exp::Executor executor(pool);
    executor.setProgress(progress);
    trace::PerfettoExporter exporter = exp::makeExporter(spec.config);
    if (!trace_out.empty())
        executor.setPerfettoExporter(&exporter);
    const exp::RawPointResult res = executor.runRaw(spec);

    if (!trace_out.empty()) {
        std::ofstream out(trace_out);
        if (!out) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         trace_out.c_str());
            return 1;
        }
        exporter.write(out);
        std::fprintf(stderr, "[trace] wrote %zu events on %zu tracks "
                     "to %s\n", exporter.numEvents(),
                     exporter.numTracks(), trace_out.c_str());
    }

    std::printf("%-14s %16s %16s %10s\n", "scheme", "cycles",
                "vs baseline(%)", "denied");
    const double base = static_cast<double>(
        res.schemes.at(arch::SchemeKind::NoProtection).cycles);
    for (arch::SchemeKind kind : schemes) {
        const exp::SchemeResult &r = res.schemes.at(kind);
        const double cycles = static_cast<double>(r.cycles);
        std::printf("%-14s %16llu %16.2f %10llu\n",
                    arch::schemeName(kind),
                    static_cast<unsigned long long>(r.cycles),
                    base == 0 ? 0.0 : (cycles - base) / base * 100.0,
                    static_cast<unsigned long long>(r.denied));
    }
    // Where did the protection overhead land?  The baseline scheme
    // tracks no domains, so skip it.
    for (arch::SchemeKind kind : schemes) {
        if (kind == arch::SchemeKind::NoProtection)
            continue;
        const std::vector<arch::HotDomain> &hot =
            res.schemes.at(kind).hotDomains;
        if (hot.empty())
            continue;
        std::printf("\nhot domains (%s):\n", arch::schemeName(kind));
        exp::printHotDomains(std::cout, hot);
    }
    return 0;
}

// ------------------------------------------------------------- explain

/**
 * Depth-first search for a "slow_requests" digest object inside a
 * parsed stats tree (it lives at the System group's top level today,
 * but the report should not depend on the nesting).
 */
const common::JsonValue *
findSlowDigest(const common::JsonValue &node)
{
    if (!node.isObject())
        return nullptr;
    for (const auto &[key, value] : node.object()) {
        if (key == "slow_requests" && value.isObject() &&
            value.find("entries"))
            return &value;
        if (const common::JsonValue *hit = findSlowDigest(value))
            return hit;
    }
    return nullptr;
}

/** Recursive lookup of a named histogram object in a stats tree. */
const common::JsonValue *
findHistogram(const common::JsonValue &node, const std::string &name)
{
    if (!node.isObject())
        return nullptr;
    for (const auto &[key, value] : node.object()) {
        if (key == name && value.isObject() && value.find("buckets"))
            return &value;
        if (const common::JsonValue *hit = findHistogram(value, name))
            return hit;
    }
    return nullptr;
}

/** p99 recomputed from an exported histogram object (bit-identical to
 *  the live Histogram::quantile — both run quantileFromBuckets). */
double
histogramP99(const common::JsonValue &hist)
{
    std::vector<stats::BucketCount> buckets;
    for (const common::JsonValue &b : hist.at("buckets").array()) {
        stats::BucketCount bc;
        bc.lo = b.at("lo").asU64();
        if (const common::JsonValue *hi = b.find("hi"))
            bc.hi = hi->asU64();
        bc.count = b.at("count").asU64();
        buckets.push_back(bc);
    }
    return stats::quantileFromBuckets(hist.at("samples").asU64(),
                                      hist.at("min").asU64(),
                                      hist.at("max").asU64(), buckets,
                                      0.99);
}

/** One digest entry re-read from JSON for report math. */
struct ExplainEntry
{
    std::uint64_t id = 0;
    std::uint64_t tid = 0;
    std::uint64_t domain = 0;
    std::uint64_t cls = 0;
    std::uint64_t latency = 0;
    std::uint64_t queue = 0;
    std::uint64_t residue = 0;
    std::array<std::uint64_t, stats::kSlowDigestBuckets> buckets{};
    struct Ev
    {
        std::uint64_t id = 0;
        std::string kind;
        std::uint64_t cycle = 0;
    };
    std::vector<Ev> events;
    std::uint64_t eventsDropped = 0;
};

std::vector<ExplainEntry>
parseEntries(const common::JsonValue &digest)
{
    std::vector<ExplainEntry> out;
    for (const common::JsonValue &e : digest.at("entries").array()) {
        ExplainEntry entry;
        entry.id = e.at("id").asU64();
        entry.tid = e.at("tid").asU64();
        entry.domain = e.at("domain").asU64();
        entry.cls = e.at("class").asU64();
        entry.latency = e.at("latency").asU64();
        entry.queue = e.at("queue").asU64();
        entry.residue = e.at("residue").asU64();
        const common::JsonValue &buckets = e.at("buckets");
        for (std::size_t b = 0; b < stats::kSlowDigestBuckets; ++b)
            entry.buckets[b] =
                buckets.at(stats::kSlowDigestBucketNames[b]).asU64();
        for (const common::JsonValue &ev : e.at("events").array()) {
            ExplainEntry::Ev x;
            x.id = ev.at("id").asU64();
            x.kind = ev.at("kind").str();
            x.cycle = ev.at("cycle").asU64();
            entry.events.push_back(std::move(x));
        }
        entry.eventsDropped = e.at("events_dropped").asU64();
        out.push_back(std::move(entry));
    }
    return out;
}

std::string
explainClassName(const std::vector<std::string> &names,
                 std::uint64_t cls)
{
    if (cls < names.size())
        return names[cls];
    return "class" + std::to_string(cls);
}

/**
 * The blame report for one scheme: cohort shares, top domains and
 * classes, then the request chains. @p p99 selects the cohort (0 =
 * unknown, every retained entry qualifies); @p class_names maps class
 * indices to tenant-class names when the caller knows them.
 */
void
printSchemeBlame(const std::string &scheme,
                 const common::JsonValue &digest, double p99,
                 const std::vector<std::string> &class_names)
{
    const std::vector<ExplainEntry> entries = parseEntries(digest);
    std::printf("=== scheme %s ===\n", scheme.c_str());
    std::printf("digest: k=%llu entries=%zu offered=%llu\n",
                static_cast<unsigned long long>(digest.at("k").asU64()),
                entries.size(),
                static_cast<unsigned long long>(
                    digest.at("offered").asU64()));
    if (p99 > 0)
        std::printf("p99 latency: %.0f cycles\n", p99);

    std::vector<const ExplainEntry *> cohort;
    for (const ExplainEntry &e : entries) {
        if (p99 <= 0 || static_cast<double>(e.latency) >= p99)
            cohort.push_back(&e);
    }
    std::printf("p99 cohort: %zu of %zu retained requests\n",
                cohort.size(), entries.size());
    if (cohort.empty()) {
        std::printf("\n");
        return;
    }

    // Exact partition: queue + the seven buckets + residue = latency
    // per request, so the cohort sums partition the cohort latency.
    std::uint64_t lat_sum = 0, queue_sum = 0, residue_sum = 0;
    std::array<std::uint64_t, stats::kSlowDigestBuckets> bucket_sum{};
    std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>>
        by_domain; // domain -> (entries, blamed events).
    std::map<std::uint64_t, std::uint64_t> by_class;
    std::map<std::string, std::uint64_t> by_kind;
    for (const ExplainEntry *e : cohort) {
        lat_sum += e->latency;
        queue_sum += e->queue;
        residue_sum += e->residue;
        for (std::size_t b = 0; b < stats::kSlowDigestBuckets; ++b)
            bucket_sum[b] += e->buckets[b];
        auto &d = by_domain[e->domain];
        d.first += 1;
        d.second += e->events.size() + e->eventsDropped;
        by_class[e->cls] += 1;
        for (const ExplainEntry::Ev &ev : e->events)
            by_kind[ev.kind] += 1;
    }
    const double lat = static_cast<double>(lat_sum);
    const auto pct = [lat](std::uint64_t part) {
        return lat == 0 ? 0.0 : 100.0 * static_cast<double>(part) / lat;
    };
    std::printf("cohort latency partition (%llu cycles total):\n",
                static_cast<unsigned long long>(lat_sum));
    std::printf("  %-16s %8.1f%%\n", "queueing", pct(queue_sum));
    for (std::size_t b = 0; b < stats::kSlowDigestBuckets; ++b) {
        std::printf("  %-16s %8.1f%%\n",
                    stats::kSlowDigestBucketNames[b], pct(bucket_sum[b]));
    }
    std::printf("  %-16s %8.1f%%\n", "residue", pct(residue_sum));

    // Domains ranked by cohort presence (count desc, domain asc).
    std::vector<std::pair<std::uint64_t,
                          std::pair<std::uint64_t, std::uint64_t>>>
        domains(by_domain.begin(), by_domain.end());
    std::sort(domains.begin(), domains.end(),
              [](const auto &a, const auto &b) {
                  if (a.second.first != b.second.first)
                      return a.second.first > b.second.first;
                  return a.first < b.first;
              });
    std::printf("top blamed domains:\n");
    for (std::size_t i = 0; i < domains.size() && i < 5; ++i) {
        std::printf("  domain %-8llu %llu requests, %llu blamed "
                    "events\n",
                    static_cast<unsigned long long>(domains[i].first),
                    static_cast<unsigned long long>(
                        domains[i].second.first),
                    static_cast<unsigned long long>(
                        domains[i].second.second));
    }
    std::printf("tenant classes in cohort:\n");
    for (const auto &[cls, count] : by_class) {
        std::printf("  %-16s %llu requests\n",
                    explainClassName(class_names, cls).c_str(),
                    static_cast<unsigned long long>(count));
    }
    if (!by_kind.empty()) {
        std::printf("blamed events by kind:\n");
        for (const auto &[kind, count] : by_kind) {
            std::printf("  %-16s %llu\n", kind.c_str(),
                        static_cast<unsigned long long>(count));
        }
    }

    std::printf("slow request chains:\n");
    std::size_t rank = 0;
    for (const ExplainEntry *e : cohort) {
        ++rank;
        const double share =
            e->latency == 0
                ? 0.0
                : 100.0 * static_cast<double>(e->queue) /
                      static_cast<double>(e->latency);
        std::printf("  #%zu req=%llu %s domain=%llu latency=%llu "
                    "queue=%llu (%.0f%%)\n",
                    rank, static_cast<unsigned long long>(e->id),
                    explainClassName(class_names, e->cls).c_str(),
                    static_cast<unsigned long long>(e->domain),
                    static_cast<unsigned long long>(e->latency),
                    static_cast<unsigned long long>(e->queue), share);
        if (!e->events.empty()) {
            std::string chain;
            for (const ExplainEntry::Ev &ev : e->events) {
                if (!chain.empty())
                    chain += " -> ";
                chain += ev.kind + "@" + std::to_string(ev.cycle) +
                         "(id " + std::to_string(ev.id) + ")";
            }
            if (e->eventsDropped) {
                chain += " (+" + std::to_string(e->eventsDropped) +
                         " dropped)";
            }
            std::printf("     %s\n", chain.c_str());
        }
    }
    std::printf("\n");
}

/** Explain every forensics-enabled scheme of one suite server row. */
int
explainServerRow(const common::JsonValue &row,
                 const std::string &only_scheme)
{
    std::printf("server row: tenants=%llu cores=%llu requests=%llu\n\n",
                static_cast<unsigned long long>(
                    row.at("tenants").asU64()),
                static_cast<unsigned long long>(row.at("cores").asU64()),
                static_cast<unsigned long long>(
                    row.at("requests").asU64()));
    const common::JsonValue &latency = row.at("latency");
    const common::JsonValue &stats = row.at("stats");
    int explained = 0;
    for (const auto &[scheme, lat] : latency.object()) {
        if (!only_scheme.empty() && scheme != only_scheme)
            continue;
        const common::JsonValue *tree = stats.find(scheme);
        if (!tree)
            continue;
        const common::JsonValue *digest = findSlowDigest(*tree);
        if (!digest)
            continue;
        std::vector<std::string> class_names;
        if (const common::JsonValue *classes = lat.find("classes")) {
            for (const common::JsonValue &c : classes->array())
                class_names.push_back(c.at("class").str());
        }
        printSchemeBlame(scheme, *digest, lat.at("p99").number(),
                         class_names);
        ++explained;
    }
    return explained;
}

int
cmdExplain(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    std::string input;
    std::string replay_trc;
    std::vector<arch::SchemeKind> schemes;
    std::string only_scheme;
    unsigned jobs = 0;
    unsigned k = 8;
    unsigned classes = 4;
    for (int i = 2; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--replay") && i + 1 < argc)
            replay_trc = argv[++i];
        else if (!std::strcmp(argv[i], "--scheme") && i + 1 < argc) {
            only_scheme = argv[++i];
            schemes.push_back(arch::schemeFromName(only_scheme));
        } else if (!std::strcmp(argv[i], "--jobs") && i + 1 < argc)
            jobs = parseJobs(argv[++i]);
        else if (!std::strcmp(argv[i], "--k") && i + 1 < argc)
            k = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
        else if (!std::strcmp(argv[i], "--classes") && i + 1 < argc)
            classes = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
        else if (argv[i][0] != '-' && input.empty())
            input = argv[i];
        else
            return usage();
    }

    if (!replay_trc.empty()) {
        // Replay the trace with forensics on and explain the result.
        if (schemes.empty()) {
            schemes = {arch::SchemeKind::Mpk, arch::SchemeKind::LibMpk,
                       arch::SchemeKind::MpkVirt,
                       arch::SchemeKind::DomainVirt};
        }
        schemes = exp::uniqueSchemes(schemes);
        exp::RawPointSpec spec;
        {
            trace::TraceFileReader reader(replay_trc);
            spec.trace = reader.view();
        }
        spec.schemes = schemes;
        spec.config.opClasses = classes;
        spec.config.slowRequestK = k;
        common::ThreadPool pool(jobs);
        exp::Executor executor(pool);
        const exp::RawPointResult res = executor.runRaw(spec);
        int explained = 0;
        for (arch::SchemeKind kind : schemes) {
            const std::string name = arch::schemeName(kind);
            std::string error;
            const auto tree =
                common::parseJson(res.schemes.at(kind).statsJson, &error);
            if (!tree) {
                std::fprintf(stderr, "error: bad stats JSON (%s): %s\n",
                             name.c_str(), error.c_str());
                return 1;
            }
            const common::JsonValue *digest = findSlowDigest(*tree);
            if (!digest)
                continue;
            // Cohort threshold: p99 of the replay's own op_lat
            // histogram, recomputed from the exported buckets.
            const common::JsonValue *lat = findHistogram(*tree, "op_lat");
            printSchemeBlame(name, *digest,
                             lat ? histogramP99(*lat) : 0.0, {});
            ++explained;
        }
        if (explained == 0) {
            std::fprintf(stderr, "error: no slow-request digests "
                         "captured (does the trace carry stamped "
                         "OpBegin records?)\n");
            return 1;
        }
        return 0;
    }

    if (input.empty())
        return usage();
    std::string error;
    const auto doc = common::parseJsonFile(input, &error);
    if (!doc) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 1;
    }
    const common::JsonValue *server = doc->find("server");
    if (!server || !server->isArray() || server->size() == 0) {
        std::fprintf(stderr, "error: %s has no server rows to "
                     "explain\n", input.c_str());
        return 1;
    }
    int explained = 0;
    for (const common::JsonValue &row : server->array())
        explained += explainServerRow(row, only_scheme);
    if (explained == 0) {
        std::fprintf(stderr, "error: no slow-request digests in %s "
                     "(was the suite run with forensics on, i.e. "
                     "config.slowRequestK > 0?)\n", input.c_str());
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    if (cmd == "capture")
        return cmdCapture(argc, argv);
    if (cmd == "info")
        return cmdInfo(argc, argv);
    if (cmd == "dump")
        return cmdDump(argc, argv);
    if (cmd == "convert")
        return cmdConvert(argc, argv);
    if (cmd == "replay")
        return cmdReplay(argc, argv);
    if (cmd == "explain")
        return cmdExplain(argc, argv);
    return usage();
}
