/**
 * @file
 * Shared helpers for the table/figure reproduction binaries: a tiny
 * CLI parser (--quick / --full / --ops N / --pmos a,b,c /
 * --cores a,b,c / --jobs N / --json FILE / --dump-stats / --epoch N /
 * --trace-out FILE / --progress) and table formatting utilities.
 */

#ifndef PMODV_BENCH_BENCH_UTIL_HH
#define PMODV_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "exp/suite.hh"
#include "exp/trace_export.hh"

namespace pmodv::bench
{

/** Common options for experiment binaries. */
struct Options
{
    /** Operation/transaction count scale. */
    std::uint64_t ops = 0; ///< 0 = use the binary's default.
    bool quick = false;    ///< Shrink everything for smoke runs.
    bool full = false;     ///< Paper-scale run (slow).
    bool csv = false;      ///< Machine-readable output (plotting).
    std::vector<unsigned> pmoCounts;
    /** Tenant counts for server sweeps (--tenants a,b,c). */
    std::vector<unsigned> tenantCounts;
    /** Simulated core counts (--cores a,b,c); empty = single core. */
    std::vector<unsigned> coreCounts;
    /** Worker threads for the experiment executor; 0 = hardware
     *  concurrency (the common::ThreadPool default). */
    unsigned jobs = 0;
    /** Write the suite's JSON report here ("" = don't). */
    std::string jsonPath;
    /** Print every row's per-scheme stats tree to stdout. */
    bool dumpStats = false;
    /** Cycles per timeline sampling epoch (0 = sampling off). */
    std::uint64_t epochCycles = 0;
    /** Write a Perfetto/Chrome trace-event JSON here ("" = don't). */
    std::string traceOut;
    /** Periodic replay progress on stderr. */
    bool progress = false;
};

/** Parse a comma-separated unsigned list ("1,2,4"). */
inline std::vector<unsigned>
parseUnsignedList(const std::string &list)
{
    std::vector<unsigned> out;
    std::size_t pos = 0;
    while (pos < list.size()) {
        auto comma = list.find(',', pos);
        if (comma == std::string::npos)
            comma = list.size();
        out.push_back(static_cast<unsigned>(
            std::stoul(list.substr(pos, comma - pos))));
        pos = comma + 1;
    }
    return out;
}

/** Print the usage line and exit with @p status (0 for --help). */
[[noreturn]] inline void
usage(const char *argv0, int status)
{
    std::fprintf(status ? stderr : stdout,
                 "usage: %s [--quick|--full] [--csv] [--ops N] "
                 "[--pmos a,b,c] [--tenants a,b,c] [--cores a,b,c] "
                 "[--jobs N] [--json FILE] [--dump-stats] "
                 "[--epoch CYCLES] [--trace-out FILE] [--progress]\n",
                 argv0);
    std::exit(status);
}

/**
 * Parse the common options. An unknown argument, or a value flag with
 * no value after it, prints the usage and exits 2.
 */
inline Options
parseOptions(int argc, char **argv)
{
    Options opt;
    auto value = [&](int &i) {
        if (i + 1 == argc) {
            std::fprintf(stderr, "error: %s needs a value\n", argv[i]);
            usage(argv[0], 2);
        }
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            opt.quick = true;
        } else if (arg == "--full") {
            opt.full = true;
        } else if (arg == "--csv") {
            opt.csv = true;
        } else if (arg == "--ops") {
            opt.ops = std::strtoull(value(i), nullptr, 10);
        } else if (arg == "--jobs") {
            // Saturate, not wrap: "-1" or 2^32 must reach the
            // ThreadPool bound check rather than become 0 or huge.
            opt.jobs = static_cast<unsigned>(std::min<unsigned long>(
                std::strtoul(value(i), nullptr, 10), UINT_MAX));
        } else if (arg == "--json") {
            opt.jsonPath = value(i);
        } else if (arg == "--dump-stats") {
            opt.dumpStats = true;
        } else if (arg == "--epoch") {
            opt.epochCycles = std::strtoull(value(i), nullptr, 10);
        } else if (arg == "--trace-out") {
            opt.traceOut = value(i);
        } else if (arg == "--progress") {
            opt.progress = true;
        } else if (arg == "--pmos") {
            opt.pmoCounts = parseUnsignedList(value(i));
        } else if (arg == "--tenants") {
            opt.tenantCounts = parseUnsignedList(value(i));
        } else if (arg == "--cores") {
            opt.coreCounts = parseUnsignedList(value(i));
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0], 0);
        } else {
            std::fprintf(stderr, "error: unknown argument '%s'\n",
                         argv[i]);
            usage(argv[0], 2);
        }
    }
    return opt;
}

/**
 * Exit 2 when a report flag (--json, --dump-stats, --epoch,
 * --trace-out) was given to a binary that writes no suite report.
 */
inline void
rejectReportFlags(const Options &opt, const char *argv0)
{
    if (opt.jsonPath.empty() && !opt.dumpStats && opt.epochCycles == 0 &&
        opt.traceOut.empty())
        return;
    std::fprintf(stderr,
                 "error: %s writes no suite report; --json, "
                 "--dump-stats, --epoch and --trace-out are not "
                 "supported\n",
                 argv0);
    std::exit(2);
}

/**
 * Honor --epoch / --trace-out on a point's SimConfig. Call on each
 * spec's config BEFORE registering it with the suite (specs are
 * copied at add()). --trace-out implies epoch sampling (so the trace
 * has counter tracks) and a wide event ring (so transaction spans
 * survive to the export).
 */
inline void
applyObservability(core::SimConfig &config, const Options &opt)
{
    std::uint64_t epoch = opt.epochCycles;
    if (!opt.traceOut.empty()) {
        config.eventRingCapacity = 65536;
        if (epoch == 0)
            epoch = 65536;
    }
    if (epoch != 0) {
        config.samplingEpochCycles = epoch;
        config.samplingMaxEpochs = 256;
    }
}

/**
 * Owns the bench binary's optional Perfetto exporter and wires
 * --progress / --trace-out into the suite. Construct (on the stack)
 * before suite.run(), call writeTrace() after it.
 */
class Profiler
{
  public:
    Profiler(exp::ExperimentSuite &suite, const core::SimConfig &config,
             const Options &opt)
        : exporter_(exp::makeExporter(config)), opt_(opt)
    {
        suite.setProgress(opt.progress);
        if (!opt.traceOut.empty())
            suite.setPerfettoExporter(&exporter_);
    }

    /** Honor --trace-out (warn to stderr on failure). */
    void writeTrace() const
    {
        if (opt_.traceOut.empty())
            return;
        std::ofstream out(opt_.traceOut);
        if (!out) {
            std::fprintf(stderr, "error: cannot write trace to %s\n",
                         opt_.traceOut.c_str());
            return;
        }
        exporter_.write(out);
        std::fprintf(stderr,
                     "[trace] wrote %zu events on %zu tracks to %s\n",
                     exporter_.numEvents(), exporter_.numTracks(),
                     opt_.traceOut.c_str());
    }

  private:
    trace::PerfettoExporter exporter_;
    const Options &opt_;
};

/** Horizontal rule sized to a table width. */
inline void
rule(unsigned width)
{
    for (unsigned i = 0; i < width; ++i)
        std::fputc('-', stdout);
    std::fputc('\n', stdout);
}

/** The PMO-count sweep used by Figures 6/7 (paper: 16..1024). */
inline std::vector<unsigned>
defaultSweep(const Options &opt)
{
    if (!opt.pmoCounts.empty())
        return opt.pmoCounts;
    if (opt.quick)
        return {16, 128, 1024};
    if (opt.full)
        return {16, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024};
    return {16, 32, 64, 128, 256, 512, 1024};
}

/** Honor --json: write the suite's report (warn to stderr on failure). */
inline void
writeJsonIfRequested(const exp::ExperimentSuite &suite,
                     const Options &opt)
{
    if (opt.jsonPath.empty())
        return;
    if (!suite.writeJsonFile(opt.jsonPath)) {
        std::fprintf(stderr, "error: cannot write JSON report to %s\n",
                     opt.jsonPath.c_str());
    }
}

/**
 * Honor --dump-stats: print each row's per-scheme stats tree (the
 * same compact JSON embedded in --json reports) to stdout.
 */
inline void
dumpStatsIfRequested(const exp::ExperimentSuite &suite,
                     const Options &opt)
{
    if (!opt.dumpStats)
        return;
    for (const exp::MicroPoint &pt : suite.microRows()) {
        for (const auto &[kind, r] : pt.schemes) {
            std::printf("# stats %s pmos=%u %s\n%s\n",
                        pt.benchmark.c_str(), pt.numPmos,
                        arch::schemeName(kind), r.statsJson.c_str());
        }
    }
    for (const exp::WhisperRow &row : suite.whisperRows()) {
        for (const auto &[kind, r] : row.schemes) {
            std::printf("# stats %s %s\n%s\n", row.benchmark.c_str(),
                        arch::schemeName(kind), r.statsJson.c_str());
        }
    }
    for (const exp::ServerRow &row : suite.serverRows()) {
        for (const auto &[kind, r] : row.schemes) {
            std::printf("# stats %s tenants=%u %s\n%s\n",
                        row.benchmark.c_str(), row.numTenants,
                        arch::schemeName(kind), r.statsJson.c_str());
        }
    }
}

} // namespace pmodv::bench

#endif // PMODV_BENCH_BENCH_UTIL_HH
