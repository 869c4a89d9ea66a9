/**
 * @file
 * The parallel experiment executor.
 *
 * An experiment *point* is one workload configuration replayed under
 * several protection schemes. The executor mirrors the paper's
 * Pin→Sniper flow but parallelizes both of its independent axes:
 *
 *  1. each point's workload trace is captured ONCE into an immutable
 *     shared trace::TraceBuffer (one capture task per point, points
 *     run concurrently), and
 *  2. each per-scheme System pipeline replays that buffer on its own
 *     worker thread via System::replayBatch (one replay task per
 *     (point, scheme)).
 *
 * Every System is constructed, fed and finished by exactly one task,
 * and rows are reduced on the coordinating thread in registration
 * order — so all reported numbers are bit-identical to replaying the
 * same trace through plain core::System objects one after another,
 * regardless of the worker count.
 */

#ifndef PMODV_EXP_EXECUTOR_HH
#define PMODV_EXP_EXECUTOR_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "arch/domain_profile.hh"
#include "common/thread_pool.hh"
#include "core/system.hh"
#include "trace/buffer.hh"
#include "workloads/micro/micro.hh"
#include "workloads/server/server.hh"
#include "workloads/whisper/whisper.hh"

namespace pmodv::trace
{
class PerfettoExporter;
} // namespace pmodv::trace

namespace pmodv::exp
{

// ---------------------------------------------------------------- rows

/**
 * What one finished replay of a point's trace under one scheme
 * reports. Every row type holds one per replayed scheme, baseline
 * included; row-level numbers (overheads, latencies) derive from them.
 */
struct SchemeResult
{
    Cycles cycles = 0;
    std::uint64_t denied = 0; ///< Accesses the scheme refused.
    /** Full stats tree, serialized as compact JSON. */
    std::string statsJson;
    /** Tail of the event ring, as a JSON array. */
    std::string eventsJson;
    /** The scheme's top-N hot domains, ranked. */
    std::vector<arch::HotDomain> hotDomains;

    bool operator==(const SchemeResult &) const = default;
};

/** One result per replayed scheme, ordered by SchemeKind. */
using SchemeResults = std::map<arch::SchemeKind, SchemeResult>;

/** One WHISPER benchmark's Table V row. */
struct WhisperRow
{
    std::string benchmark;
    double switchesPerSec = 0;
    double overheadMpkPct = 0;
    double overheadMpkVirtPct = 0;
    double overheadDomainVirtPct = 0;
    /** Per scheme, incl. the unprotected baseline. */
    SchemeResults schemes;
};

/** Tail-latency summary of one tenant class under one scheme. */
struct ServerClassLatency
{
    std::string name; ///< "hot" / "warm" / "cold".
    std::uint64_t samples = 0;
    double p50 = 0;
    double p99 = 0;
    double p999 = 0;
    double queueP50 = 0;
    double queueP99 = 0;
};

/** Request-latency summary of one scheme on a server point. */
struct ServerLatency
{
    std::uint64_t samples = 0;
    double mean = 0;
    double p50 = 0;
    double p99 = 0;
    double p999 = 0;
    /** Queueing delay (arrival to service start). */
    double queueP50 = 0;
    double queueP99 = 0;
    std::vector<ServerClassLatency> classes;
};

/**
 * Blame summary of one scheme's slow-request digest — computed only
 * when the point ran with tail forensics on (config.slowRequestK > 0).
 * The cohort is the retained digest entries whose latency reaches the
 * scheme's p99, so "why is the p99 bad" reads directly off it.
 */
struct ServerBlame
{
    bool present = false;
    std::uint64_t k = 0;       ///< Digest bound (slowRequestK).
    std::uint64_t entries = 0; ///< Retained digest entries.
    std::uint64_t cohort = 0;  ///< Entries with latency >= p99.
    /** sum(queue) / sum(latency) over the cohort (0 when empty). */
    double cohortQueueShare = 0;
    /** In-window blamed events over the cohort (dropped included). */
    std::uint64_t blamedEvents = 0;
    /** Cohort blamed-event counts by kind name (sorted by key). */
    std::map<std::string, std::uint64_t> blamedByKind;
    /** Domain appearing in the most cohort entries, and that count. */
    std::uint64_t topDomain = 0;
    std::uint64_t topDomainEntries = 0;
};

/** One (tenant-count, core-count) server sweep point's results. */
struct ServerRow
{
    std::string benchmark = "kv";
    unsigned numTenants = 0;
    unsigned cores = 1;
    std::uint64_t requests = 0;
    double meanInterArrivalCycles = 0;
    /** Per scheme, incl. baseline and lowerbound. */
    SchemeResults schemes;
    std::map<arch::SchemeKind, ServerLatency> latency;
    /** Per-scheme blame summaries (present only with forensics on). */
    std::map<arch::SchemeKind, ServerBlame> blame;
};

/** Table VII-style overhead breakdown (percent over lowerbound). */
struct Breakdown
{
    double permissionChangePct = 0;
    double entryChangesPct = 0;
    double tableMissPct = 0;     ///< DTT misses / PTLB misses row.
    double tlbInvalidationPct = 0; ///< Incl. induced TLB misses (MPK virt).
    double accessLatencyPct = 0; ///< Domain virt only.
    double totalPct = 0;
};

/** One (benchmark, pmo-count) sweep point. */
struct MicroPoint
{
    std::string benchmark;
    unsigned numPmos = 0;
    /** Simulated cores of the point's machine (config.topology). */
    unsigned cores = 1;
    double switchesPerSec = 0;
    double lowerboundOverheadPct = 0; ///< Over the unprotected baseline.
    /** Overhead over lowerbound, percent, per scheme. */
    std::map<arch::SchemeKind, double> overheadPct;
    /** Breakdown per proposed scheme. */
    std::map<arch::SchemeKind, Breakdown> breakdown;
    /** Eviction/shootdown counts per scheme (diagnostics). */
    std::map<arch::SchemeKind, std::uint64_t> keyRemaps;
    /** Remote cores charged by shootdown broadcasts (0 on 1 core). */
    std::map<arch::SchemeKind, std::uint64_t> ipisResponded;
    /** Per scheme, incl. baseline and lowerbound. */
    SchemeResults schemes;
};

// --------------------------------------------------------------- specs

/**
 * One microbenchmark sweep point: @p benchmark at @p params under
 * @p schemes. The unprotected baseline and the lowerbound pipelines
 * are always replayed in addition to @p schemes. Every point replays
 * a scheme once, however often it is listed.
 */
struct MicroPointSpec
{
    std::string benchmark;
    workloads::MicroParams params;
    core::SimConfig config;
    std::vector<arch::SchemeKind> schemes;
};

/**
 * One WHISPER benchmark run under the Table V scheme set
 * {none, mpk, mpk_virt, domain_virt}.
 */
struct WhisperPointSpec
{
    std::string benchmark;
    workloads::WhisperParams params;
    core::SimConfig config;
};

/**
 * One open-loop server sweep point: the KV server at @p params under
 * @p schemes (baseline and lowerbound are always added, like the
 * micro points). The executor forces config.opClasses to the server's
 * tenant-class count, so every replay grows the request-latency
 * histograms the reduction reads its quantiles from.
 */
struct ServerPointSpec
{
    workloads::ServerParams params;
    core::SimConfig config;
    std::vector<arch::SchemeKind> schemes;
};

/**
 * A pre-captured trace replayed under @p schemes (no
 * baseline/lowerbound is added; a repeated scheme replays once). Lets
 * ad-hoc experiments (ablations, tools) share the parallel replay
 * machinery.
 */
struct RawPointSpec
{
    /** The captured trace, shared by reference across all replays. */
    std::shared_ptr<const trace::TraceBuffer> trace;
    core::SimConfig config;
    std::vector<arch::SchemeKind> schemes;
};

/** Result of a RawPointSpec: one result per replayed scheme. */
struct RawPointResult
{
    SchemeResults schemes;
};

/** log2 of an overhead percentage, the paper's Figure 6 y-axis. */
double log2Pct(double pct);

/** @p kinds without repeats, in first-occurrence order. */
std::vector<arch::SchemeKind>
uniqueSchemes(const std::vector<arch::SchemeKind> &kinds);

// ------------------------------------------------------------ executor

/**
 * Runs experiment points on a ThreadPool (see file comment for the
 * parallel decomposition). The executor holds no state between run
 * calls; it is a scheduler plus the row-reduction math.
 */
class Executor
{
  public:
    explicit Executor(common::ThreadPool &pool) : pool_(pool) {}

    /**
     * Emit a periodic progress line ("captures done/total, replays
     * done/total, elapsed, ETA") to stderr while waiting for a
     * non-empty batch. Off by default — reports stay clean for
     * piped/CI output.
     */
    void setProgress(bool on) { progress_ = on; }

    /**
     * Append one Perfetto track per (point, scheme) to @p exporter
     * (nullptr disables, the default). Tracks are appended during the
     * single-threaded row reduction in spec order, so the exported
     * trace is byte-identical across worker counts.
     */
    void setPerfettoExporter(trace::PerfettoExporter *exporter)
    {
        perfetto_ = exporter;
    }

    /** Run a batch of points; rows come back in spec order. */
    std::vector<MicroPoint>
    runMicro(const std::vector<MicroPointSpec> &specs);
    std::vector<WhisperRow>
    runWhisper(const std::vector<WhisperPointSpec> &specs);
    std::vector<ServerRow>
    runServer(const std::vector<ServerPointSpec> &specs);
    std::vector<RawPointResult>
    runRaw(const std::vector<RawPointSpec> &specs);

    /** One raw trace point (pmodv-trace replay). */
    RawPointResult runRaw(const RawPointSpec &spec);

    common::ThreadPool &pool() { return pool_; }

  private:
    common::ThreadPool &pool_;
    bool progress_ = false;
    trace::PerfettoExporter *perfetto_ = nullptr;
};

} // namespace pmodv::exp

#endif // PMODV_EXP_EXECUTOR_HH
