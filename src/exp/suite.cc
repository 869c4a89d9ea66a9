#include "exp/suite.hh"

#include <chrono>
#include <fstream>
#include <ostream>

#include "common/json.hh"
#include "exp/trace_export.hh"

namespace pmodv::exp
{

using arch::SchemeKind;

std::vector<MicroPointSpec>
SweepSpec::points() const
{
    const std::vector<std::string> &names =
        benchmarks.empty() ? workloads::microNames() : benchmarks;
    // An empty core axis means "whatever the config says" — one grid.
    const std::vector<unsigned> cores =
        coreCounts.empty() ? std::vector<unsigned>{0} : coreCounts;
    std::vector<MicroPointSpec> out;
    out.reserve(names.size() * pmoCounts.size() * cores.size());
    for (const std::string &name : names) {
        for (unsigned pmos : pmoCounts) {
            for (unsigned k : cores) {
                MicroPointSpec spec;
                spec.benchmark = name;
                spec.params = base;
                spec.params.numPmos = pmos;
                spec.config = config;
                if (k != 0) {
                    spec.config.topology.numCores = k;
                    spec.params.numThreads = k;
                }
                spec.schemes = schemes;
                out.push_back(std::move(spec));
            }
        }
    }
    return out;
}

std::vector<ServerPointSpec>
ServerSweepSpec::points() const
{
    const std::vector<unsigned> cores =
        coreCounts.empty() ? std::vector<unsigned>{0} : coreCounts;
    std::vector<ServerPointSpec> out;
    out.reserve(tenantCounts.size() * cores.size());
    for (unsigned tenants : tenantCounts) {
        for (unsigned k : cores) {
            ServerPointSpec spec;
            spec.params = base;
            spec.params.numTenants = tenants;
            spec.config = config;
            if (k != 0) {
                spec.config.topology.numCores = k;
                spec.params.numThreads = k;
            }
            spec.schemes = schemes;
            out.push_back(std::move(spec));
        }
    }
    return out;
}

std::size_t
ExperimentSuite::add(MicroPointSpec spec)
{
    micro_.push_back(std::move(spec));
    return micro_.size() - 1;
}

std::size_t
ExperimentSuite::add(WhisperPointSpec spec)
{
    whisper_.push_back(std::move(spec));
    return whisper_.size() - 1;
}

std::size_t
ExperimentSuite::add(ServerPointSpec spec)
{
    server_.push_back(std::move(spec));
    return server_.size() - 1;
}

std::size_t
ExperimentSuite::add(const SweepSpec &sweep)
{
    const std::size_t first = micro_.size();
    for (MicroPointSpec &spec : sweep.points())
        micro_.push_back(std::move(spec));
    return first;
}

std::size_t
ExperimentSuite::add(const ServerSweepSpec &sweep)
{
    const std::size_t first = server_.size();
    for (ServerPointSpec &spec : sweep.points())
        server_.push_back(std::move(spec));
    return first;
}

void
ExperimentSuite::run(common::ThreadPool &pool)
{
    const auto start = std::chrono::steady_clock::now();
    Executor executor(pool);
    executor.setProgress(progress_);
    executor.setPerfettoExporter(perfetto_);
    microRows_ = executor.runMicro(micro_);
    whisperRows_ = executor.runWhisper(whisper_);
    serverRows_ = executor.runServer(server_);
    wallSeconds_ = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    jobs_ = pool.size();
}

namespace
{

using common::jsonEscape;

/**
 * Emit @p m as a JSON object keyed by scheme name, in SchemeKind
 * order; @p write emits one value.
 */
template <typename Map, typename Write>
void
writeSchemeMap(std::ostream &os, const Map &m, Write write)
{
    os << "{";
    bool first = true;
    for (const auto &[kind, value] : m) {
        os << (first ? "" : ", ") << '"' << arch::schemeName(kind)
           << "\": ";
        write(value);
        first = false;
    }
    os << "}";
}

void
writeTotalCycles(std::ostream &os, const SchemeResults &schemes)
{
    os << ",\n     \"total_cycles\": ";
    writeSchemeMap(os, schemes,
                   [&os](const SchemeResult &r) { os << r.cycles; });
}

/**
 * The trailing per-scheme observability blocks every row ends with:
 * stats trees and event rings (already JSON, spliced in verbatim) and
 * the hot-domain tables. Closes the row object.
 */
void
writeObservability(std::ostream &os, const SchemeResults &schemes)
{
    os << ",\n     \"stats\": ";
    writeSchemeMap(os, schemes,
                   [&os](const SchemeResult &r) { os << r.statsJson; });
    os << ",\n     \"events\": ";
    writeSchemeMap(os, schemes,
                   [&os](const SchemeResult &r) { os << r.eventsJson; });
    os << ",\n     \"hot_domains\": ";
    writeSchemeMap(os, schemes, [&os](const SchemeResult &r) {
        os << hotDomainsJson(r.hotDomains);
    });
    os << "}";
}

void
writeMicroRow(std::ostream &os, const MicroPoint &pt)
{
    const auto number = [&os](const auto &v) { os << v; };
    os << "    {\"benchmark\": \"" << jsonEscape(pt.benchmark)
       << "\", \"pmos\": " << pt.numPmos
       << ", \"cores\": " << pt.cores
       << ", \"switches_per_sec\": " << pt.switchesPerSec
       << ", \"lowerbound_overhead_pct\": " << pt.lowerboundOverheadPct
       << ",\n     \"overhead_pct\": ";
    writeSchemeMap(os, pt.overheadPct, number);
    os << ",\n     \"key_remaps\": ";
    writeSchemeMap(os, pt.keyRemaps, number);
    os << ",\n     \"ipis_responded\": ";
    writeSchemeMap(os, pt.ipisResponded, number);
    writeTotalCycles(os, pt.schemes);
    os << ",\n     \"breakdown\": ";
    writeSchemeMap(os, pt.breakdown, [&os](const Breakdown &b) {
        os << "{\"permission_change_pct\": " << b.permissionChangePct
           << ", \"entry_changes_pct\": " << b.entryChangesPct
           << ", \"table_miss_pct\": " << b.tableMissPct
           << ", \"tlb_invalidation_pct\": " << b.tlbInvalidationPct
           << ", \"access_latency_pct\": " << b.accessLatencyPct
           << ", \"total_pct\": " << b.totalPct << "}";
    });
    writeObservability(os, pt.schemes);
}

void
writeWhisperRow(std::ostream &os, const WhisperRow &row)
{
    os << "    {\"benchmark\": \"" << jsonEscape(row.benchmark)
       << "\", \"switches_per_sec\": " << row.switchesPerSec
       << ", \"overhead_mpk_pct\": " << row.overheadMpkPct
       << ", \"overhead_mpk_virt_pct\": " << row.overheadMpkVirtPct
       << ", \"overhead_domain_virt_pct\": "
       << row.overheadDomainVirtPct;
    writeTotalCycles(os, row.schemes);
    writeObservability(os, row.schemes);
}

void
writeServerRow(std::ostream &os, const ServerRow &row)
{
    os << "    {\"benchmark\": \"" << jsonEscape(row.benchmark)
       << "\", \"tenants\": " << row.numTenants
       << ", \"cores\": " << row.cores
       << ", \"requests\": " << row.requests
       << ", \"mean_interarrival_cycles\": "
       << row.meanInterArrivalCycles;
    writeTotalCycles(os, row.schemes);
    os << ",\n     \"latency\": ";
    writeSchemeMap(os, row.latency, [&os](const ServerLatency &lat) {
        os << "{\"samples\": " << lat.samples
           << ", \"mean\": " << lat.mean << ", \"p50\": " << lat.p50
           << ", \"p99\": " << lat.p99 << ", \"p999\": " << lat.p999
           << ", \"queue_p50\": " << lat.queueP50
           << ", \"queue_p99\": " << lat.queueP99
           << ", \"classes\": [";
        for (std::size_t c = 0; c < lat.classes.size(); ++c) {
            const ServerClassLatency &cls = lat.classes[c];
            os << (c == 0 ? "" : ", ") << "{\"class\": \""
               << jsonEscape(cls.name)
               << "\", \"samples\": " << cls.samples
               << ", \"p50\": " << cls.p50 << ", \"p99\": " << cls.p99
               << ", \"p999\": " << cls.p999
               << ", \"queue_p50\": " << cls.queueP50
               << ", \"queue_p99\": " << cls.queueP99 << "}";
        }
        os << "]}";
    });
    if (!row.blame.empty()) {
        // Emitted only when the point ran with forensics on, so rows
        // from forensics-off runs keep their pre-blame byte layout.
        os << ",\n     \"blame\": ";
        writeSchemeMap(os, row.blame, [&os](const ServerBlame &b) {
            os << "{\"k\": " << b.k << ", \"entries\": " << b.entries
               << ", \"cohort\": " << b.cohort
               << ", \"cohort_queue_share\": " << b.cohortQueueShare
               << ", \"blamed_events\": " << b.blamedEvents
               << ", \"blamed_by_kind\": {";
            bool first_kind = true;
            for (const auto &[name, count] : b.blamedByKind) {
                os << (first_kind ? "" : ", ") << '"' << jsonEscape(name)
                   << "\": " << count;
                first_kind = false;
            }
            os << "}, \"top_domain\": " << b.topDomain
               << ", \"top_domain_entries\": " << b.topDomainEntries
               << "}";
        });
    }
    writeObservability(os, row.schemes);
}

} // namespace

void
ExperimentSuite::writeJson(std::ostream &os) const
{
    const auto flags = os.flags();
    const auto precision = os.precision();
    os.precision(17); // Round-trip doubles exactly.

    os << "{\n  \"suite\": \"" << jsonEscape(name_) << "\",\n"
       << "  \"jobs\": " << jobs_ << ",\n"
       << "  \"wall_seconds\": " << wallSeconds_ << ",\n"
       << "  \"micro\": [\n";
    for (std::size_t i = 0; i < microRows_.size(); ++i) {
        writeMicroRow(os, microRows_[i]);
        os << (i + 1 < microRows_.size() ? ",\n" : "\n");
    }
    os << "  ],\n  \"whisper\": [\n";
    for (std::size_t i = 0; i < whisperRows_.size(); ++i) {
        writeWhisperRow(os, whisperRows_[i]);
        os << (i + 1 < whisperRows_.size() ? ",\n" : "\n");
    }
    os << "  ],\n  \"server\": [\n";
    for (std::size_t i = 0; i < serverRows_.size(); ++i) {
        writeServerRow(os, serverRows_[i]);
        os << (i + 1 < serverRows_.size() ? ",\n" : "\n");
    }
    os << "  ]\n}\n";

    os.precision(precision);
    os.flags(flags);
}

bool
ExperimentSuite::writeJsonFile(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    writeJson(os);
    return static_cast<bool>(os);
}

} // namespace pmodv::exp
