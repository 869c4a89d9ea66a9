#include "exp/trace_export.hh"

#include <iomanip>
#include <map>
#include <ostream>

namespace pmodv::exp
{

trace::PerfettoExporter
makeExporter(const core::SimConfig &config)
{
    // The trace-event timebase is microseconds: freqGhz * 1000
    // simulated cycles each.
    return trace::PerfettoExporter(config.freqGhz * 1000.0);
}

void
appendSystemTrack(trace::PerfettoExporter &exporter,
                  const core::System &sys, const std::string &label)
{
    const int track = exporter.addTrack(label);

    // The whole replay as one background span.
    exporter.span(track, "replay", 0, sys.totalCycles(), 0,
                  {{"cycles", static_cast<double>(sys.totalCycles())}});

    // Shootdown IPIs land on per-responding-core subtracks so a
    // multi-core replay shows which cores keep paying for evictions.
    std::map<std::uint32_t, int> ipiTracks;
    const auto ipiTrack = [&](std::uint32_t core) {
        auto it = ipiTracks.find(core);
        if (it == ipiTracks.end()) {
            it = ipiTracks
                     .emplace(core,
                              exporter.addTrack(
                                  label + "/core" +
                                  std::to_string(core) + "/ipi"))
                     .first;
        }
        return it->second;
    };

    for (const trace::Event &ev : sys.events().snapshot()) {
        const double arg = static_cast<double>(ev.arg);
        const double value = static_cast<double>(ev.value);
        switch (ev.kind) {
          case trace::EventKind::TxnCommit:
            // arg = the op's primary domain, value = its duration.
            exporter.span(track,
                          "txn d" + std::to_string(ev.arg),
                          ev.cycle - ev.value, ev.value, ev.tid,
                          {{"domain", arg}, {"cycles", value}});
            break;
          case trace::EventKind::KeyEviction:
            exporter.instant(track, "key_eviction", ev.cycle, ev.tid,
                             {{"domain", arg}, {"key", value}});
            break;
          case trace::EventKind::Shootdown:
            exporter.instant(track, "shootdown", ev.cycle, ev.tid,
                             {{"domain", arg}, {"pages", value}});
            break;
          case trace::EventKind::PtlbRefill:
          case trace::EventKind::DttlbRefill:
            exporter.instant(track, trace::eventKindName(ev.kind),
                             ev.cycle, ev.tid,
                             {{"domain", arg}, {"cycles", value}});
            break;
          case trace::EventKind::Ipi:
            // arg = responding core, value = stale pages it flushed.
            exporter.instant(ipiTrack(ev.arg), "ipi", ev.cycle, ev.tid,
                             {{"core", arg}, {"pages", value}});
            break;
        }
    }

    // With tail forensics on, draw a flow arrow from each blamed
    // event instant into the delayed request's txn span. The arrow id
    // is the ring event id — unique per arrow because an event lands
    // in at most one request window.
    if (sys.forensicsEnabled()) {
        for (const stats::SlowRequestEntry &entry :
             sys.slowDigest()->entries()) {
            for (const stats::SlowBlamedEvent &ev : entry.events) {
                const std::string name =
                    "blame:" + ev.kind + "->req" +
                    std::to_string(entry.id);
                exporter.flowStart(track, name, ev.cycle,
                                   static_cast<ThreadId>(ev.tid),
                                   ev.id);
                exporter.flowEnd(track, name, entry.commit,
                                 static_cast<ThreadId>(entry.tid),
                                 ev.id);
            }
        }
    }

    // One counter series per timeline track, sampled at epoch ends.
    const stats::TimeSeries &tl = sys.timeline;
    if (tl.enabled()) {
        for (std::size_t t = 0; t < tl.numTracks(); ++t) {
            for (std::size_t e = 0; e < tl.numEpochs(); ++e) {
                exporter.counter(track, tl.trackLabel(t),
                                 (e + 1) * tl.epochCycles(),
                                 tl.sample(t, e));
            }
        }
    }
}

std::string
hotDomainsJson(const std::vector<arch::HotDomain> &rows)
{
    std::string out = "[";
    bool first = true;
    for (const arch::HotDomain &row : rows) {
        if (!first)
            out += ",";
        first = false;
        const arch::DomainCounters &c = row.counters;
        out += "{\"domain\":" + std::to_string(row.domain) +
               ",\"accesses\":" + std::to_string(c.accesses) +
               ",\"fill_misses\":" + std::to_string(c.fillMisses) +
               ",\"evictions\":" + std::to_string(c.evictions) +
               ",\"shootdown_pages\":" +
               std::to_string(c.shootdownPages) +
               ",\"setperms\":" + std::to_string(c.setperms) + "}";
    }
    out += "]";
    return out;
}

void
printHotDomains(std::ostream &os,
                const std::vector<arch::HotDomain> &rows)
{
    if (rows.empty()) {
        os << "  (no domain activity recorded)\n";
        return;
    }
    os << "  " << std::setw(8) << "domain" << std::setw(12) << "accesses"
       << std::setw(12) << "fills" << std::setw(12) << "evictions"
       << std::setw(12) << "shot_pages" << std::setw(12) << "setperms"
       << "\n";
    for (const arch::HotDomain &row : rows) {
        const arch::DomainCounters &c = row.counters;
        os << "  " << std::setw(8) << row.domain << std::setw(12)
           << c.accesses << std::setw(12) << c.fillMisses
           << std::setw(12) << c.evictions << std::setw(12)
           << c.shootdownPages << std::setw(12) << c.setperms << "\n";
    }
}

} // namespace pmodv::exp
