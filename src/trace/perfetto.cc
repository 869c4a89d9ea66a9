#include "trace/perfetto.hh"

#include <sstream>

#include "common/json.hh"

namespace pmodv::trace
{

using common::formatNumber;
using common::jsonEscape;

std::string
PerfettoExporter::timestamp(std::uint64_t cycle) const
{
    return formatNumber(static_cast<double>(cycle) / cyclesPerUsec_);
}

void
PerfettoExporter::appendArgs(std::string &out, const Args &args) const
{
    out += ",\"args\":{";
    bool first = true;
    for (const auto &[key, value] : args) {
        if (!first)
            out += ",";
        first = false;
        out += "\"" + jsonEscape(key) + "\":" + formatNumber(value);
    }
    out += "}";
}

int
PerfettoExporter::addTrack(const std::string &name)
{
    const int pid = numTracks_++;
    events_.push_back("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
                      std::to_string(pid) + ",\"args\":{\"name\":\"" +
                      jsonEscape(name) + "\"}}");
    return pid;
}

void
PerfettoExporter::span(int track, const std::string &name,
                       std::uint64_t begin, std::uint64_t duration,
                       ThreadId tid, const Args &args)
{
    std::string ev = "{\"name\":\"" + jsonEscape(name) +
                     "\",\"ph\":\"X\",\"ts\":" + timestamp(begin) +
                     ",\"dur\":" +
                     formatNumber(static_cast<double>(duration) /
                                  cyclesPerUsec_) +
                     ",\"pid\":" + std::to_string(track) +
                     ",\"tid\":" + std::to_string(tid);
    if (!args.empty())
        appendArgs(ev, args);
    ev += "}";
    events_.push_back(std::move(ev));
}

void
PerfettoExporter::instant(int track, const std::string &name,
                          std::uint64_t cycle, ThreadId tid,
                          const Args &args)
{
    std::string ev = "{\"name\":\"" + jsonEscape(name) +
                     "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" +
                     timestamp(cycle) +
                     ",\"pid\":" + std::to_string(track) +
                     ",\"tid\":" + std::to_string(tid);
    if (!args.empty())
        appendArgs(ev, args);
    ev += "}";
    events_.push_back(std::move(ev));
}

void
PerfettoExporter::counter(int track, const std::string &name,
                          std::uint64_t cycle, double value)
{
    events_.push_back("{\"name\":\"" + jsonEscape(name) +
                      "\",\"ph\":\"C\",\"ts\":" + timestamp(cycle) +
                      ",\"pid\":" + std::to_string(track) +
                      ",\"args\":{\"value\":" + formatNumber(value) +
                      "}}");
}

void
PerfettoExporter::flowStart(int track, const std::string &name,
                            std::uint64_t cycle, ThreadId tid,
                            std::uint64_t id)
{
    events_.push_back("{\"name\":\"" + jsonEscape(name) +
                      "\",\"ph\":\"s\",\"cat\":\"blame\",\"id\":" +
                      std::to_string(id) + ",\"ts\":" + timestamp(cycle) +
                      ",\"pid\":" + std::to_string(track) +
                      ",\"tid\":" + std::to_string(tid) + "}");
}

void
PerfettoExporter::flowEnd(int track, const std::string &name,
                          std::uint64_t cycle, ThreadId tid,
                          std::uint64_t id)
{
    events_.push_back("{\"name\":\"" + jsonEscape(name) +
                      "\",\"ph\":\"f\",\"bp\":\"e\",\"cat\":\"blame\","
                      "\"id\":" +
                      std::to_string(id) + ",\"ts\":" + timestamp(cycle) +
                      ",\"pid\":" + std::to_string(track) +
                      ",\"tid\":" + std::to_string(tid) + "}");
}

void
PerfettoExporter::write(std::ostream &os) const
{
    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    for (std::size_t i = 0; i < events_.size(); ++i)
        os << (i ? ",\n" : "\n") << events_[i];
    os << "\n]}\n";
}

std::string
PerfettoExporter::toString() const
{
    std::ostringstream os;
    write(os);
    return os.str();
}

} // namespace pmodv::trace
