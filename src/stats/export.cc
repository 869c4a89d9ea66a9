#include "stats/export.hh"

#include <iomanip>
#include <sstream>

#include "common/json.hh"
#include "stats/slow_digest.hh"
#include "stats/timeseries.hh"

namespace pmodv::stats
{

using common::formatNumber;
using common::jsonEscape;

// ------------------------------------------------------------- text

template <typename T>
void
TextVisitor::line(const std::string &full_name, T value,
                  const std::string &desc)
{
    os_ << std::left << std::setw(48) << full_name << " "
        << std::setw(16) << value << " # " << desc << "\n";
}

void
TextVisitor::beginGroup(const Group &group)
{
    const std::string &parent =
        prefixes_.empty() ? std::string() : prefixes_.back();
    prefixes_.push_back(group.groupName().empty()
                            ? parent
                            : parent + group.groupName() + ".");
}

void
TextVisitor::endGroup(const Group &)
{
    prefixes_.pop_back();
}

void
TextVisitor::visitScalar(const Scalar &stat)
{
    line(prefixes_.back() + stat.name(), stat.value(), stat.desc());
}

void
TextVisitor::visitHistogram(const Histogram &stat)
{
    const std::string base = prefixes_.back() + stat.name();
    line(base + "::samples", static_cast<double>(stat.samples()),
         stat.desc());
    line(base + "::mean", stat.mean(), stat.desc());
    line(base + "::min", static_cast<double>(stat.min()), stat.desc());
    line(base + "::max", static_cast<double>(stat.max()), stat.desc());
    for (std::size_t i = 0; i < stat.numBuckets(); ++i) {
        if (stat.bucket(i) == 0)
            continue;
        line(base + "::" + stat.bucketLabel(i),
             static_cast<double>(stat.bucket(i)), stat.desc());
    }
}

void
TextVisitor::visitFormula(const Formula &stat)
{
    line(prefixes_.back() + stat.name(), stat.value(), stat.desc());
}

void
TextVisitor::visitTimeSeries(const TimeSeries &stat)
{
    // The text dump stays summary-level (per-track totals); the full
    // per-epoch rows are a JSON/CSV affair.
    const std::string base = prefixes_.back() + stat.name();
    line(base + "::epoch_cycles",
         static_cast<double>(stat.epochCycles()), stat.desc());
    line(base + "::epochs", static_cast<double>(stat.numEpochs()),
         stat.desc());
    for (std::size_t t = 0; t < stat.numTracks(); ++t) {
        line(base + "::" + stat.trackLabel(t) + "::total",
             stat.trackTotal(t), stat.desc());
    }
}

void
TextVisitor::visitSlowDigest(const SlowRequestDigest &stat)
{
    const std::string base = prefixes_.back() + stat.name();
    line(base + "::k", static_cast<double>(stat.k()), stat.desc());
    line(base + "::offered", static_cast<double>(stat.offered()),
         stat.desc());
    std::size_t i = 0;
    for (const SlowRequestEntry &e : stat.entries()) {
        const std::string row = base + "::" + std::to_string(i++);
        line(row + "::id", static_cast<double>(e.id), stat.desc());
        line(row + "::latency", static_cast<double>(e.latency),
             stat.desc());
        line(row + "::queue", static_cast<double>(e.queue),
             stat.desc());
        line(row + "::domain", static_cast<double>(e.domain),
             stat.desc());
        line(row + "::events", static_cast<double>(e.events.size()),
             stat.desc());
    }
}

// ------------------------------------------------------------- json

void
JsonVisitor::key(const std::string &name)
{
    if (first_.back())
        first_.back() = false;
    else
        os_ << ",";
    os_ << '"' << jsonEscape(name) << "\":";
}

void
JsonVisitor::number(double value)
{
    os_ << formatNumber(value);
}

void
JsonVisitor::number(std::uint64_t value)
{
    os_ << value;
}

void
JsonVisitor::beginGroup(const Group &group)
{
    if (depth_ == 0) {
        os_ << "{";
        first_.push_back(true);
    } else if (group.groupName().empty()) {
        // An unnamed child merges into its parent's object, exactly
        // like the text dump folds unnamed groups into the prefix.
        merged_.push_back(depth_);
    } else {
        key(group.groupName());
        os_ << "{";
        first_.push_back(true);
    }
    ++depth_;
}

void
JsonVisitor::endGroup(const Group &)
{
    --depth_;
    if (!merged_.empty() && merged_.back() == depth_) {
        merged_.pop_back();
        return;
    }
    os_ << "}";
    first_.pop_back();
}

void
JsonVisitor::visitScalar(const Scalar &stat)
{
    key(stat.name());
    number(stat.value());
}

void
JsonVisitor::visitHistogram(const Histogram &stat)
{
    key(stat.name());
    os_ << "{";
    first_.push_back(true);
    key("samples");
    number(static_cast<double>(stat.samples()));
    key("mean");
    number(stat.mean());
    key("min");
    number(static_cast<double>(stat.min()));
    key("max");
    number(static_cast<double>(stat.max()));
    key("buckets");
    os_ << "[";
    bool first_bucket = true;
    for (std::size_t i = 0; i < stat.numBuckets(); ++i) {
        if (stat.bucket(i) == 0)
            continue;
        // Edges are numeric (not the text label) so documents stay
        // free of brackets-inside-strings; the same bucketLow/High
        // pair also builds the text label, keeping the two in sync.
        os_ << (first_bucket ? "" : ",") << "{\"lo\":"
            << stat.bucketLow(i);
        if (!stat.bucketUnbounded(i))
            os_ << ",\"hi\":" << stat.bucketHigh(i);
        os_ << ",\"count\":"
            << formatNumber(static_cast<double>(stat.bucket(i))) << "}";
        first_bucket = false;
    }
    os_ << "]";
    first_.pop_back();
    os_ << "}";
}

void
JsonVisitor::visitFormula(const Formula &stat)
{
    key(stat.name());
    number(stat.value());
}

void
JsonVisitor::visitTimeSeries(const TimeSeries &stat)
{
    key(stat.name());
    os_ << "{";
    first_.push_back(true);
    key("epoch_cycles");
    number(static_cast<double>(stat.epochCycles()));
    key("epochs");
    number(static_cast<double>(stat.numEpochs()));
    key("tracks");
    os_ << "{";
    first_.push_back(true);
    for (std::size_t t = 0; t < stat.numTracks(); ++t) {
        key(stat.trackLabel(t));
        os_ << "[";
        for (std::size_t e = 0; e < stat.numEpochs(); ++e) {
            os_ << (e ? "," : "");
            number(stat.sample(t, e));
        }
        os_ << "]";
    }
    first_.pop_back();
    os_ << "}";
    first_.pop_back();
    os_ << "}";
}

void
JsonVisitor::visitSlowDigest(const SlowRequestDigest &stat)
{
    key(stat.name());
    os_ << "{";
    first_.push_back(true);
    key("k");
    number(static_cast<double>(stat.k()));
    key("offered");
    number(static_cast<double>(stat.offered()));
    key("entries");
    os_ << "[";
    bool first_entry = true;
    for (const SlowRequestEntry &e : stat.entries()) {
        os_ << (first_entry ? "" : ",") << "{\"id\":" << e.id
            << ",\"tid\":" << e.tid << ",\"domain\":" << e.domain
            << ",\"class\":" << e.cls << ",\"arrival\":" << e.arrival
            << ",\"latency\":" << e.latency << ",\"queue\":" << e.queue
            << ",\"residue\":" << e.residue << ",\"begin\":" << e.begin
            << ",\"commit\":" << e.commit << ",\"buckets\":{";
        for (unsigned b = 0; b < kSlowDigestBuckets; ++b) {
            os_ << (b ? "," : "") << '"' << kSlowDigestBucketNames[b]
                << "\":" << e.buckets[b];
        }
        os_ << "},\"events\":[";
        bool first_ev = true;
        for (const SlowBlamedEvent &ev : e.events) {
            os_ << (first_ev ? "" : ",") << "{\"id\":" << ev.id
                << ",\"kind\":\"" << jsonEscape(ev.kind)
                << "\",\"cycle\":" << ev.cycle << ",\"tid\":" << ev.tid
                << ",\"arg\":" << ev.arg << ",\"value\":" << ev.value
                << "}";
            first_ev = false;
        }
        os_ << "],\"events_dropped\":" << e.eventsDropped << "}";
        first_entry = false;
    }
    os_ << "]";
    first_.pop_back();
    os_ << "}";
}

// -------------------------------------------------------------- csv

CsvVisitor::CsvVisitor(std::ostream &os) : os_(os)
{
    os_ << "stat,value\n";
}

void
CsvVisitor::row(const std::string &name, double value)
{
    cell(name, formatNumber(value));
}

void
CsvVisitor::row(const std::string &name, std::uint64_t value)
{
    cell(name, std::to_string(value));
}

void
CsvVisitor::cell(const std::string &name, const std::string &value)
{
    if (name.find(',') != std::string::npos)
        os_ << '"' << name << '"';
    else
        os_ << name;
    os_ << ',' << value << "\n";
}

void
CsvVisitor::beginGroup(const Group &group)
{
    const std::string &parent =
        prefixes_.empty() ? std::string() : prefixes_.back();
    prefixes_.push_back(group.groupName().empty()
                            ? parent
                            : parent + group.groupName() + ".");
}

void
CsvVisitor::endGroup(const Group &)
{
    prefixes_.pop_back();
}

void
CsvVisitor::visitScalar(const Scalar &stat)
{
    row(prefixes_.back() + stat.name(), stat.value());
}

void
CsvVisitor::visitHistogram(const Histogram &stat)
{
    const std::string base = prefixes_.back() + stat.name();
    row(base + "::samples", static_cast<double>(stat.samples()));
    row(base + "::mean", stat.mean());
    row(base + "::min", static_cast<double>(stat.min()));
    row(base + "::max", static_cast<double>(stat.max()));
    for (std::size_t i = 0; i < stat.numBuckets(); ++i) {
        if (stat.bucket(i) == 0)
            continue;
        row(base + "::" + stat.bucketLabel(i),
            static_cast<double>(stat.bucket(i)));
    }
}

void
CsvVisitor::visitFormula(const Formula &stat)
{
    row(prefixes_.back() + stat.name(), stat.value());
}

void
CsvVisitor::visitTimeSeries(const TimeSeries &stat)
{
    const std::string base = prefixes_.back() + stat.name();
    row(base + "::epoch_cycles", static_cast<double>(stat.epochCycles()));
    row(base + "::epochs", static_cast<double>(stat.numEpochs()));
    for (std::size_t t = 0; t < stat.numTracks(); ++t) {
        const std::string track = base + "::" + stat.trackLabel(t);
        for (std::size_t e = 0; e < stat.numEpochs(); ++e)
            row(track + "::e" + std::to_string(e), stat.sample(t, e));
    }
}

void
CsvVisitor::visitSlowDigest(const SlowRequestDigest &stat)
{
    const std::string base = prefixes_.back() + stat.name();
    row(base + "::k", static_cast<double>(stat.k()));
    row(base + "::offered", static_cast<double>(stat.offered()));
    std::size_t i = 0;
    for (const SlowRequestEntry &e : stat.entries()) {
        const std::string r = base + "::" + std::to_string(i++);
        row(r + "::id", static_cast<double>(e.id));
        row(r + "::latency", static_cast<double>(e.latency));
        row(r + "::queue", static_cast<double>(e.queue));
        row(r + "::residue", static_cast<double>(e.residue));
        row(r + "::domain", static_cast<double>(e.domain));
        row(r + "::class", static_cast<double>(e.cls));
        for (unsigned b = 0; b < kSlowDigestBuckets; ++b)
            row(r + "::" + kSlowDigestBucketNames[b],
                static_cast<double>(e.buckets[b]));
        row(r + "::events", static_cast<double>(e.events.size()));
    }
}

// ------------------------------------------------------- entry points

void
dumpText(std::ostream &os, const Group &group)
{
    TextVisitor visitor(os);
    group.accept(visitor);
}

void
dumpJson(std::ostream &os, const Group &group)
{
    JsonVisitor visitor(os);
    group.accept(visitor);
}

void
dumpCsv(std::ostream &os, const Group &group)
{
    CsvVisitor visitor(os);
    group.accept(visitor);
}

std::string
toJsonString(const Group &group)
{
    std::ostringstream os;
    dumpJson(os, group);
    return os.str();
}

} // namespace pmodv::stats
