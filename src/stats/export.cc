#include "stats/export.hh"

#include <sstream>

#include "common/json.hh"
#include "stats/slow_digest.hh"
#include "stats/timeseries.hh"

namespace pmodv::stats
{

using common::formatNumber;
using common::jsonEscape;

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
        // An unnamed child merges into its parent's object.
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
        // Edges are numeric so documents stay free of
        // brackets-inside-strings.
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

// ------------------------------------------------------- entry points

void
dumpJson(std::ostream &os, const Group &group)
{
    JsonVisitor visitor(os);
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
