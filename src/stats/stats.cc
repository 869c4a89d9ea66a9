#include "stats/stats.hh"

#include <algorithm>
#include <cmath>

#include "common/bitutil.hh"
#include "common/logging.hh"

namespace pmodv::stats
{

StatBase::StatBase(Group *parent, std::string name)
    : name_(std::move(name))
{
    panic_if(!parent, "statistic '%s' needs a parent group",
             name_.c_str());
    parent->registerStat(this);
}

void
Histogram::sample(std::uint64_t value)
{
    ++samples_;
    sum_ += static_cast<double>(value);
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
    const unsigned bucket = value == 0 ? 0 : floorLog2(value) + 1;
    const std::size_t idx =
        std::min<std::size_t>(bucket, buckets_.size() - 1);
    ++buckets_[idx];
}

double
Histogram::mean() const
{
    return samples_ == 0 ? 0.0 : sum_ / static_cast<double>(samples_);
}

double
quantileFromBuckets(std::uint64_t samples, std::uint64_t min,
                    std::uint64_t max,
                    const std::vector<BucketCount> &buckets, double q)
{
    if (samples == 0)
        return 0.0;
    // Nearest rank: the k-th smallest sample, k = ceil(q * samples)
    // clamped to [1, samples].
    auto k = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(samples)));
    k = std::clamp<std::uint64_t>(k, 1, samples);
    // The extremes are recorded exactly; answer them exactly.
    if (k == 1)
        return static_cast<double>(min);
    if (k == samples)
        return static_cast<double>(max);
    std::uint64_t cum = 0;
    for (const BucketCount &b : buckets) {
        if (b.count == 0)
            continue;
        if (k > cum + b.count) {
            cum += b.count;
            continue;
        }
        // The k-th sample lies in this bucket. Its exact value is
        // gone, but min/max bound the bucket's reachable range; model
        // the bucket's samples as evenly spaced across it.
        const std::uint64_t lo = std::max(b.lo, min);
        const std::uint64_t hi =
            b.hi == 0 ? max : std::min(b.hi - 1, max);
        if (hi <= lo || b.count == 1)
            return static_cast<double>(lo);
        const std::uint64_t idx = k - cum; // 1-based within the bucket.
        return static_cast<double>(lo) +
               static_cast<double>(hi - lo) *
                   (static_cast<double>(idx - 1) /
                    static_cast<double>(b.count - 1));
    }
    // Unreachable when the bucket counts sum to `samples`; fall back
    // to the recorded maximum for malformed inputs.
    return static_cast<double>(max);
}

double
Histogram::quantile(double q) const
{
    std::vector<BucketCount> bs;
    bs.reserve(buckets_.size());
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        if (buckets_[i] == 0)
            continue;
        bs.push_back({bucketLow(i),
                      bucketUnbounded(i) ? 0 : bucketHigh(i),
                      buckets_[i]});
    }
    return quantileFromBuckets(samples_, min(), max_, bs, q);
}

Group::Group(Group *parent, std::string name)
    : parent_(parent), name_(std::move(name))
{
    if (parent_)
        parent_->registerChild(this);
}

Group::~Group()
{
    if (parent_)
        parent_->unregisterChild(this);
}

std::string
Group::fullPath() const
{
    if (!parent_)
        return name_;
    std::string parent_path = parent_->fullPath();
    if (parent_path.empty())
        return name_;
    if (name_.empty())
        return parent_path;
    return parent_path + "." + name_;
}

void
Group::registerStat(StatBase *stat)
{
    stats_.push_back(stat);
}

void
Group::registerChild(Group *child)
{
    children_.push_back(child);
}

void
Group::unregisterChild(Group *child)
{
    auto it = std::find(children_.begin(), children_.end(), child);
    if (it != children_.end())
        children_.erase(it);
}

void
Group::accept(Visitor &visitor) const
{
    visitor.beginGroup(*this);
    for (const StatBase *s : stats_)
        s->accept(visitor);
    for (const Group *c : children_)
        c->accept(visitor);
    visitor.endGroup(*this);
}

const StatBase *
Group::findStat(const std::string &dotted_path) const
{
    const auto dot = dotted_path.find('.');
    if (dot == std::string::npos) {
        for (const StatBase *s : stats_) {
            if (s->name() == dotted_path)
                return s;
        }
        return nullptr;
    }
    const std::string head = dotted_path.substr(0, dot);
    const std::string rest = dotted_path.substr(dot + 1);
    for (const Group *c : children_) {
        if (c->name_ == head)
            return c->findStat(rest);
    }
    return nullptr;
}

double
Group::lookup(const std::string &dotted_path) const
{
    const StatBase *s = findStat(dotted_path);
    if (!s)
        return 0.0;
    if (auto *sc = dynamic_cast<const Scalar *>(s))
        return static_cast<double>(sc->value());
    if (auto *f = dynamic_cast<const Formula *>(s))
        return f->value();
    if (auto *h = dynamic_cast<const Histogram *>(s))
        return static_cast<double>(h->samples());
    return 0.0;
}

} // namespace pmodv::stats
