/**
 * @file
 * A small gem5-flavoured statistics package.
 *
 * Every timing component owns a stats::Group; individual statistics
 * register themselves with the group at construction. Groups nest, so
 * a whole system can be dumped with one call. Scalar (an exact integer
 * counter), Histogram and Formula statistics are provided. Statistics
 * only accumulate: a fresh run builds a fresh tree.
 *
 * Output goes through the Visitor interface (see stats/export.hh for
 * the JSON exporter): a visitor walks the group tree in registration
 * order, which is construction order and therefore deterministic
 * across runs and worker counts.
 */

#ifndef PMODV_STATS_STATS_HH
#define PMODV_STATS_STATS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace pmodv::stats
{

class Group;
class Scalar;
class Histogram;
class Formula;
class TimeSeries;
class SlowRequestDigest;

/**
 * Traversal interface over a stats tree. beginGroup/endGroup bracket
 * each Group (the root included); between them the group's own
 * statistics are visited first, then its children, both in
 * registration order.
 */
class Visitor
{
  public:
    virtual ~Visitor() = default;

    virtual void beginGroup(const Group &group) = 0;
    virtual void endGroup(const Group &group) = 0;
    virtual void visitScalar(const Scalar &stat) = 0;
    virtual void visitHistogram(const Histogram &stat) = 0;
    virtual void visitFormula(const Formula &stat) = 0;
    virtual void visitTimeSeries(const TimeSeries &stat) = 0;
    virtual void visitSlowDigest(const SlowRequestDigest &stat) = 0;
};

/** Base class for all statistics; handles naming and registration. */
class StatBase
{
  public:
    StatBase(Group *parent, std::string name);
    virtual ~StatBase() = default;

    StatBase(const StatBase &) = delete;
    StatBase &operator=(const StatBase &) = delete;

    const std::string &name() const { return name_; }

    /** Double-dispatch into @p visitor. */
    virtual void accept(Visitor &visitor) const = 0;

  private:
    std::string name_;
};

/**
 * An exact event or cycle counter. Every count the model reports is an
 * integer, so the counter is one: it never rounds, and hot paths bump
 * it in place.
 */
class Scalar : public StatBase
{
  public:
    Scalar(Group *parent, std::string name)
        : StatBase(parent, std::move(name))
    {
    }

    Scalar &operator++()
    {
        ++value_;
        return *this;
    }

    Scalar &
    operator+=(std::uint64_t v)
    {
        value_ += v;
        return *this;
    }

    Scalar &
    operator=(std::uint64_t v)
    {
        value_ = v;
        return *this;
    }

    std::uint64_t value() const { return value_; }

    void accept(Visitor &visitor) const override
    {
        visitor.visitScalar(*this);
    }
    /** Zero the counter (the fuzzer's planted batch-reset bug). */
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * One histogram bucket as the exporters see it: [lo, hi) holding
 * `count` samples, with hi == 0 standing in for the open-ended
 * overflow bucket (whose upper edge does not exist). This is exactly
 * the (lo, hi, count) triple the JSON exporter emits per nonempty
 * bucket, so quantiles recomputed from a parsed report go through the
 * same code as live Histogram::quantile() calls.
 */
struct BucketCount
{
    std::uint64_t lo = 0;
    std::uint64_t hi = 0; ///< 0 = unbounded (overflow bucket).
    std::uint64_t count = 0;
};

/**
 * The q-quantile (q in [0, 1]) reconstructed from exported histogram
 * fields. Deterministic nearest-rank extraction: the k-th smallest
 * sample with k = ceil(q * samples) clamped to [1, samples]. The k-th
 * sample's bucket is found by a cumulative walk; within the bucket
 * the count samples are modelled as evenly spaced across the bucket's
 * *reachable* range [max(lo, min), min(hi - 1, max)] — the recorded
 * global min/max clamp what the lost exact values could have been, so
 * single-value histograms (and q = 0 / q = 1) are exact, and every
 * answer provably lies inside the k-th sample's true bucket. Returns
 * 0 for an empty histogram.
 */
double quantileFromBuckets(std::uint64_t samples, std::uint64_t min,
                           std::uint64_t max,
                           const std::vector<BucketCount> &buckets,
                           double q);

/**
 * A log2-bucketed histogram of sampled values. Bucket 0 holds the
 * value 0; bucket i >= 1 holds [2^(i-1), 2^i); the last bucket is
 * open-ended and absorbs everything at or above its lower edge.
 * bucketLow()/bucketHigh() are the single source of truth for the
 * edges: the JSON exporter and quantile() both read them.
 */
class Histogram : public StatBase
{
  public:
    Histogram(Group *parent, std::string name, unsigned num_buckets = 24)
        : StatBase(parent, std::move(name)), buckets_(num_buckets, 0)
    {
    }

    /** Record one sample of @p value. */
    void sample(std::uint64_t value);

    std::uint64_t samples() const { return samples_; }
    double mean() const;
    std::uint64_t min() const { return samples_ ? min_ : 0; }
    std::uint64_t max() const { return max_; }
    std::uint64_t bucket(std::size_t i) const { return buckets_.at(i); }
    std::size_t numBuckets() const { return buckets_.size(); }

    /** Inclusive lower edge of bucket @p i. */
    std::uint64_t bucketLow(std::size_t i) const
    {
        return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
    }

    /** Exclusive upper edge of bucket @p i (undefined for the last,
     *  open-ended bucket; check bucketUnbounded() first). */
    std::uint64_t bucketHigh(std::size_t i) const
    {
        return std::uint64_t{1} << i;
    }

    /** True for the open-ended overflow bucket. */
    bool bucketUnbounded(std::size_t i) const
    {
        return i + 1 == buckets_.size();
    }

    /**
     * The q-quantile of the sampled values via quantileFromBuckets()
     * on this histogram's nonempty buckets — so p50/p99/p999 read
     * from a live histogram and recomputed from its JSON export agree
     * bit for bit.
     */
    double quantile(double q) const;

    void accept(Visitor &visitor) const override
    {
        visitor.visitHistogram(*this);
    }

  private:
    std::vector<std::uint64_t> buckets_;
    std::uint64_t samples_ = 0;
    double sum_ = 0;
    std::uint64_t min_ = ~std::uint64_t{0};
    std::uint64_t max_ = 0;
};

/** A derived statistic evaluated lazily from a closure at dump time. */
class Formula : public StatBase
{
  public:
    Formula(Group *parent, std::string name, std::function<double()> fn)
        : StatBase(parent, std::move(name)), fn_(std::move(fn))
    {
    }

    double value() const { return fn_ ? fn_() : 0.0; }

    void accept(Visitor &visitor) const override
    {
        visitor.visitFormula(*this);
    }

  private:
    std::function<double()> fn_;
};

/**
 * A named collection of statistics; groups nest to mirror the
 * component hierarchy (system.cpu.dtlb...).
 */
class Group
{
  public:
    /** Create a group under @p parent (nullptr for a root group). */
    explicit Group(Group *parent = nullptr, std::string name = "");
    virtual ~Group();

    Group(const Group &) = delete;
    Group &operator=(const Group &) = delete;

    const std::string &groupName() const { return name_; }

    /** Full dotted path from the root group. */
    std::string fullPath() const;

    /** Walk this group, its stats and its children with @p visitor. */
    void accept(Visitor &visitor) const;

    /** Look up a scalar value by dotted relative path; 0 if absent. */
    double lookup(const std::string &dotted_path) const;

    // Registration hooks used by StatBase / child Groups.
    void registerStat(StatBase *stat);
    void registerChild(Group *child);
    void unregisterChild(Group *child);

  private:
    const StatBase *findStat(const std::string &dotted_path) const;

    Group *parent_;
    std::string name_;
    std::vector<StatBase *> stats_;
    std::vector<Group *> children_;
};

} // namespace pmodv::stats

#endif // PMODV_STATS_STATS_HH
