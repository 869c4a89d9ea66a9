/**
 * @file
 * Exporters over the stats::Visitor interface: the classic gem5-style
 * text dump, a machine-readable JSON tree and a flat CSV table. All
 * three walk the group tree in registration order, so their output is
 * deterministic — byte-identical across runs and worker counts.
 *
 * Histogram bucket edges come from Histogram::bucketLabel() in every
 * format, so text/JSON/CSV dumps agree on the edges by construction
 * (tests/test_stats.cc round-trips them).
 */

#ifndef PMODV_STATS_EXPORT_HH
#define PMODV_STATS_EXPORT_HH

#include <ostream>
#include <string>
#include <vector>

#include "stats/stats.hh"

namespace pmodv::stats
{

/**
 * The text dump: one "dotted.path value # desc" line per statistic.
 * Histograms expand to ::samples/::mean/::min/::max plus one
 * ::[lo,hi) line per non-empty bucket.
 */
class TextVisitor : public Visitor
{
  public:
    explicit TextVisitor(std::ostream &os) : os_(os) {}

    void beginGroup(const Group &group) override;
    void endGroup(const Group &group) override;
    void visitScalar(const Scalar &stat) override;
    void visitHistogram(const Histogram &stat) override;
    void visitFormula(const Formula &stat) override;
    void visitTimeSeries(const TimeSeries &stat) override;
    void visitSlowDigest(const SlowRequestDigest &stat) override;

  private:
    template <typename T>
    void line(const std::string &full_name, T value,
              const std::string &desc);

    std::ostream &os_;
    /** Dotted prefix per open group (unnamed groups add nothing). */
    std::vector<std::string> prefixes_;
};

/**
 * A compact JSON object mirroring the group tree: groups become
 * nested objects keyed by their name (unnamed groups merge into their
 * parent), scalars/formulas become numbers, histograms objects with
 * the moments and a "buckets" array of {"bin", "count"} pairs
 * (non-empty buckets only).
 * Time series become objects with "epoch_cycles"/"epochs" and a
 * "tracks" object mapping each track label to its per-epoch delta
 * array (disabled series emit epoch_cycles 0 and no tracks).
 * Numbers round-trip: scalars and epoch deltas print as exact
 * integers, other integral values without a fraction, the rest with
 * 17 significant digits; non-finite values are emitted as 0 so the
 * document always parses.
 */
class JsonVisitor : public Visitor
{
  public:
    explicit JsonVisitor(std::ostream &os) : os_(os) {}

    void beginGroup(const Group &group) override;
    void endGroup(const Group &group) override;
    void visitScalar(const Scalar &stat) override;
    void visitHistogram(const Histogram &stat) override;
    void visitFormula(const Formula &stat) override;
    void visitTimeSeries(const TimeSeries &stat) override;
    void visitSlowDigest(const SlowRequestDigest &stat) override;

  private:
    void key(const std::string &name);
    void number(double value);
    void number(std::uint64_t value);

    std::ostream &os_;
    unsigned depth_ = 0;
    /** One "first element pending" flag per open JSON object. */
    std::vector<bool> first_;
    /** Depths at which an unnamed group was merged into its parent. */
    std::vector<unsigned> merged_;
};

/**
 * Flat "stat,value" CSV (one header row). Histogram and time-series
 * sub-values use the same ::suffix naming as the text dump; fields
 * containing commas (histogram bucket labels) are quoted.
 */
class CsvVisitor : public Visitor
{
  public:
    explicit CsvVisitor(std::ostream &os);

    void beginGroup(const Group &group) override;
    void endGroup(const Group &group) override;
    void visitScalar(const Scalar &stat) override;
    void visitHistogram(const Histogram &stat) override;
    void visitFormula(const Formula &stat) override;
    void visitTimeSeries(const TimeSeries &stat) override;
    void visitSlowDigest(const SlowRequestDigest &stat) override;

  private:
    void row(const std::string &name, double value);
    void row(const std::string &name, std::uint64_t value);
    void cell(const std::string &name, const std::string &value);

    std::ostream &os_;
    std::vector<std::string> prefixes_;
};

/** Dump @p group as text (what Group::dump() forwards to). */
void dumpText(std::ostream &os, const Group &group);

/** Dump @p group as one JSON object (no trailing newline). */
void dumpJson(std::ostream &os, const Group &group);

/** Dump @p group as CSV rows (header included). */
void dumpCsv(std::ostream &os, const Group &group);

/** dumpJson() into a string. */
std::string toJsonString(const Group &group);

} // namespace pmodv::stats

#endif // PMODV_STATS_EXPORT_HH
