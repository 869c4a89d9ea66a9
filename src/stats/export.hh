/**
 * @file
 * The stats exporter: a machine-readable JSON tree written through the
 * stats::Visitor interface. It walks the group tree in registration
 * order, so its output is deterministic — byte-identical across runs
 * and worker counts. Every stats dump pmodv writes is this JSON.
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
 * A compact JSON object mirroring the group tree: groups become
 * nested objects keyed by their name (unnamed groups merge into their
 * parent), scalars/formulas become numbers, histograms objects with
 * the moments and a "buckets" array of {"lo", "hi", "count"} objects
 * (non-empty buckets only; the open-ended last bucket has no "hi").
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

/** Dump @p group as one JSON object (no trailing newline). */
void dumpJson(std::ostream &os, const Group &group);

/** dumpJson() into a string. */
std::string toJsonString(const Group &group);

} // namespace pmodv::stats

#endif // PMODV_STATS_EXPORT_HH
