/**
 * @file
 * Epoch-based time-series sampling over existing Scalar counters.
 *
 * A TimeSeries registers with a stats::Group like any other statistic
 * and holds a set of *tracks*, each a pointer to a Scalar elsewhere in
 * the same tree. While enabled, tick(now) closes an epoch every
 * `cyclesPerEpoch` simulated cycles, snapshotting the delta of every
 * tracked counter since the previous epoch boundary into one bounded
 * row. The rows reconstruct the counter *trajectory* — eviction
 * storms, miss-rate phases — that end-of-run aggregates average away.
 *
 * Cost model: sampling is OFF by default (cyclesPerEpoch == 0), and a
 * disabled TimeSeries reduces tick() to a single always-false compare
 * against a saturated sentinel — cheap enough to keep in the replay
 * hot path unconditionally (bench/gbench_sim.cc measures it).
 *
 * Memory is bounded: when the row count reaches maxEpochs, adjacent
 * epoch pairs are merged and the epoch width doubles, preserving the
 * invariant that row i covers cycles [i*W, (i+1)*W). A cycle jump
 * crossing several boundaries books the whole delta into the first
 * crossed epoch (the following skipped epochs record zeros); the
 * smear is at most one trace record's worth of cycles.
 *
 * The per-track epoch deltas always sum back to the tracked counters'
 * final values once finalize() has closed the trailing partial epoch
 * (tests/test_timeline.cc asserts this).
 */

#ifndef PMODV_STATS_TIMESERIES_HH
#define PMODV_STATS_TIMESERIES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "stats/stats.hh"

namespace pmodv::stats
{

/** Epoch-sampled deltas of registered Scalar counters. */
class TimeSeries : public StatBase
{
  public:
    TimeSeries(Group *parent, std::string name)
        : StatBase(parent, std::move(name))
    {
    }

    /**
     * Enable sampling with @p cycles_per_epoch wide epochs, keeping
     * at most @p max_epochs rows (coalescing beyond that; clamped to
     * an even value >= 2). @p cycles_per_epoch == 0 disables.
     */
    void configure(std::uint64_t cycles_per_epoch,
                   unsigned max_epochs = 256);

    bool enabled() const { return cyclesPerEpoch_ != 0; }

    /** Register @p stat as a track labelled @p label (no-op while
     *  disabled; tracks snapshot from the counter's current value). */
    void track(const Scalar &stat, std::string label);

    /**
     * Hot-path epoch check: closes epochs once @p now passes the next
     * boundary. Disabled series compare against a ~0 sentinel and
     * fall straight through.
     */
    void
    tick(std::uint64_t now)
    {
        if (now >= nextEpochEnd_)
            advance(now);
    }

    /** Close the trailing partial epoch so per-track sums equal the
     *  counters' final values. Idempotent until new cycles arrive. */
    void finalize(std::uint64_t now);

    /**
     * The cycle at which the next epoch closes (the saturated
     * disabled sentinel while sampling is off). Replay loops cache
     * this and call tick() only once their clock reaches it.
     */
    std::uint64_t nextBoundary() const { return nextEpochEnd_; }

    // -- inspection (exporters / tests) --
    std::uint64_t epochCycles() const { return cyclesPerEpoch_; }
    std::size_t numEpochs() const { return rows_.size(); }
    std::size_t numTracks() const { return tracks_.size(); }
    const std::string &trackLabel(std::size_t t) const
    {
        return tracks_[t].label;
    }
    /** Delta of track @p t over epoch @p e. */
    std::uint64_t sample(std::size_t t, std::size_t e) const
    {
        return rows_[e][t];
    }

    void accept(Visitor &visitor) const override
    {
        visitor.visitTimeSeries(*this);
    }

  private:
    struct Track
    {
        const Scalar *stat = nullptr;
        std::string label;
        std::uint64_t last = 0; ///< Value at the previous boundary.
    };

    void advance(std::uint64_t now);
    void closeEpoch();
    void coalesce();

    static constexpr std::uint64_t kDisabled = ~std::uint64_t{0};

    std::vector<Track> tracks_;
    /** rows_[epoch][track] = counter delta over that epoch. */
    std::vector<std::vector<std::uint64_t>> rows_;
    std::uint64_t cyclesPerEpoch_ = 0;
    std::uint64_t nextEpochEnd_ = kDisabled;
    unsigned maxEpochs_ = 256;
};

} // namespace pmodv::stats

#endif // PMODV_STATS_TIMESERIES_HH
