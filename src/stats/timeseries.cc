#include "stats/timeseries.hh"

namespace pmodv::stats
{

void
TimeSeries::configure(std::uint64_t cycles_per_epoch,
                      unsigned max_epochs)
{
    cyclesPerEpoch_ = cycles_per_epoch;
    // Coalescing merges adjacent pairs, so the cap must be even.
    maxEpochs_ = max_epochs < 2 ? 2 : (max_epochs & ~1u);
    rows_.clear();
    nextEpochEnd_ = enabled() ? cyclesPerEpoch_ : kDisabled;
}

void
TimeSeries::track(const Scalar &stat, std::string label)
{
    if (!enabled())
        return;
    Track t;
    t.stat = &stat;
    t.label = std::move(label);
    t.last = stat.value();
    tracks_.push_back(std::move(t));
}

void
TimeSeries::advance(std::uint64_t now)
{
    // The first crossed epoch books the whole delta; further crossed
    // epochs see last == current and record zeros.
    while (now >= nextEpochEnd_) {
        closeEpoch();
        nextEpochEnd_ += cyclesPerEpoch_;
        if (rows_.size() >= maxEpochs_)
            coalesce();
    }
}

void
TimeSeries::closeEpoch()
{
    std::vector<std::uint64_t> row;
    row.reserve(tracks_.size());
    for (Track &t : tracks_) {
        const std::uint64_t now = t.stat->value();
        row.push_back(now - t.last);
        t.last = now;
    }
    rows_.push_back(std::move(row));
}

void
TimeSeries::coalesce()
{
    // Merge adjacent pairs and double the epoch width; row i then
    // covers [i*2W, (i+1)*2W) and the boundary invariant holds.
    const std::size_t half = rows_.size() / 2;
    for (std::size_t i = 0; i < half; ++i) {
        // Steal the even row first — rows_[i] aliases rows_[2*i] at
        // i == 0, so assigning through it directly would self-move.
        std::vector<std::uint64_t> dst = std::move(rows_[2 * i]);
        const std::vector<std::uint64_t> &src = rows_[2 * i + 1];
        for (std::size_t t = 0; t < dst.size(); ++t)
            dst[t] += src[t];
        rows_[i] = std::move(dst);
    }
    rows_.resize(half);
    cyclesPerEpoch_ *= 2;
    nextEpochEnd_ = (rows_.size() + 1) * cyclesPerEpoch_;
}

void
TimeSeries::finalize(std::uint64_t now)
{
    if (!enabled())
        return;
    advance(now);
    // Close the trailing partial epoch if any tracked counter moved
    // since the last boundary (or no epoch exists yet), so per-track
    // sums equal the counters' final values.
    bool moved = rows_.empty();
    for (const Track &t : tracks_) {
        if (t.stat->value() != t.last) {
            moved = true;
            break;
        }
    }
    if (moved) {
        closeEpoch();
        nextEpochEnd_ = rows_.size() * cyclesPerEpoch_ +
                        cyclesPerEpoch_;
        if (rows_.size() >= maxEpochs_)
            coalesce();
    }
}

} // namespace pmodv::stats
