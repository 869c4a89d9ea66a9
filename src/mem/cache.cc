#include "mem/cache.hh"

#include "common/bitutil.hh"
#include "common/logging.hh"

namespace pmodv::mem
{

Cache::Cache(stats::Group *parent, const CacheParams &params)
    : stats::Group(parent, params.name),
      hits(this, "hits"),
      misses(this, "misses"),
      evictions(this, "evictions"),
      writebacks(this, "writebacks"),
      invalidations(this, "invalidations"),
      missRate(this, "miss_rate",
               [this]() {
                   const std::uint64_t total =
                       hits.value() + misses.value();
                   return total == 0
                              ? 0.0
                              : static_cast<double>(misses.value()) /
                                    static_cast<double>(total);
               }),
      params_(params)
{
    fatal_if(!isPowerOfTwo(params_.lineBytes),
             "cache '%s': line size must be a power of two",
             params_.name.c_str());
    fatal_if(params_.assoc == 0, "cache '%s': associativity must be > 0",
             params_.name.c_str());
    fatal_if(params_.assoc > lru::kMaxPackedWays,
             "cache '%s': at most %u ways are supported",
             params_.name.c_str(), lru::kMaxPackedWays);
    const std::uint64_t lines = params_.sizeBytes / params_.lineBytes;
    fatal_if(lines < params_.assoc || lines % params_.assoc != 0,
             "cache '%s': size/assoc/line geometry is inconsistent",
             params_.name.c_str());
    numSets_ = static_cast<unsigned>(lines / params_.assoc);
    fatal_if(!isPowerOfTwo(numSets_),
             "cache '%s': set count must be a power of two",
             params_.name.c_str());
    lineShift_ = floorLog2(params_.lineBytes);

    lines_.resize(std::size_t{numSets_} * params_.assoc);
    tags_.assign(lines_.size() + simd::kTagPad, 0);
    setValid_.assign(numSets_, 0);
    lruRank_.assign(numSets_, 0);
    lruHighMask_ = lru::rankHighMask(params_.assoc);
}

unsigned
Cache::victimWay(std::size_t si) const
{
    // Prefer an invalid way before consulting the replacement state;
    // a full set (the steady state) skips the probe outright.
    if (setValid_[si] < params_.assoc) {
        const int invalid = simd::findU64(
            tags_.data() + si * params_.assoc, params_.assoc, 0);
        if (invalid >= 0)
            return static_cast<unsigned>(invalid);
    }
    // The packed rank word names the least-recent way in a couple of
    // ALU ops.
    return lru::victimRank(lruRank_[si], lruHighMask_);
}

CacheResult
Cache::fill(std::size_t si, std::uint64_t ptag, AccessType type)
{
    ++misses;
    const unsigned victim = victimWay(si);
    const std::size_t flat = si * params_.assoc + victim;
    Line &line = lines_[flat];
    if (line.valid)
        ++evictions;
    const bool wb = line.valid && line.dirty;
    if (wb)
        ++writebacks;
    if (!line.valid)
        ++setValid_[si];
    line.valid = true;
    line.dirty = (type == AccessType::Write);
    tags_[flat] = ptag;
    lruRank_[si] = lru::touchRank(lruRank_[si], victim, params_.assoc);
    return {false, wb};
}

} // namespace pmodv::mem
