/**
 * @file
 * A set-associative cache tag model with exact LRU replacement,
 * write-back write-allocate policy and full statistics. Only tags are
 * tracked (no data): the timing core needs hit/miss outcomes and the
 * paper's fixed per-level latencies.
 */

#ifndef PMODV_MEM_CACHE_HH
#define PMODV_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/lrurank.hh"
#include "common/simd.hh"
#include "common/types.hh"
#include "stats/stats.hh"

namespace pmodv::mem
{

/** Static configuration of one cache level. */
struct CacheParams
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 32 * 1024;
    unsigned assoc = 8;
    unsigned lineBytes = 64;
    Cycles hitLatency = 1;
};

/** Outcome of one cache access. */
struct CacheResult
{
    bool hit = false;
    bool writeback = false; ///< A dirty line was evicted by the fill.
};

/**
 * One level of set-associative cache. Thread-safe only for
 * single-threaded replay (each replay pipeline owns its own caches).
 *
 * All lines live in one flat vector (set-major) and the replacement
 * state is flat too — one packed LRU rank word per set — so the replay
 * hot loop walks contiguous arrays with no per-set heap indirection.
 * At most 16 ways (lru::kMaxPackedWays) are supported.
 */
class Cache : public stats::Group
{
  public:
    Cache(stats::Group *parent, const CacheParams &params);

    const CacheParams &params() const { return params_; }
    unsigned numSets() const { return numSets_; }

    /**
     * Access the line containing @p addr. Misses allocate; stores mark
     * the line dirty. A hit resolves inline; a miss takes fill().
     */
    CacheResult
    access(Addr addr, AccessType type)
    {
        // Dispatch once on the configured width so the probe and the
        // rank update compile with constant widths for Table II's
        // geometries (8-way L1D, 16-way L2).
        switch (params_.assoc) {
          case 8:
            return accessImpl<8>(addr, type);
          case 16:
            return accessImpl<16>(addr, type);
          default:
            return accessImpl<0>(addr, type);
        }
    }

    // Stats (public so formulas above can reference them).
    stats::Scalar hits;
    stats::Scalar misses;
    stats::Scalar evictions; ///< Valid lines displaced by a fill.
    stats::Scalar writebacks; ///< Dirty lines evicted.
    /** Always 0: no modelled path invalidates a line. Kept so the
     *  exported stats trees keep their shape. */
    stats::Scalar invalidations;
    stats::Formula missRate; ///< misses / accesses.

  private:
    // The line tag itself lives only in the packed tags_ array (the
    // probe path's working set); per-line state is just two flags, so
    // the flat line array stays tiny and host-cache friendly.
    struct Line
    {
        bool valid = false;
        bool dirty = false;
    };

    Addr lineTag(Addr addr) const { return addr >> lineShift_; }
    std::size_t setIndex(Addr addr) const
    {
        return (addr >> lineShift_) & (numSets_ - 1);
    }

    /** Packed probe tag mirrored per way in tags_ (0 = invalid). */
    static std::uint64_t packTag(Addr tag) { return (tag << 1) | 1; }

    /**
     * Body of access(), specialized on the associativity (A == 0 reads
     * params_.assoc at runtime): the probe and the hit bookkeeping.
     */
    template <unsigned A> CacheResult accessImpl(Addr addr, AccessType type);

    /** Allocate the line tagged @p ptag in set @p si after a miss. */
    CacheResult fill(std::size_t si, std::uint64_t ptag, AccessType type);

    unsigned victimWay(std::size_t si) const;

    CacheParams params_;
    unsigned numSets_;
    unsigned lineShift_;
    std::vector<Line> lines_; ///< numSets_ x assoc, set-major.
    /** Packed tag per way (+simd::kTagPad zero slots), set-major. */
    std::vector<std::uint64_t> tags_;
    // Exact LRU keeps one packed word per set: a 4-bit recency rank
    // per way (assoc - 1 = MRU, 0 = LRU). This is victim-for-victim
    // identical to per-way timestamp scans — victims are only
    // consulted when the set is full, by which point every way has
    // been touched and the ranks are exactly the recency permutation
    // of last-touch order — but costs one cache line per eight sets.
    std::vector<std::uint64_t> lruRank_;
    /** Forces unused high nibbles non-zero in the victim search. */
    std::uint64_t lruHighMask_ = 0;
    /** Valid-way count per set: a full set skips the free-way probe. */
    std::vector<std::uint8_t> setValid_;
};

template <unsigned A>
inline CacheResult
Cache::accessImpl(Addr addr, AccessType type)
{
    const unsigned assoc = A ? A : params_.assoc;
    const std::uint64_t ptag = packTag(lineTag(addr));
    const std::size_t si = setIndex(addr);
    const int w = simd::findU64(tags_.data() + si * assoc, assoc, ptag);
    if (w < 0)
        return fill(si, ptag, type);
    ++hits;
    if (type == AccessType::Write)
        lines_[si * assoc + w].dirty = true;
    lruRank_[si] =
        lru::touchRank(lruRank_[si], static_cast<unsigned>(w), assoc);
    return {true, false};
}

} // namespace pmodv::mem

#endif // PMODV_MEM_CACHE_HH
