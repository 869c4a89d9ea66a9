/**
 * @file
 * A set-associative TLB model. Entries carry, besides the usual
 * translation metadata, the 4-bit MPK protection key (MPK and MPK
 * virtualization schemes) or the 10-bit domain id (domain
 * virtualization scheme) — the distinguishing state the two designs
 * keep per TLB entry.
 */

#ifndef PMODV_TLB_TLB_HH
#define PMODV_TLB_TLB_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/plru.hh"
#include "common/simd.hh"
#include "common/types.hh"
#include "stats/stats.hh"

namespace pmodv::tlb
{

/** One TLB entry. */
struct TlbEntry
{
    bool valid = false;
    Addr vpn = 0; ///< Virtual page number (va >> pageShift).
    PageSize pageSize = PageSize::Size4K;
    Perm pagePerm = Perm::ReadWrite;
    MemClass memClass = MemClass::Dram;
    /** MPK protection key cached with the translation (kNullKey when
     *  the page is domainless). */
    ProtKey key = kNullKey;
    /** Domain id cached with the translation (domain-virtualization
     *  design only; kNullDomain otherwise). */
    DomainId domain = kNullDomain;
};

/** Static configuration of one TLB level. */
struct TlbParams
{
    std::string name = "tlb";
    unsigned entries = 64;
    unsigned assoc = 4;
    /** Cycles added to the translation when this level must be read
     *  (the L1 lookup is folded into the load pipeline → 0). */
    Cycles accessLatency = 0;
};

/**
 * One level of set-associative TLB.
 *
 * All ways live in one flat vector (set-major) and the per-set
 * replacement trackers are stored by value, so a lookup touches two
 * contiguous arrays instead of chasing per-set heap blocks. A per
 * page-size count of valid entries lets lookups skip the 2M/1G index
 * probes entirely when no entry of that size is cached — the common
 * case for 4K-only traces. A hashed count of valid 4K entries per
 * 2 MB chunk lets a range flush skip or cut short its tag scan.
 */
class Tlb : public stats::Group
{
  public:
    Tlb(stats::Group *parent, const TlbParams &params);

    const TlbParams &params() const { return params_; }
    unsigned numSets() const { return numSets_; }

    /**
     * Look up the translation of @p va; nullptr on miss. Hit updates
     * replacement state and statistics. The returned pointer stays
     * valid until the next insert/flush.
     */
    TlbEntry *
    lookup(Addr va)
    {
        // Dispatch once on the configured width so the probe loops
        // compile with constant trip counts for Table II's geometries
        // (4-way L1, 6-way L2).
        switch (params_.assoc) {
          case 4:
            return lookupImpl<4>(va);
          case 6:
            return lookupImpl<6>(va);
          default:
            return lookupImpl<0>(va);
        }
    }

    /**
     * Install @p entry in a free way of its set, else over the
     * pseudo-LRU victim. Returns a reference to the installed entry.
     *
     * Precondition: @p entry's page is not cached, as after a lookup()
     * of it that missed with no insert in between. The fill probes no
     * tag for the page, so breaking this leaves two ways holding it.
     */
    TlbEntry &insert(const TlbEntry &entry);

    /**
     * Invalidate every translation whose page overlaps
     * [base, base+size); a range running past the top of the address
     * space is clamped there, and an empty range flushes nothing.
     * Reads only the packed tags. The 4K scan is skipped when the
     * range touches no 2 MB chunk holding a 4K entry, and stops once
     * the entries those chunks count are all dropped.
     */
    unsigned flushRange(Addr base, Addr size);

    /** Invalidate translations carrying protection key @p key. */
    unsigned flushKey(ProtKey key);

    /** Every way, valid or not, set-major (for checks and tests). */
    std::span<const TlbEntry> entries() const { return ways_; }

    /**
     * Recompute the derived state (per-size and per-set valid counts,
     * packed tags and padding, chunk counts) from the ways and compare
     * it with what is kept. Returns false on a mismatch and, when
     * @p why is given, describes the first one. Touches no stats.
     */
    bool consistent(std::string *why = nullptr) const;

    stats::Scalar hits;
    stats::Scalar misses;
    stats::Scalar evictions; ///< Valid entries displaced by capacity.
    stats::Scalar flushedEntries; ///< Entries dropped by invalidations.
    stats::Formula missRate;      ///< misses / lookups.

  private:
    std::size_t setIndexFor(Addr vpn) const
    {
        return vpn & (numSets_ - 1);
    }

    /**
     * Packed probe tag mirrored per way in tags_: vpn | page-size
     * index | valid bit. Zero always means "invalid slot", so the
     * SIMD row probe needs no separate valid mask and the padding
     * tail never matches.
     */
    static std::uint64_t packTag(Addr vpn, PageSize ps)
    {
        return (vpn << 3) |
               (static_cast<std::uint64_t>(ps) << 1) | 1;
    }

    /** log2 of the 4K pages per chunk, the 2 MB span of one PMD. */
    static constexpr unsigned kChunkShift = 9;

    /** Count slot of 2 MB chunk @p chunk in chunkValid_ (Fibonacci
     *  hash, so evenly strided PMO bases spread over the slots). */
    std::size_t chunkSlot(Addr chunk) const
    {
        return static_cast<std::size_t>(
            (chunk * 0x9e3779b97f4a7c15ULL) >> chunkHashShift_);
    }

    /** Upper bound on the valid 4K entries among pages [lo, hi]: the
     *  summed counts of the chunk slots the pages hash to. */
    unsigned chunkBound(Addr lo, Addr hi) const;

    /**
     * Drop every valid entry of page size @p ps whose vpn lies in
     * [lo, hi], given that at most @p bound (> 0) such entries exist:
     * the scan stops at the bound-th drop. Returns the count.
     */
    unsigned flushPages(PageSize ps, Addr lo, Addr hi, unsigned bound);

    void dropEntry(std::size_t flat, std::size_t si)
    {
        TlbEntry &e = ways_[flat];
        if (e.pageSize == PageSize::Size4K)
            --chunkValid_[chunkSlot(e.vpn >> kChunkShift)];
        e.valid = false;
        tags_[flat] = 0;
        --sizeValid_[static_cast<unsigned>(e.pageSize)];
        --setValid_[si];
    }

    /**
     * Bodies of lookup()/insert(), specialized on the associativity
     * (A == 0 reads params_.assoc at runtime). The public entry points
     * dispatch on Table II's widths, 4 and 6, so the SIMD probe loops
     * fully unroll with compile-time trip counts. The lookup is inline
     * (below the class); the fill stays in tlb.cc.
     */
    template <unsigned A> TlbEntry *lookupImpl(Addr va);
    template <unsigned A> TlbEntry &insertImpl(const TlbEntry &entry);

    void touchWay(std::size_t si, unsigned way)
    {
        if (!touchLut_.empty())
            plru_[si].touchMasked(touchLut_[way]);
        else
            plru_[si].touch(way);
    }

    TlbParams params_;
    unsigned numSets_;
    std::vector<TlbEntry> ways_; ///< numSets_ x assoc, set-major.
    /** Packed tag per way (+simd::kTagPad zero slots), set-major. */
    std::vector<std::uint64_t> tags_;
    std::vector<TreePlru> plru_; ///< One tracker per set, by value.
    /** Branchless touch ops shared by every set (same way count). */
    std::vector<TreePlru::TouchOp> touchLut_;
    /** Table-driven victim() shared by every set. */
    const TreePlru::VictimLut *victimLut_ = nullptr;
    /** Valid-entry count per PageSize (indexed by the enum value). */
    unsigned sizeValid_[3] = {0, 0, 0};
    /** Valid-way count per set: a full set skips the free-way probe. */
    std::vector<std::uint8_t> setValid_;
    /**
     * Valid 4K entries per 2 MB chunk, hashed by chunkSlot(). Chunks
     * that collide share a count, so a count only bounds the entries
     * of a chunk from above: a collision costs a longer tag scan,
     * never a missed entry.
     */
    std::vector<std::uint16_t> chunkValid_;
    unsigned chunkHashShift_ = 0;
};

template <unsigned A>
inline TlbEntry *
Tlb::lookupImpl(Addr va)
{
    const unsigned assoc = A ? A : params_.assoc;
    // Pages of different sizes index differently; try each supported
    // size (smallest first — by far the common case). Sizes with no
    // valid entry anywhere are skipped outright.
    for (PageSize ps :
         {PageSize::Size4K, PageSize::Size2M, PageSize::Size1G}) {
        if (sizeValid_[static_cast<unsigned>(ps)] == 0)
            continue;
        const Addr vpn = va >> pageShift(ps);
        const std::size_t si = setIndexFor(vpn);
        const int w = simd::findU64(tags_.data() + si * assoc, assoc,
                                    packTag(vpn, ps));
        if (w >= 0) {
            ++hits;
            touchWay(si, static_cast<unsigned>(w));
            return &ways_[si * assoc + w];
        }
    }
    ++misses;
    return nullptr;
}

} // namespace pmodv::tlb

#endif // PMODV_TLB_TLB_HH
