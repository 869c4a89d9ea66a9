/**
 * @file
 * Process address-space metadata: which VA ranges are mapped, with
 * what page permission, which protection domain (PMO id) they belong
 * to, and whether they are DRAM or NVM backed.
 *
 * This is the simulator's stand-in for the OS page table contents the
 * MMU would consult on a page walk: attach() creates a region exactly
 * the way the paper's attach system call does (aligned, contiguous VA
 * range sized to a page-table level).
 */

#ifndef PMODV_TLB_ADDRSPACE_HH
#define PMODV_TLB_ADDRSPACE_HH

#include <vector>

#include "common/types.hh"

namespace pmodv::tlb
{

/** Metadata of one mapped VA region. */
struct Region
{
    Addr base = 0;
    Addr size = 0;
    DomainId domain = kNullDomain;
    Perm pagePerm = Perm::ReadWrite; ///< Process-level page permission.
    MemClass memClass = MemClass::Dram;
    PageSize pageSize = PageSize::Size4K;

    bool contains(Addr a) const { return a >= base && a < base + size; }
    Addr end() const { return base + size; }
};

/**
 * The per-process address-space map. Regions never overlap.
 *
 * Regions are stored by value in one dense array, and order_ lists
 * their indices by base address. find() — the page walk — first probes
 * a flat table keyed by 2 MB chunk number whose slot names the sole
 * region touching the chunk, so such a walk costs one probe instead of
 * a binary search over order_ (DESIGN.md §8). Shared chunks and
 * regions over kMaxIndexedChunks chunks fall back to that search.
 * The pointer find() returns is valid until the next map() or
 * unmapDomain().
 */
class AddressSpace
{
  public:
    /**
     * Map a region. The VA range must be aligned to and sized as a
     * multiple of the region's page size, must not wrap past 2^64 and
     * must not overlap an existing region; panics otherwise (the
     * attach syscall enforces this before calling in).
     */
    void map(const Region &region);

    /** Unmap every region belonging to @p domain; returns count. */
    unsigned unmapDomain(DomainId domain);

    /** The region containing @p addr, or nullptr when unmapped. */
    const Region *find(Addr addr) const;

    /** All regions, ordered by base address. */
    std::vector<Region> regions() const;

    std::size_t numRegions() const { return regions_.size(); }

    /** log2 of the index's chunk size (2 MB). */
    static constexpr unsigned kChunkShift = 21;
    /** Regions spanning more chunks than this (1 GB) stay unindexed,
     *  bounding the index at 512 slots per region. */
    static constexpr Addr kMaxIndexedChunks = 512;

  private:
    /** A slot packs a chunk number (high 43 bits) over a tag (low 21
     *  bits): 0 = empty slot, else the sole region's index + 1, or
     *  kShared when several regions touch the chunk (or its sole
     *  region's index is 2^21 - 2 or more: the search finds it). */
    static constexpr std::uint64_t kTagMask =
        (std::uint64_t{1} << kChunkShift) - 1;
    static constexpr std::uint64_t kShared = kTagMask;

    static Addr firstChunk(const Region &r) { return r.base >> kChunkShift; }
    static Addr lastChunk(const Region &r)
    {
        return (r.end() - 1) >> kChunkShift;
    }
    static bool indexed(const Region &r)
    {
        return lastChunk(r) - firstChunk(r) < kMaxIndexedChunks;
    }

    /** Count of regions whose base is <= @p addr (an order_ position). */
    std::size_t upperPos(Addr addr) const;
    /** Slot of @p chunk, or the empty slot ending its probe run. */
    std::size_t probe(Addr chunk) const;
    /** Enter regions_[@p i]'s chunks into the table. */
    void index(std::uint32_t i);
    /** Rebuild order_ and, at @p slots slots, the table from regions_. */
    void reindex(std::size_t slots);

    std::vector<Region> regions_;
    /** regions_ indices ordered by base address. */
    std::vector<std::uint32_t> order_;
    /** Linear-probing chunk table: a power of two, at most half full. */
    std::vector<std::uint64_t> table_ = std::vector<std::uint64_t>(16);
    std::size_t used_ = 0; ///< Occupied slots.
    /** Regions too large to index; while non-zero, an index miss is
     *  no proof that a VA is unmapped. */
    std::size_t unindexed_ = 0;
};

} // namespace pmodv::tlb

#endif // PMODV_TLB_ADDRSPACE_HH
