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

#include <map>
#include <optional>
#include <unordered_map>
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
 * The ordered map is the source of truth. find() — the page walk —
 * first consults a hash index keyed by 2 MB chunk number, which holds
 * the sole region touching each chunk, so a walk whose chunk has one
 * region costs one hash probe instead of an ordered-tree search
 * (DESIGN.md §8). Chunks shared by several regions, and regions
 * spanning more than kMaxIndexedChunks chunks, fall back to the
 * ordered search.
 */
class AddressSpace
{
  public:
    AddressSpace() = default;
    // The index points into regions_: a copy would alias its source.
    AddressSpace(const AddressSpace &) = delete;
    AddressSpace &operator=(const AddressSpace &) = delete;

    /**
     * Map a region. The VA range must be aligned to and sized as a
     * multiple of the region's page size, must not wrap past 2^64 and
     * must not overlap an existing region; panics otherwise (the
     * attach syscall enforces this before calling in).
     */
    void map(const Region &region);

    /** Unmap the region based at @p base; false when absent. */
    bool unmap(Addr base);

    /** Unmap every region belonging to @p domain; returns count. */
    unsigned unmapDomain(DomainId domain);

    /** The region containing @p addr, or nullptr when unmapped. */
    const Region *find(Addr addr) const;

    /** The region of @p domain (first match), or nullptr. */
    const Region *findDomain(DomainId domain) const;

    /** All regions, ordered by base address. */
    std::vector<Region> regions() const;

    std::size_t numRegions() const { return regions_.size(); }

    /** log2 of the index's chunk size (2 MB). */
    static constexpr unsigned kChunkShift = 21;
    /** Regions spanning more chunks than this (1 GB) stay unindexed,
     *  bounding the index at 512 entries per region. */
    static constexpr Addr kMaxIndexedChunks = 512;

  private:
    static Addr firstChunk(const Region &r) { return r.base >> kChunkShift; }
    static Addr lastChunk(const Region &r)
    {
        return (r.end() - 1) >> kChunkShift;
    }
    static bool indexed(const Region &r)
    {
        return lastChunk(r) - firstChunk(r) < kMaxIndexedChunks;
    }

    /** Drop @p removed (already erased from regions_) from the index. */
    void unindex(const Region &removed);

    /** Keyed by region base address. */
    std::map<Addr, Region> regions_;

    /**
     * Chunk number -> the sole indexed region touching that chunk, or
     * nullptr when several do. Chunks no indexed region touches have
     * no entry. std::map nodes are stable, so the pointers survive
     * unrelated map()s and unmap()s.
     */
    std::unordered_map<Addr, const Region *> chunks_;
    /** Regions too large to index; while non-zero, an index miss is
     *  no proof that a VA is unmapped. */
    std::size_t unindexed_ = 0;
};

} // namespace pmodv::tlb

#endif // PMODV_TLB_ADDRSPACE_HH
