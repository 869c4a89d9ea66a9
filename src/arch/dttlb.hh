/**
 * @file
 * The Domain Translation Table Lookaside Buffer (DTTLB) of the
 * hardware MPK-virtualization design: a small CAM (16 entries in the
 * base configuration) caching DTT entries. Each entry tags an entire
 * PMO VA range and records the domain id, the protection key the
 * domain currently maps to, a valid bit (domain presently holds a
 * key) and a dirty bit (key mapping changed since the DTT was
 * written).
 */

#ifndef PMODV_ARCH_DTTLB_HH
#define PMODV_ARCH_DTTLB_HH

#include <string>
#include <vector>

#include "common/plru.hh"
#include "common/simd.hh"
#include "common/types.hh"
#include "stats/stats.hh"

namespace pmodv::arch
{

/** One DTTLB entry (VA-range tagged). */
struct DttlbEntry
{
    bool used = false;  ///< Slot occupied.
    Addr base = 0;      ///< VA range tag: base...
    Addr size = 0;      ///< ...and length of the whole PMO range.
    DomainId domain = kNullDomain;
    ProtKey key = kNullKey;
    bool valid = false; ///< Domain currently maps to `key`.
    bool dirty = false; ///< Mapping differs from the in-memory DTT.
};

/**
 * The DTTLB CAM with tree-PLRU slot replacement.
 *
 * Each probe compares every slot and ORs the outcomes into one bit
 * mask, so it never branches on where (or whether) a slot matched.
 * The range and domain tags live in packed rows next to the slot
 * payloads; callers may mutate key/valid/dirty through returned
 * pointers, but never the tags.
 */
class Dttlb : public stats::Group
{
  public:
    /** @p name distinguishes per-core instances ("dttlb_core1", ...). */
    Dttlb(stats::Group *parent, unsigned entries,
          std::string name = "dttlb");

    unsigned numEntries() const
    {
        return static_cast<unsigned>(slots_.size());
    }

    /**
     * Associative lookup by VA; returns the matching entry (touching
     * replacement state and hit/miss stats) or nullptr.
     */
    DttlbEntry *lookupVa(Addr va);

    /** Lookup by domain id without stats side effects. */
    DttlbEntry *findDomain(DomainId domain);

    /**
     * Install an entry, evicting a pseudo-LRU slot when full. When an
     * occupied slot is evicted, a copy of it is left in @p evicted
     * (and @p had_eviction set) so the caller can write dirty state
     * back to the DTT. Returns the installed entry.
     */
    DttlbEntry &insert(const DttlbEntry &entry, DttlbEntry &evicted,
                       bool &had_eviction);

    /** Drop the entry of @p domain (SETPERM invalidation); false if
     *  not cached. */
    bool invalidateDomain(DomainId domain);

    /**
     * Flush everything (context switch). Dirty entries are appended
     * to @p dirty_out so the caller can write them back.
     */
    void flushAll(std::vector<DttlbEntry> &dirty_out);

    /** Occupied slot count. */
    unsigned usedCount() const;

    stats::Scalar hits;
    stats::Scalar misses;
    stats::Scalar evictions;
    stats::Histogram missLatency; ///< Cycles per miss (DTT walk).

  private:
    /** Packed domain tag mirrored per slot (0 = unused slot). */
    static std::uint64_t packTag(DomainId domain)
    {
        return (static_cast<std::uint64_t>(domain) << 1) | 1;
    }

    void touchSlot(unsigned slot)
    {
        if (!touchLut_.empty())
            plru_.touchMasked(touchLut_[slot]);
        else
            plru_.touch(slot);
    }

    /** Empty slot @p i and its tags. */
    void clearSlot(unsigned i);

    std::vector<DttlbEntry> slots_;
    /**
     * Range tag per slot. An unused slot has size 0, so the one
     * unsigned compare va - base < size can never match it. Used
     * ranges are disjoint (AddressSpace rejects overlapping maps), so
     * at most one slot contains a VA.
     */
    std::vector<Addr> base_;
    std::vector<Addr> size_;
    /** Packed domain tag per slot (+simd::kTagPad zero slots). A
     *  domain occupies at most one slot (insert dedupes). */
    std::vector<std::uint64_t> tags_;
    TreePlru plru_;
    std::vector<TreePlru::TouchOp> touchLut_;
};

} // namespace pmodv::arch

#endif // PMODV_ARCH_DTTLB_HH
