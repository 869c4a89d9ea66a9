/**
 * @file
 * The Permission Table Lookaside Buffer (PTLB) of the hardware
 * domain-virtualization design: a small (16-entry) buffer caching the
 * current thread's domain permissions out of the OS-managed
 * Permission Table. Entries are {10-bit domain tag, 2-bit permission,
 * dirty bit}; dirty entries are written back on eviction and on
 * context switches.
 */

#ifndef PMODV_ARCH_PTLB_HH
#define PMODV_ARCH_PTLB_HH

#include <string>
#include <vector>

#include "common/plru.hh"
#include "common/simd.hh"
#include "common/types.hh"
#include "stats/stats.hh"

namespace pmodv::arch
{

/** One PTLB entry. */
struct PtlbEntry
{
    bool used = false;
    DomainId domain = kNullDomain;
    Perm perm = Perm::None;
    bool dirty = false;
};

/** The PTLB (fully associative, tree-PLRU replacement). */
class Ptlb : public stats::Group
{
  public:
    /** @p name distinguishes per-core instances ("ptlb_core1", ...). */
    Ptlb(stats::Group *parent, unsigned entries,
         std::string name = "ptlb");

    unsigned numEntries() const
    {
        return static_cast<unsigned>(slots_.size());
    }

    /** Lookup by domain; touches replacement state and stats. */
    PtlbEntry *lookup(DomainId domain);

    /** Probe without side effects. */
    const PtlbEntry *probe(DomainId domain) const;

    /**
     * Install an entry (evicting pseudo-LRU when full). An evicted
     * occupied slot is copied to @p evicted with @p had_eviction set.
     */
    PtlbEntry &insert(const PtlbEntry &entry, PtlbEntry &evicted,
                      bool &had_eviction);

    /** Drop the entry of @p domain (detach); false when absent. */
    bool invalidate(DomainId domain);

    /** Flush all entries, appending dirty ones to @p dirty_out. */
    void flushAll(std::vector<PtlbEntry> &dirty_out);

    unsigned usedCount() const;

    /** Lookups answered by the one-entry L0 filter (raw counter). */
    std::uint64_t l0Hits() const { return l0Hits_; }

    /** Monotonic structure generation (L0 self-invalidation). */
    std::uint64_t generation() const { return gen_; }

    stats::Scalar hits;
    stats::Scalar misses;
    stats::Scalar evictions;
    stats::Histogram missLatency; ///< Cycles per miss (PT lookup).

  private:
    /** Packed probe tag mirrored per slot (0 = unused slot). */
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

    std::vector<PtlbEntry> slots_;
    /** Packed tag per slot (+simd::kTagPad zero slots). */
    std::vector<std::uint64_t> tags_;
    TreePlru plru_;
    std::vector<TreePlru::TouchOp> touchLut_;

    /**
     * L0 filter: the last domain hit or inserted. At most one used
     * slot per domain exists (insert dedupes), so a generation-valid
     * tag match provably lands on the same slot a full scan would.
     * In-place perm/dirty mutation through lookup()'s pointer leaves
     * the domain->slot mapping intact, so no bump is needed there.
     */
    std::uint64_t gen_ = 1;
    std::uint64_t l0Gen_ = 0;
    DomainId l0Domain_ = kNullDomain;
    unsigned l0Slot_ = 0;
    std::uint64_t l0Hits_ = 0;
};

} // namespace pmodv::arch

#endif // PMODV_ARCH_PTLB_HH
