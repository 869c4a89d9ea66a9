/**
 * @file
 * The domain-tagged CAM both of the paper's protection buffers are
 * built from: the MPK-virtualization DTTLB and the
 * domain-virtualization PTLB. Each is a small (16-entry) fully
 * associative buffer tagged by domain id, with tree pseudo-LRU slot
 * replacement and a dirty bit that is written back on eviction and on
 * a context switch.
 */

#ifndef PMODV_ARCH_DOMAIN_CAM_HH
#define PMODV_ARCH_DOMAIN_CAM_HH

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/plru.hh"
#include "common/simd.hh"
#include "common/types.hh"
#include "stats/stats.hh"

namespace pmodv::arch
{

/**
 * A fully associative buffer of @p Entry slots, tagged by domain id.
 *
 * @p Entry is a plain struct with `bool used`, `DomainId domain` and
 * `bool dirty` members; its other members are the payload. Callers may
 * mutate the payload and the dirty bit in place through the pointers
 * find() and lookup() return, but never `used` or `domain`: those are
 * mirrored in the packed tag row that every probe scans. A domain
 * occupies at most one slot (insert() reuses its slot).
 */
template <typename Entry>
class DomainCam : public stats::Group
{
  public:
    /** @p buffer names the structure in errors ("PTLB"). */
    DomainCam(stats::Group *parent, unsigned entries, std::string name,
              const std::string &buffer)
        : stats::Group(parent, std::move(name)),
          hits(this, "hits"),
          misses(this, "misses"),
          evictions(this, "evictions"),
          missLatency(this, "miss_latency"),
          slots_(entries), tags_(entries + simd::kTagPad, 0),
          plru_(entries), touchLut_(TreePlru::makeTouchLut(entries)),
          victimLut_(TreePlru::sharedVictimLut(entries))
    {
        fatal_if(entries == 0, "%s needs at least one entry",
                 buffer.c_str());
    }

    unsigned numEntries() const
    {
        return static_cast<unsigned>(slots_.size());
    }

    /** The entry of @p domain, or nullptr; touches no state. */
    Entry *find(DomainId domain)
    {
        const int i = slotOf(domain);
        return i >= 0 ? &slots_[i] : nullptr;
    }
    const Entry *find(DomainId domain) const
    {
        const int i = slotOf(domain);
        return i >= 0 ? &slots_[i] : nullptr;
    }

    /** Lookup by domain: counts a hit (touching PLRU) or a miss. */
    Entry *lookup(DomainId domain)
    {
        const int i = slotOf(domain);
        if (i < 0) {
            ++misses;
            return nullptr;
        }
        return &hit(static_cast<unsigned>(i));
    }

    /**
     * Install @p entry in the slot already holding its domain, else
     * the first free slot, else the pseudo-LRU victim. Returns the
     * evicted entry when a victim was displaced, so the caller can
     * write its dirty state back.
     */
    std::optional<Entry> insert(const Entry &entry)
    {
        std::optional<Entry> evicted;
        install(entry, evicted);
        return evicted;
    }

    /** Drop the entry of @p domain; false when it is not cached. */
    bool invalidate(DomainId domain) { return drop(domain) >= 0; }

    /**
     * Empty every slot (context switch), appending the dirty entries
     * to @p dirty_out in slot order.
     */
    void flushAll(std::vector<Entry> &dirty_out)
    {
        for (unsigned i = 0; i < numEntries(); ++i) {
            if (slots_[i].used && slots_[i].dirty)
                dirty_out.push_back(slots_[i]);
            clear(i);
        }
        plru_.reset();
    }

    /** Occupied slot count. */
    unsigned usedCount() const
    {
        return static_cast<unsigned>(std::count_if(
            slots_.begin(), slots_.end(),
            [](const Entry &e) { return e.used; }));
    }

    /**
     * Recheck the tag row against the slots: each tag is the packed
     * tag of its slot's domain (0 when free), the padding is zero and
     * no domain holds two slots. Returns false on a mismatch and, when
     * @p why is given, describes the first one. Touches no stats.
     */
    bool consistent(std::string *why = nullptr) const
    {
        const unsigned n = numEntries();
        for (unsigned i = 0; i < n; ++i) {
            const Entry &e = slots_[i];
            if (tags_[i] != (e.used ? packTag(e.domain) : 0))
                return fail(why, "the tag of slot " + std::to_string(i));
            if (e.used &&
                simd::findU64Scalar(tags_.data(), i, tags_[i]) >= 0)
                return fail(why, "slot " + std::to_string(i) +
                                     ", whose domain holds two slots");
        }
        if (std::any_of(tags_.begin() + n, tags_.end(),
                        [](std::uint64_t t) { return t != 0; }))
            return fail(why, "the tag padding");
        return true;
    }

    stats::Scalar hits;           ///< Counted lookups that matched.
    stats::Scalar misses;         ///< Counted lookups that missed.
    stats::Scalar evictions;      ///< Slots evicted by capacity.
    stats::Histogram missLatency; ///< Cycles per miss (table walk).

  protected:
    /** Slot holding @p domain, or -1. */
    int slotOf(DomainId domain) const
    {
        return simd::findU64(tags_.data(), numEntries(), packTag(domain));
    }

    /** Count a hit on slot @p i and mark it most recently used. */
    Entry &hit(unsigned i)
    {
        ++hits;
        touch(i);
        return slots_[i];
    }

    /** insert() that also names the slot @p entry went to. */
    unsigned install(const Entry &entry, std::optional<Entry> &evicted)
    {
        int slot = slotOf(entry.domain);
        if (slot < 0)
            slot = simd::findU64(tags_.data(), numEntries(), 0);
        if (slot < 0) {
            slot = static_cast<int>(plru_.victim(victimLut_));
            evicted = slots_[slot];
            ++evictions;
        }
        const unsigned i = static_cast<unsigned>(slot);
        slots_[i] = entry;
        slots_[i].used = true;
        tags_[i] = packTag(entry.domain);
        touch(i);
        return i;
    }

    /** invalidate() that names the freed slot (-1 when absent). */
    int drop(DomainId domain)
    {
        const int i = slotOf(domain);
        if (i >= 0)
            clear(static_cast<unsigned>(i));
        return i;
    }

    /** Record @p what as the mismatch consistent() found. */
    bool fail(std::string *why, const std::string &what) const
    {
        if (why)
            *why = groupName() + ": mismatch in " + what;
        return false;
    }

    std::vector<Entry> slots_;

  private:
    /** Packed domain tag mirrored per slot (0 = free slot). */
    static std::uint64_t packTag(DomainId domain)
    {
        return (static_cast<std::uint64_t>(domain) << 1) | 1;
    }

    void touch(unsigned i)
    {
        if (!touchLut_.empty())
            plru_.touchMasked(touchLut_[i]);
        else
            plru_.touch(i);
    }

    void clear(unsigned i)
    {
        slots_[i] = Entry{};
        tags_[i] = 0;
    }

    /** Packed tag per slot (+simd::kTagPad zero slots). */
    std::vector<std::uint64_t> tags_;
    TreePlru plru_;
    std::vector<TreePlru::TouchOp> touchLut_;
    /** Table-driven victim(), valid up to 16 entries. */
    const TreePlru::VictimLut &victimLut_;
};

} // namespace pmodv::arch

#endif // PMODV_ARCH_DOMAIN_CAM_HH
