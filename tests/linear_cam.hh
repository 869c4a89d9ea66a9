/**
 * @file
 * A domain-tagged buffer written as a plain linear scan, with the
 * range rule spelled out as va >= base && va < base + size: the
 * reference arch::DomainCam, the PTLB and the DTTLB are checked
 * against.
 */

#ifndef PMODV_TESTS_LINEAR_CAM_HH
#define PMODV_TESTS_LINEAR_CAM_HH

#include <optional>
#include <vector>

#include "common/plru.hh"
#include "common/types.hh"

namespace pmodv::test
{

/** Linear-scan twin of arch::DomainCam<Entry>; returns slot indices. */
template <typename Entry>
class LinearCam
{
  public:
    explicit LinearCam(unsigned entries) : slots_(entries), plru_(entries)
    {}

    int
    find(DomainId domain) const
    {
        for (unsigned i = 0; i < slots_.size(); ++i) {
            if (slots_[i].used && slots_[i].domain == domain)
                return static_cast<int>(i);
        }
        return -1;
    }

    int lookup(DomainId domain) { return count(find(domain)); }

    /** DTTLB only: the slot whose range holds @p va. */
    int
    lookupVa(Addr va)
    {
        int slot = -1;
        for (unsigned i = 0; slot < 0 && i < slots_.size(); ++i) {
            const Entry &e = slots_[i];
            if (e.used && va >= e.base && va < e.base + e.size)
                slot = static_cast<int>(i);
        }
        return count(slot);
    }

    unsigned
    insert(const Entry &entry, std::optional<Entry> &evicted)
    {
        int slot = find(entry.domain);
        for (unsigned i = 0; slot < 0 && i < slots_.size(); ++i) {
            if (!slots_[i].used)
                slot = static_cast<int>(i);
        }
        if (slot < 0) {
            slot = static_cast<int>(plru_.victim());
            evicted = slots_[slot];
            ++evictions;
        }
        slots_[slot] = entry;
        slots_[slot].used = true;
        plru_.touch(static_cast<unsigned>(slot));
        return static_cast<unsigned>(slot);
    }

    bool
    invalidate(DomainId domain)
    {
        const int i = find(domain);
        if (i < 0)
            return false;
        slots_[i] = Entry{};
        return true;
    }

    void
    flushAll(std::vector<Entry> &dirty_out)
    {
        for (Entry &e : slots_) {
            if (e.used && e.dirty)
                dirty_out.push_back(e);
            e = Entry{};
        }
        plru_.reset();
    }

    Entry &slot(unsigned i) { return slots_[i]; }

    unsigned hits = 0;
    unsigned misses = 0;
    unsigned evictions = 0;

  private:
    /** Count a lookup that found @p slot (-1: a miss). */
    int
    count(int slot)
    {
        if (slot < 0) {
            ++misses;
        } else {
            ++hits;
            plru_.touch(static_cast<unsigned>(slot));
        }
        return slot;
    }

    std::vector<Entry> slots_;
    TreePlru plru_;
};

} // namespace pmodv::test

#endif // PMODV_TESTS_LINEAR_CAM_HH
