#include "arch/dttlb.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace pmodv::arch
{

Dttlb::Dttlb(stats::Group *parent, unsigned entries, std::string name)
    : stats::Group(parent, std::move(name)),
      hits(this, "hits", "VA lookups that matched"),
      misses(this, "misses", "VA lookups that missed"),
      evictions(this, "evictions", "slots evicted by capacity"),
      missLatency(this, "miss_latency",
                  "cycles spent servicing each DTTLB miss"),
      slots_(entries), base_(entries, 0), size_(entries, 0),
      tags_(entries + simd::kTagPad, 0), plru_(entries),
      touchLut_(TreePlru::makeTouchLut(entries))
{
    fatal_if(entries == 0, "DTTLB needs at least one entry");
}

void
Dttlb::clearSlot(unsigned i)
{
    slots_[i] = DttlbEntry{};
    base_[i] = 0;
    size_[i] = 0;
    tags_[i] = 0;
}

DttlbEntry *
Dttlb::lookupVa(Addr va)
{
    // va - base < size holds exactly when va lies in [base, base +
    // size). Each 64-slot block (the whole CAM in every shipped
    // configuration) ORs its compares into one mask.
    const unsigned n = numEntries();
    for (unsigned first = 0; first < n; first += 64) {
        const unsigned end = std::min(n, first + 64);
        std::uint64_t match = 0;
        for (unsigned i = first; i < end; ++i)
            match |= std::uint64_t{va - base_[i] < size_[i]} << (i - first);
        if (match) {
            const unsigned i =
                first + static_cast<unsigned>(std::countr_zero(match));
            ++hits;
            touchSlot(i);
            return &slots_[i];
        }
    }
    ++misses;
    return nullptr;
}

DttlbEntry *
Dttlb::findDomain(DomainId domain)
{
    const int i = simd::findU64(tags_.data(), numEntries(), packTag(domain));
    return i >= 0 ? &slots_[i] : nullptr;
}

DttlbEntry &
Dttlb::insert(const DttlbEntry &entry, DttlbEntry &evicted,
              bool &had_eviction)
{
    had_eviction = false;
    // Reuse the slot already caching this domain, else a free slot,
    // else the pseudo-LRU victim.
    const unsigned n = numEntries();
    int slot = simd::findU64(tags_.data(), n, packTag(entry.domain));
    if (slot < 0)
        slot = simd::findU64(tags_.data(), n, 0);
    if (slot < 0) {
        slot = static_cast<int>(plru_.victim());
        evicted = slots_[slot];
        had_eviction = true;
        ++evictions;
    }
    slots_[slot] = entry;
    slots_[slot].used = true;
    base_[slot] = entry.base;
    size_[slot] = entry.size;
    tags_[slot] = packTag(entry.domain);
    touchSlot(static_cast<unsigned>(slot));
    return slots_[slot];
}

bool
Dttlb::invalidateDomain(DomainId domain)
{
    const int i = simd::findU64(tags_.data(), numEntries(), packTag(domain));
    if (i < 0)
        return false;
    clearSlot(static_cast<unsigned>(i));
    return true;
}

void
Dttlb::flushAll(std::vector<DttlbEntry> &dirty_out)
{
    for (unsigned i = 0; i < numEntries(); ++i) {
        if (slots_[i].used && slots_[i].dirty)
            dirty_out.push_back(slots_[i]);
        clearSlot(i);
    }
    plru_.reset();
}

unsigned
Dttlb::usedCount() const
{
    unsigned n = 0;
    for (const auto &slot : slots_) {
        if (slot.used)
            ++n;
    }
    return n;
}

} // namespace pmodv::arch
