#include "arch/ptlb.hh"

#include "common/logging.hh"

namespace pmodv::arch
{

Ptlb::Ptlb(stats::Group *parent, unsigned entries, std::string name)
    : stats::Group(parent, std::move(name)),
      hits(this, "hits", "domain lookups that matched"),
      misses(this, "misses", "domain lookups that missed"),
      evictions(this, "evictions", "slots evicted by capacity"),
      missLatency(this, "miss_latency",
                  "cycles spent servicing each PTLB miss"),
      slots_(entries), tags_(entries + simd::kTagPad, 0), plru_(entries),
      touchLut_(TreePlru::makeTouchLut(entries))
{
    fatal_if(entries == 0, "PTLB needs at least one entry");
}

PtlbEntry *
Ptlb::lookup(DomainId domain)
{
    // L0 fast path: the single-hot-domain case (one tenant touching
    // one PMO repeatedly) never rescans the slot array.
    if (l0Gen_ == gen_ && l0Domain_ == domain) {
        ++l0Hits_;
        ++hits;
        touchSlot(l0Slot_);
        return &slots_[l0Slot_];
    }

    const int i = simd::findU64(tags_.data(),
                                static_cast<unsigned>(slots_.size()),
                                packTag(domain));
    if (i >= 0) {
        ++hits;
        touchSlot(static_cast<unsigned>(i));
        l0Gen_ = gen_;
        l0Domain_ = domain;
        l0Slot_ = static_cast<unsigned>(i);
        return &slots_[i];
    }
    ++misses;
    return nullptr;
}

const PtlbEntry *
Ptlb::probe(DomainId domain) const
{
    const int i = simd::findU64(tags_.data(),
                                static_cast<unsigned>(slots_.size()),
                                packTag(domain));
    return i >= 0 ? &slots_[i] : nullptr;
}

PtlbEntry &
Ptlb::insert(const PtlbEntry &entry, PtlbEntry &evicted,
             bool &had_eviction)
{
    had_eviction = false;
    const unsigned n = static_cast<unsigned>(slots_.size());
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
    tags_[slot] = packTag(entry.domain);
    touchSlot(static_cast<unsigned>(slot));
    ++gen_;
    l0Gen_ = gen_;
    l0Domain_ = entry.domain;
    l0Slot_ = static_cast<unsigned>(slot);
    return slots_[slot];
}

bool
Ptlb::invalidate(DomainId domain)
{
    const int i = simd::findU64(tags_.data(),
                                static_cast<unsigned>(slots_.size()),
                                packTag(domain));
    if (i < 0)
        return false;
    slots_[i] = PtlbEntry{};
    tags_[i] = 0;
    ++gen_;
    return true;
}

void
Ptlb::flushAll(std::vector<PtlbEntry> &dirty_out)
{
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        if (slots_[i].used && slots_[i].dirty)
            dirty_out.push_back(slots_[i]);
        slots_[i] = PtlbEntry{};
        tags_[i] = 0;
    }
    plru_.reset();
    ++gen_;
}

unsigned
Ptlb::usedCount() const
{
    unsigned n = 0;
    for (const auto &slot : slots_) {
        if (slot.used)
            ++n;
    }
    return n;
}

} // namespace pmodv::arch
