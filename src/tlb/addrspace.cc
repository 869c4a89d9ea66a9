#include "tlb/addrspace.hh"

#include "common/bitutil.hh"
#include "common/logging.hh"

namespace pmodv::tlb
{

void
AddressSpace::map(const Region &region)
{
    panic_if(region.size == 0, "cannot map an empty region");
    const Addr page = pageBytes(region.pageSize);
    panic_if(!isAligned(region.base, page),
             "region base 0x%llx not aligned to its page size",
             static_cast<unsigned long long>(region.base));
    panic_if(!isAligned(region.size, page),
             "region size 0x%llx not a multiple of its page size",
             static_cast<unsigned long long>(region.size));
    // end() is base + size in u64: a range reaching 2^64 would wrap it.
    panic_if(region.size > ~Addr{0} - region.base,
             "region range wraps the 64-bit address space");

    // Overlap check against neighbours.
    auto next = regions_.lower_bound(region.base);
    if (next != regions_.end()) {
        panic_if(region.end() > next->second.base,
                 "region overlaps an existing mapping");
    }
    if (next != regions_.begin()) {
        auto prev = std::prev(next);
        panic_if(prev->second.end() > region.base,
                 "region overlaps an existing mapping");
    }
    const Region &stored =
        regions_.emplace_hint(next, region.base, region)->second;

    if (!indexed(stored)) {
        ++unindexed_;
        return;
    }
    for (Addr c = firstChunk(stored); c <= lastChunk(stored); ++c) {
        auto [it, fresh] = chunks_.try_emplace(c, &stored);
        if (!fresh)
            it->second = nullptr;
    }
}

void
AddressSpace::unindex(const Region &removed)
{
    if (!indexed(removed)) {
        --unindexed_;
        return;
    }
    // Re-derive each chunk the region touched from the ordered map.
    // Regions are disjoint and sorted, so their ends are sorted too:
    // walking down from the chunk's last byte, the first region ending
    // at or below the chunk's start ends the scan.
    for (Addr c = firstChunk(removed); c <= lastChunk(removed); ++c) {
        const Addr lo = c << kChunkShift;
        const Addr last = lo + ((Addr{1} << kChunkShift) - 1);
        const Region *sole = nullptr;
        unsigned touching = 0;
        for (auto it = regions_.upper_bound(last);
             it != regions_.begin();) {
            --it;
            if (it->second.end() <= lo)
                break;
            if (indexed(it->second)) {
                sole = &it->second;
                ++touching;
            }
        }
        if (touching == 0)
            chunks_.erase(c);
        else
            chunks_[c] = touching == 1 ? sole : nullptr;
    }
}

bool
AddressSpace::unmap(Addr base)
{
    auto it = regions_.find(base);
    if (it == regions_.end())
        return false;
    const Region removed = it->second;
    regions_.erase(it);
    unindex(removed);
    return true;
}

unsigned
AddressSpace::unmapDomain(DomainId domain)
{
    unsigned n = 0;
    for (auto it = regions_.begin(); it != regions_.end();) {
        if (it->second.domain == domain) {
            const Region removed = it->second;
            it = regions_.erase(it);
            unindex(removed);
            ++n;
        } else {
            ++it;
        }
    }
    return n;
}

const Region *
AddressSpace::find(Addr addr) const
{
    const auto it = chunks_.find(addr >> kChunkShift);
    if (it == chunks_.end()) {
        if (unindexed_ == 0)
            return nullptr;
    } else if (const Region *sole = it->second) {
        // The only indexed region touching the chunk: any other region
        // containing addr would touch the chunk too, so unless an
        // unindexed region exists, a miss here is final.
        if (sole->contains(addr))
            return sole;
        if (unindexed_ == 0)
            return nullptr;
    }
    // Shared chunk, or an unindexed region may hold addr.
    auto next = regions_.upper_bound(addr);
    if (next == regions_.begin())
        return nullptr;
    const Region &prev = std::prev(next)->second;
    return prev.contains(addr) ? &prev : nullptr;
}

const Region *
AddressSpace::findDomain(DomainId domain) const
{
    for (const auto &[base, region] : regions_) {
        if (region.domain == domain)
            return &region;
    }
    return nullptr;
}

std::vector<Region>
AddressSpace::regions() const
{
    std::vector<Region> out;
    out.reserve(regions_.size());
    for (const auto &[base, region] : regions_)
        out.push_back(region);
    return out;
}

} // namespace pmodv::tlb
