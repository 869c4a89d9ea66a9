#include "tlb/addrspace.hh"

#include <algorithm>
#include <bit>
#include <numeric>

#include "common/bitutil.hh"
#include "common/logging.hh"

namespace pmodv::tlb
{

std::size_t
AddressSpace::upperPos(Addr addr) const
{
    const auto base = [this](std::uint32_t i) { return regions_[i].base; };
    return static_cast<std::size_t>(
        std::ranges::upper_bound(order_, addr, {}, base) - order_.begin());
}

std::size_t
AddressSpace::probe(Addr chunk) const
{
    const std::size_t mask = table_.size() - 1;
    // Fibonacci hashing: the top log2(size) bits of chunk * 2^64 / phi.
    std::size_t i = (chunk * 0x9e3779b97f4a7c15ull) >>
                    (std::countl_zero(table_.size()) + 1);
    while (table_[i] != 0 && (table_[i] >> kChunkShift) != chunk)
        i = (i + 1) & mask;
    return i;
}

void
AddressSpace::index(std::uint32_t i)
{
    const Region &r = regions_[i];
    if (!indexed(r)) {
        ++unindexed_;
        return;
    }
    const std::uint64_t tag = std::min<std::uint64_t>(i + 1, kShared);
    for (Addr c = firstChunk(r); c <= lastChunk(r); ++c) {
        std::uint64_t &slot = table_[probe(c)];
        used_ += slot == 0;
        slot = slot == 0 ? (c << kChunkShift) | tag : slot | kShared;
    }
}

void
AddressSpace::reindex(std::size_t slots)
{
    order_.resize(regions_.size());
    std::iota(order_.begin(), order_.end(), 0u);
    std::ranges::sort(order_, {},
                      [this](std::uint32_t i) { return regions_[i].base; });
    table_.assign(slots, 0);
    used_ = unindexed_ = 0;
    for (std::uint32_t i = 0; i < regions_.size(); ++i)
        index(i);
}

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

    // Overlap check against the neighbours (prev catches an equal base).
    const std::size_t next = upperPos(region.base);
    panic_if((next < order_.size() &&
              region.end() > regions_[order_[next]].base) ||
                 (next > 0 && regions_[order_[next - 1]].end() > region.base),
             "region overlaps an existing mapping");
    const auto idx = static_cast<std::uint32_t>(regions_.size());
    regions_.push_back(region);
    order_.insert(order_.begin() + static_cast<std::ptrdiff_t>(next), idx);

    // Only the new region's chunks are entered, unless the table would
    // pass half full: then it doubles (or more) and is rebuilt.
    const std::size_t chunks =
        indexed(region) ? lastChunk(region) - firstChunk(region) + 1 : 0;
    if (2 * (used_ + chunks) > table_.size())
        reindex(std::bit_ceil(2 * (used_ + chunks)));
    else
        index(idx);
}

unsigned
AddressSpace::unmapDomain(DomainId domain)
{
    const auto n = static_cast<unsigned>(std::erase_if(
        regions_, [&](const Region &r) { return r.domain == domain; }));
    if (n > 0)
        reindex(table_.size());
    return n;
}

const Region *
AddressSpace::find(Addr addr) const
{
    const std::uint64_t tag = table_[probe(addr >> kChunkShift)] & kTagMask;
    if (tag != kShared) {
        // The only indexed region touching the chunk: any other region
        // containing addr would touch the chunk too, so unless an
        // unindexed region exists, a miss here is final.
        if (tag != 0 && regions_[tag - 1].contains(addr))
            return &regions_[tag - 1];
        if (unindexed_ == 0)
            return nullptr;
    }
    // Shared chunk, or an unindexed region may hold addr.
    const std::size_t next = upperPos(addr);
    if (next == 0)
        return nullptr;
    const Region &prev = regions_[order_[next - 1]];
    return prev.contains(addr) ? &prev : nullptr;
}

std::vector<Region>
AddressSpace::regions() const
{
    std::vector<Region> out;
    out.reserve(order_.size());
    for (std::uint32_t i : order_)
        out.push_back(regions_[i]);
    return out;
}

} // namespace pmodv::tlb
