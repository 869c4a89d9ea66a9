#include "tlb/tlb.hh"

#include <algorithm>
#include <bit>

#include "common/bitutil.hh"
#include "common/logging.hh"

namespace pmodv::tlb
{

Tlb::Tlb(stats::Group *parent, const TlbParams &params)
    : stats::Group(parent, params.name),
      hits(this, "hits"),
      misses(this, "misses"),
      evictions(this, "evictions"),
      flushedEntries(this, "flushed_entries"),
      missRate(this, "miss_rate",
               [this]() {
                   const std::uint64_t total =
                       hits.value() + misses.value();
                   return total == 0
                              ? 0.0
                              : static_cast<double>(misses.value()) /
                                    static_cast<double>(total);
               }),
      params_(params)
{
    fatal_if(params_.assoc == 0, "tlb '%s': associativity must be > 0",
             params_.name.c_str());
    fatal_if(params_.entries % params_.assoc != 0,
             "tlb '%s': entries must divide evenly into ways",
             params_.name.c_str());
    numSets_ = params_.entries / params_.assoc;
    fatal_if(!isPowerOfTwo(numSets_),
             "tlb '%s': set count must be a power of two",
             params_.name.c_str());
    ways_.resize(std::size_t{numSets_} * params_.assoc);
    tags_.assign(ways_.size() + simd::kTagPad, 0);
    plru_.assign(numSets_, TreePlru(params_.assoc));
    touchLut_ = TreePlru::makeTouchLut(params_.assoc);
    victimLut_ = &TreePlru::sharedVictimLut(params_.assoc);
    setValid_.assign(numSets_, 0);
    // Every valid 4K entry may hash to one chunk slot.
    fatal_if(params_.entries > UINT16_MAX,
             "tlb '%s': more than %u entries", params_.name.c_str(),
             unsigned{UINT16_MAX});
    // One count slot per entry, rounded up to a power of two (and at
    // least two, so the hash shift stays below 64): the valid 4K
    // entries occupy at most that many chunks, so collisions between
    // occupied chunks stay rare.
    const std::size_t chunk_slots =
        std::bit_ceil(std::max<std::size_t>(params_.entries, 2));
    chunkValid_.assign(chunk_slots, 0);
    chunkHashShift_ = 64 - floorLog2(chunk_slots);
}

template <unsigned A>
TlbEntry &
Tlb::insertImpl(const TlbEntry &entry)
{
    const unsigned assoc = A ? A : params_.assoc;
    const std::size_t si = setIndexFor(entry.vpn);
    // An invalid way, else the pseudo-LRU victim. A full set (the
    // steady state) skips the free-way probe via the per-set valid
    // count.
    int victim = -1;
    if (setValid_[si] < assoc)
        victim = simd::findU64(tags_.data() + si * assoc, assoc, 0);
    if (victim < 0) {
        victim = static_cast<int>(plru_[si].victim(*victimLut_));
        ++evictions;
    }
    const std::size_t flat = si * assoc + victim;
    // Overwriting a valid way: only the per-size and chunk counts
    // need fixing (the slot stays valid, the set count is unchanged);
    // the full dropEntry stores would be overwritten right below.
    TlbEntry &slot = ways_[flat];
    if (slot.valid) {
        --sizeValid_[static_cast<unsigned>(slot.pageSize)];
        if (slot.pageSize == PageSize::Size4K)
            --chunkValid_[chunkSlot(slot.vpn >> kChunkShift)];
    } else {
        ++setValid_[si];
    }
    slot = entry;
    slot.valid = true;
    tags_[flat] = packTag(entry.vpn, entry.pageSize);
    ++sizeValid_[static_cast<unsigned>(entry.pageSize)];
    touchWay(si, static_cast<unsigned>(victim));
    if (entry.pageSize == PageSize::Size4K)
        ++chunkValid_[chunkSlot(entry.vpn >> kChunkShift)];
    return ways_[flat];
}

TlbEntry &
Tlb::insert(const TlbEntry &entry)
{
    switch (params_.assoc) {
      case 4:
        return insertImpl<4>(entry);
      case 6:
        return insertImpl<6>(entry);
      default:
        return insertImpl<0>(entry);
    }
}

unsigned
Tlb::chunkBound(Addr lo, Addr hi) const
{
    const unsigned valid4k = sizeValid_[0];
    const Addr first = lo >> kChunkShift;
    const Addr span = (hi >> kChunkShift) - first;
    // Past one count per entry, reading counts costs more than the
    // tag scan it could save.
    if (span >= params_.entries)
        return valid4k;
    unsigned bound = 0;
    for (Addr i = 0; i <= span; ++i)
        bound += chunkValid_[chunkSlot(first + i)];
    return std::min(bound, valid4k);
}

unsigned
Tlb::flushPages(PageSize ps, Addr lo, Addr hi, unsigned bound)
{
    // tag - packTag(lo, ps) is (vpn - lo) << 3 exactly when the tag is
    // valid and of size ps; the rotate then yields vpn - lo (mod
    // 2^61), which is <= hi - lo iff vpn lies in [lo, hi]. Any other
    // tag (zero, padding, another size) leaves nonzero low bits that
    // the rotate lifts above bit 60, far beyond any vpn span.
    const std::uint64_t first = packTag(lo, ps);
    const Addr span = hi - lo;
    unsigned n = 0;
    for (std::size_t flat = 0; flat < ways_.size(); ++flat) {
        if (std::rotr(tags_[flat] - first, 3) <= span) {
            dropEntry(flat, flat / params_.assoc);
            if (++n == bound)
                break;
        }
    }
    return n;
}

unsigned
Tlb::flushRange(Addr base, Addr size)
{
    unsigned n = 0;
    if (size != 0) {
        // Last byte of the range, clamped so a range ending at (or
        // running past) 2^64 does not wrap.
        const Addr last = size - 1 > ~base ? ~Addr{0} : base + (size - 1);
        for (PageSize ps :
             {PageSize::Size4K, PageSize::Size2M, PageSize::Size1G}) {
            const unsigned valid = sizeValid_[static_cast<unsigned>(ps)];
            if (valid == 0)
                continue;
            const Addr lo = base >> pageShift(ps);
            const Addr hi = last >> pageShift(ps);
            // 4K entries in range all sit in the range's chunks; a
            // larger size is bounded by its valid count alone.
            const unsigned bound =
                ps == PageSize::Size4K ? chunkBound(lo, hi) : valid;
            if (bound != 0)
                n += flushPages(ps, lo, hi, bound);
        }
    }
    flushedEntries += n;
    return n;
}

unsigned
Tlb::flushKey(ProtKey key)
{
    unsigned n = 0;
    for (std::size_t flat = 0; flat < ways_.size(); ++flat) {
        if (ways_[flat].valid && ways_[flat].key == key) {
            dropEntry(flat, flat / params_.assoc);
            ++n;
        }
    }
    flushedEntries += n;
    return n;
}

bool
Tlb::consistent(std::string *why) const
{
    auto fail = [&](const std::string &what) {
        if (why)
            *why = "tlb '" + params_.name + "': mismatch in " + what;
        return false;
    };
    unsigned size_valid[3] = {0, 0, 0};
    std::vector<std::uint8_t> set_valid(numSets_, 0);
    std::vector<std::uint16_t> chunk_valid(chunkValid_.size(), 0);
    for (std::size_t flat = 0; flat < ways_.size(); ++flat) {
        const TlbEntry &e = ways_[flat];
        const std::size_t si = flat / params_.assoc;
        if (tags_[flat] != (e.valid ? packTag(e.vpn, e.pageSize) : 0))
            return fail("the packed tag of way " + std::to_string(flat));
        if (!e.valid)
            continue;
        if (setIndexFor(e.vpn) != si)
            return fail("the set of way " + std::to_string(flat));
        ++size_valid[static_cast<unsigned>(e.pageSize)];
        ++set_valid[si];
        if (e.pageSize == PageSize::Size4K)
            ++chunk_valid[chunkSlot(e.vpn >> kChunkShift)];
    }
    if (std::any_of(tags_.begin() + ways_.size(), tags_.end(),
                    [](std::uint64_t t) { return t != 0; }))
        return fail("the tag padding");
    if (!std::equal(size_valid, size_valid + 3, sizeValid_))
        return fail("the per-size valid counts");
    if (set_valid != setValid_)
        return fail("the per-set valid counts");
    if (chunk_valid != chunkValid_)
        return fail("the chunk counts");
    return true;
}

} // namespace pmodv::tlb
