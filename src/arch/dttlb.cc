#include "arch/dttlb.hh"

#include <bit>

namespace pmodv::arch
{

Dttlb::Dttlb(stats::Group *parent, unsigned entries, std::string name)
    : DomainCam(parent, entries, std::move(name), "DTTLB"),
      base_(entries, 0), size_(entries, 0)
{
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
        if (match)
            return &hit(first +
                        static_cast<unsigned>(std::countr_zero(match)));
    }
    ++misses;
    return nullptr;
}

std::optional<DttlbEntry>
Dttlb::insert(const DttlbEntry &entry)
{
    std::optional<DttlbEntry> evicted;
    const unsigned i = install(entry, evicted);
    base_[i] = entry.base;
    size_[i] = entry.size;
    return evicted;
}

bool
Dttlb::invalidate(DomainId domain)
{
    const int i = drop(domain);
    if (i < 0)
        return false;
    base_[i] = 0;
    size_[i] = 0;
    return true;
}

void
Dttlb::flushAll(std::vector<DttlbEntry> &dirty_out)
{
    DomainCam::flushAll(dirty_out);
    std::fill(base_.begin(), base_.end(), 0);
    std::fill(size_.begin(), size_.end(), 0);
}

bool
Dttlb::consistent(std::string *why) const
{
    if (!DomainCam::consistent(why))
        return false;
    for (unsigned i = 0; i < numEntries(); ++i) {
        const DttlbEntry &e = slots_[i];
        if (base_[i] != (e.used ? e.base : 0) ||
            size_[i] != (e.used ? e.size : 0))
            return fail(why, "the range of slot " + std::to_string(i));
        // Ranges end at or below 2^48, so base + size cannot wrap.
        for (unsigned j = 0; e.used && j < i; ++j) {
            if (slots_[j].used && e.base < base_[j] + size_[j] &&
                base_[j] < e.base + e.size)
                return fail(why, "slot " + std::to_string(i) +
                                     ", whose range overlaps slot " +
                                     std::to_string(j));
        }
    }
    return true;
}

} // namespace pmodv::arch
