/**
 * @file
 * Test-side helpers over a tlb::Tlb's product API: a fill that takes
 * the lookup miss Tlb::insert() requires, as TlbHierarchy does, and
 * read-only scans of entries() that touch no stats and no replacement
 * state.
 */

#ifndef PMODV_TESTS_TLB_HELPERS_HH
#define PMODV_TESTS_TLB_HELPERS_HH

#include "common/types.hh"
#include "tlb/tlb.hh"

namespace pmodv::test
{

/**
 * Translate @p entry's page through @p tlb the way TlbHierarchy does:
 * look it up and, on a miss, install @p entry. Returns the way that
 * holds the translation; a hit leaves that way as it was.
 */
inline tlb::TlbEntry &
fill(tlb::Tlb &tlb, const tlb::TlbEntry &entry)
{
    if (tlb::TlbEntry *hit =
            tlb.lookup(entry.vpn << pageShift(entry.pageSize)))
        return *hit;
    return tlb.insert(entry);
}

/** The valid way translating @p va (4K, then 2M, then 1G, as lookup()
 *  tries them), or nullptr. */
inline const tlb::TlbEntry *
cached(const tlb::Tlb &tlb, Addr va)
{
    for (PageSize ps :
         {PageSize::Size4K, PageSize::Size2M, PageSize::Size1G}) {
        for (const tlb::TlbEntry &e : tlb.entries()) {
            if (e.valid && e.pageSize == ps && e.vpn == va >> pageShift(ps))
                return &e;
        }
    }
    return nullptr;
}

/** Number of valid ways in @p tlb. */
inline unsigned
validCount(const tlb::Tlb &tlb)
{
    unsigned n = 0;
    for (const tlb::TlbEntry &e : tlb.entries())
        n += e.valid;
    return n;
}

} // namespace pmodv::test

#endif // PMODV_TESTS_TLB_HELPERS_HH
