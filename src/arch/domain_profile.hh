/**
 * @file
 * Per-domain attribution counters — which PMOs a scheme spends its
 * protection work on. Every ProtectionScheme owns one DomainProfile
 * and feeds it from its hook sites: accesses that resolved to a
 * domain, protection-fill misses (DTTLB/PTLB refills, libmpk remap
 * traps), key evictions *suffered* (the victim's side), pages the
 * victim lost to the resulting shootdown, and SETPERMs executed on
 * the domain. The profile ranks domains into a "hot domains" table
 * (text reports and suite JSON), answering the paper-motivating
 * question "which PMO is thrashing the key space?".
 *
 * Domains are dense small integers in every workload (1..numPmos), so
 * the table is a flat vector indexed by DomainId with on-demand
 * growth; counting is branch-free beyond the bounds check.
 */

#ifndef PMODV_ARCH_DOMAIN_PROFILE_HH
#define PMODV_ARCH_DOMAIN_PROFILE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace pmodv::arch
{

/** Counters attributed to one domain. */
struct DomainCounters
{
    std::uint64_t accesses = 0;   ///< Checked accesses to the domain.
    std::uint64_t fillMisses = 0; ///< DTTLB/PTLB refills, remap traps.
    std::uint64_t evictions = 0;  ///< Times the domain lost its key.
    std::uint64_t shootdownPages = 0; ///< TLB entries lost to them.
    std::uint64_t setperms = 0;   ///< SETPERMs targeting the domain.

    bool operator==(const DomainCounters &) const = default;

    bool
    zero() const
    {
        return *this == DomainCounters{};
    }
};

/** One row of the hot-domain ranking. */
struct HotDomain
{
    DomainId domain = kNullDomain;
    DomainCounters counters;

    bool operator==(const HotDomain &) const = default;
};

/** The per-scheme domain attribution table. */
class DomainProfile
{
  public:
    void access(DomainId d) { ++at(d).accesses; }
    void fillMiss(DomainId d) { ++at(d).fillMisses; }
    void setPerm(DomainId d) { ++at(d).setperms; }

    /** Domain @p d lost its key; @p pages translations went with it. */
    void
    eviction(DomainId d, std::uint64_t pages)
    {
        DomainCounters &c = at(d);
        ++c.evictions;
        c.shootdownPages += pages;
    }

    /** Domains with at least one non-zero counter. */
    std::size_t numActiveDomains() const;

    /**
     * The @p n hottest domains, ranked by protection pain: evictions
     * desc, then shootdown pages, fill misses and accesses desc, with
     * the domain id as the final (ascending) tie-break — fully
     * deterministic, so reports are stable across runs and job counts.
     */
    std::vector<HotDomain> topN(std::size_t n) const;

  private:
    DomainCounters &
    at(DomainId d)
    {
        if (d < rows_) [[likely]]
            return table_[d];
        return grow(d);
    }

    /** Out-of-line resize for first-touch of a new domain id. */
    DomainCounters &grow(DomainId d);

    std::vector<DomainCounters> table_; ///< Indexed by DomainId.
    /** table_.size(), kept by grow(): the size() of 40-byte rows is a
     *  pointer difference divided by 40 on every counted access. */
    std::size_t rows_ = 0;
};

} // namespace pmodv::arch

#endif // PMODV_ARCH_DOMAIN_PROFILE_HH
