#include "arch/domain_profile.hh"

#include <algorithm>
#include <tuple>

namespace pmodv::arch
{

DomainCounters &
DomainProfile::grow(DomainId d)
{
    rows_ = static_cast<std::size_t>(d) + 1;
    table_.resize(rows_);
    return table_[d];
}

std::size_t
DomainProfile::numActiveDomains() const
{
    std::size_t n = 0;
    for (const DomainCounters &c : table_)
        n += c.zero() ? 0 : 1;
    return n;
}

std::vector<HotDomain>
DomainProfile::topN(std::size_t n) const
{
    std::vector<HotDomain> rows;
    for (DomainId d = 0; d < table_.size(); ++d) {
        if (table_[d].zero())
            continue;
        rows.push_back({d, table_[d]});
    }
    const auto hotter = [](const HotDomain &a, const HotDomain &b) {
        const DomainCounters &x = a.counters;
        const DomainCounters &y = b.counters;
        return std::tie(y.evictions, y.shootdownPages, y.fillMisses,
                        y.accesses, a.domain) <
               std::tie(x.evictions, x.shootdownPages, x.fillMisses,
                        x.accesses, b.domain);
    };
    std::sort(rows.begin(), rows.end(), hotter);
    if (rows.size() > n)
        rows.resize(n);
    return rows;
}

} // namespace pmodv::arch
