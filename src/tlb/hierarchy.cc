#include "tlb/hierarchy.hh"

#include "common/bitutil.hh"

namespace pmodv::tlb
{

TlbHierarchy::TlbHierarchy(stats::Group *parent,
                           const TlbHierarchyParams &params,
                           const AddressSpace &space)
    : stats::Group(parent, "dtlb"),
      walks(this, "walks"),
      missLatency(this, "miss_latency"),
      params_(params), space_(space), fillPolicy_(&defaultPolicy_)
{
    l1_ = std::make_unique<Tlb>(this, params_.l1);
    l2_ = std::make_unique<Tlb>(this, params_.l2);
}

TranslateResult
TlbHierarchy::missL1(ThreadId tid, Addr va)
{
    TranslateResult res;
    res.latency += params_.l2.accessLatency;
    if (TlbEntry *e = l2_->lookup(va)) {
        // Promote into L1 (the L1 lookup above just missed).
        res.entry = &l1_->insert(*e);
        res.l2Hit = true;
        missLatency.sample(res.latency);
        return res;
    }

    // Full miss: page walk.
    ++walks;
    res.walked = true;
    res.latency += params_.walkLatency;

    const Region *region = space_.find(va);
    TlbEntry entry;
    if (region) {
        entry.pageSize = region->pageSize;
        entry.vpn = va >> pageShift(region->pageSize);
        entry.pagePerm = region->pagePerm;
        entry.memClass = region->memClass;
        // Protection metadata (key / domain id) is the fill policy's
        // job: stock MPK has no domain field, the domain-virt design
        // fills it from its DRT walk.
    } else {
        // Unmapped VAs still get a (domainless, DRAM) translation so
        // the timing model can charge something sensible; a real
        // machine would fault, and the protection layer flags it.
        entry.vpn = va >> pageShift(PageSize::Size4K);
        entry.pagePerm = Perm::ReadWrite;
    }
    entry.key = kNullKey;

    res.fillExtra = fillPolicy_->fill(tid, va, region, entry);

    // Fresh in both levels: the lookups above just missed this page,
    // and the fill policy can only have *removed* entries since.
    l2_->insert(entry);
    res.entry = &l1_->insert(entry);
    missLatency.sample(res.latency + res.fillExtra);
    return res;
}

unsigned
TlbHierarchy::flushRange(Addr base, Addr size)
{
    return l1_->flushRange(base, size) + l2_->flushRange(base, size);
}

unsigned
TlbHierarchy::flushKey(ProtKey key)
{
    return l1_->flushKey(key) + l2_->flushKey(key);
}

} // namespace pmodv::tlb
