#include "arch/domain_virt.hh"

#include "common/logging.hh"
#include "stats/timeseries.hh"

namespace pmodv::arch
{

DomainVirtScheme::DomainVirtScheme(stats::Group *parent,
                                   const ProtParams &params,
                                   const CoreTopology &topo)
    : ProtectionScheme(parent, "domain_virt", params, topo),
      drtWalks(this, "drt_walks"),
      ptlbWritebacks(this, "ptlb_writebacks"),
      contextSwitches(this, "context_switches")
{
    ptlbs_.push_back(std::make_unique<Ptlb>(this, params_.ptlbEntries));
    curTid_.push_back(0);
}

void
DomainVirtScheme::registerTimelineTracks(stats::TimeSeries &timeline)
{
    ProtectionScheme::registerTimelineTracks(timeline);
    timeline.track(ptlbs_[0]->misses, "ptlb_misses");
    timeline.track(drtWalks, "drt_walks");
}

void
DomainVirtScheme::onCoreAttached(CoreId core, tlb::TlbHierarchy *tlb)
{
    tlb->setFillPolicy(this);
    // Core 0's PTLB is built in the constructor ("ptlb"); each
    // further core gets a private one caching its running thread.
    while (ptlbs_.size() <= core) {
        ptlbs_.push_back(std::make_unique<Ptlb>(
            this, params_.ptlbEntries,
            "ptlb_core" + std::to_string(ptlbs_.size())));
        curTid_.push_back(0);
    }
}

Cycles
DomainVirtScheme::fill(ThreadId, Addr, const tlb::Region *region,
                       tlb::TlbEntry &entry)
{
    if (!region) {
        entry.domain = kNullDomain;
        return 0;
    }
    // DRT walk, performed in parallel with the page table walk; the
    // DRT is shallower than the page table, so no extra latency. It
    // finds the attached domain the page walk's region names.
    ++drtWalks;
    entry.domain =
        domains_.find(region->domain) ? region->domain : kNullDomain;
    entry.key = kNullKey; // This design has no protection keys.
    return 0;
}

Perm
DomainVirtScheme::ptGet(DomainId domain, ThreadId tid) const
{
    const DomainRow *info = domains_.find(domain);
    return info ? info->perms.get(tid) : Perm::None;
}

void
DomainVirtScheme::writeback(ThreadId tid, const PtlbEntry &entry)
{
    ++ptlbWritebacks;
    if (DomainRow *info = domains_.find(entry.domain))
        info->perms.set(tid, entry.perm);
}

Perm
DomainVirtScheme::lookupPerm(ThreadId tid, DomainId domain,
                             Cycles &cycles)
{
    Ptlb &ptlb = *ptlbs_[activeCore_];
    if (tid != curTid_[activeCore_]) {
        // Accesses are normally issued by the core's running thread;
        // a mismatch means the harness skipped the context switch, so
        // consult the PT directly (functional correctness first).
        return ptGet(domain, tid);
    }
    if (PtlbEntry *hit = ptlb.lookup(domain))
        return hit->perm;

    // PTLB miss: fetch from the PT (Table II: 30 cycles including the
    // table lookup), then install the entry.
    profile_.fillMiss(domain);
    cycles += params_.ptlbMissCycles;
    cycTableMiss += params_.ptlbMissCycles;
    ptlb.missLatency.sample(params_.ptlbMissCycles);
    postEvent(trace::EventKind::PtlbRefill, tid, domain,
              params_.ptlbMissCycles);

    const Perm perm = ptGet(domain, tid);
    cycles += installPtlb(tid, {true, domain, perm, false});
    return perm;
}

Cycles
DomainVirtScheme::installPtlb(ThreadId tid, const PtlbEntry &entry)
{
    Cycles cycles = params_.ptlbEntryOpCycles;
    const auto evicted = ptlbs_[activeCore_]->insert(entry);
    if (evicted && evicted->dirty) {
        writeback(tid, *evicted);
        cycles += params_.ptlbEntryOpCycles;
    }
    cycEntryChange += cycles;
    return cycles;
}

CheckResult
DomainVirtScheme::checkAccess(const AccessContext &ctx)
{
    const DomainId domain = ctx.entry->domain;
    // Domainless: no PTLB lookup, no extra latency — but the page
    // permission still governs.
    Perm domain_perm = Perm::ReadWrite;
    Cycles cycles = 0;
    if (domain != kNullDomain) {
        // The PTLB permission lookup adds latency to every domain
        // access, even when the data hits in the cache (paper §VI-A).
        profile_.access(domain);
        cycles = params_.ptlbAccessCycles;
        cycAccessLatency += params_.ptlbAccessCycles;
        domain_perm = lookupPerm(ctx.tid, domain, cycles);
    }
    CheckResult res = judge(ctx, domain_perm, cycles);
    if (!res.allowed)
        ++protectionFaults;
    return res;
}

Cycles
DomainVirtScheme::setPerm(ThreadId tid, DomainId domain, Perm perm)
{
    perm = permNormalizeHw(perm);
    Cycles cycles = chargeSetPerm();

    // SETPERM on an unattached domain is a no-op (as in every other
    // scheme): without this guard the PT/PTLB would accumulate
    // phantom grants a later attach of the same id would inherit.
    DomainRow *info = domains_.find(domain);
    if (!info)
        return cycles;

    profile_.setPerm(domain);

    // Each PTLB caches its core's *running* thread's permissions
    // only; a cross-thread permission update (an OS-assisted grant)
    // goes straight to the in-memory PT — and if the target thread is
    // running on another core, that core's cached entry is dropped so
    // its next access refetches the new value.
    Ptlb &ptlb = *ptlbs_[activeCore_];
    if (tid != curTid_[activeCore_]) {
        info->perms.set(tid, perm);
        for (CoreId c = 0; c < curTid_.size(); ++c)
            if (curTid_[c] == tid)
                ptlbs_[c]->invalidate(domain);
        return cycles;
    }

    // SETPERM completes entirely in the PTLB: hit entries are
    // modified in place and marked dirty; on a miss a new dirty entry
    // is installed (the 2-bit permission is fully overwritten, so no
    // PT read is needed).
    if (PtlbEntry *hit = ptlb.lookup(domain)) {
        hit->perm = perm;
        hit->dirty = true;
        cycles += params_.ptlbEntryOpCycles;
        cycEntryChange += params_.ptlbEntryOpCycles;
        return cycles;
    }

    return cycles + installPtlb(tid, {true, domain, perm, true});
}

Cycles
DomainVirtScheme::attach(ThreadId, DomainId domain, Addr base, Addr size,
                         Perm)
{
    domains_.claim(domain, base, size);
    return 0;
}

Cycles
DomainVirtScheme::detach(ThreadId, DomainId domain)
{
    DomainRow *info = domains_.find(domain);
    if (!info)
        return 0;
    // Stale PTLB state for this domain is dropped on every core
    // (dirty values are dead: the domain is going away).
    for (auto &p : ptlbs_)
        p->invalidate(domain);
    // The unmap itself invalidates the translations on every core
    // (normal munmap shootdown, part of the detach syscall).
    flushRangeAllCores(info->base, info->size);
    *info = {};
    return 0;
}

Cycles
DomainVirtScheme::contextSwitch(ThreadId, ThreadId to)
{
    ++contextSwitches;
    Cycles cycles = 0;
    // Dirty PTLB entries belong to the core's outgoing thread; write
    // them back, then flush. The TLB itself keeps its
    // (thread-agnostic) domain ids — the design's key win on switches.
    std::vector<PtlbEntry> dirty;
    ptlbs_[activeCore_]->flushAll(dirty);
    for (const PtlbEntry &e : dirty) {
        writeback(curTid_[activeCore_], e);
        cycles += params_.contextSwitchWritebackCycles;
        cycEntryChange += params_.contextSwitchWritebackCycles;
    }
    curTid_[activeCore_] = to;
    return cycles;
}

Perm
DomainVirtScheme::effectivePerm(ThreadId tid, DomainId domain) const
{
    const DomainRow *info = domains_.find(domain);
    if (!info)
        return Perm::ReadWrite; // Not a domain: page permission rules.
    for (CoreId c = 0; c < curTid_.size(); ++c) {
        if (tid != curTid_[c])
            continue;
        if (const PtlbEntry *e = ptlbs_[c]->find(domain))
            return e->perm;
    }
    return info->perms.get(tid);
}

} // namespace pmodv::arch
