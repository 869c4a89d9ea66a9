#include "arch/mpk_virt.hh"

#include "arch/shootdown_bus.hh"
#include "common/logging.hh"
#include "stats/timeseries.hh"

namespace pmodv::arch
{

MpkVirtScheme::MpkVirtScheme(stats::Group *parent,
                             const ProtParams &params,
                             const CoreTopology &topo,
                             const tlb::AddressSpace &space)
    : ProtectionScheme(parent, "mpk_virt", params, topo, space),
      dttWalks(this, "dtt_walks"),
      dttlbWritebacks(this, "dttlb_writebacks"),
      contextSwitches(this, "context_switches")
{
    dttlbs_.push_back(std::make_unique<Dttlb>(this,
                                              params_.dttlbEntries));
}

void
MpkVirtScheme::registerTimelineTracks(stats::TimeSeries &timeline)
{
    ProtectionScheme::registerTimelineTracks(timeline);
    timeline.track(dttlbs_[0]->misses, "dttlb_misses");
    timeline.track(dttWalks, "dtt_walks");
}

void
MpkVirtScheme::onCoreAttached(CoreId core, tlb::TlbHierarchy *tlb)
{
    tlb->setFillPolicy(this);
    // Core 0's DTTLB is built in the constructor ("dttlb"); each
    // further core gets a private one.
    while (dttlbs_.size() <= core) {
        dttlbs_.push_back(std::make_unique<Dttlb>(
            this, params_.dttlbEntries,
            "dttlb_core" + std::to_string(dttlbs_.size())));
    }
}

void
MpkVirtScheme::invalidateDomainAllDttlbs(DomainId domain)
{
    for (auto &d : dttlbs_)
        d->invalidate(domain);
}

void
MpkVirtScheme::bindKey(ThreadId tid, DttInfo &info, ProtKey key)
{
    info.key = key;
    keys_.touch(key);
    if (topo_.numCores > 1) {
        // Threads on other cores keep running without a context
        // switch, so the remap must be made globally coherent now:
        // the key's old grants are wiped and every thread's stored
        // permission for the new holder is reloaded from the DTT.
        pkrus_.loadKey(key, info.perms.threads());
    } else {
        // PKRU of the running thread reflects the new domain
        // immediately; other threads reconstruct on their next
        // context switch in.
        pkrus_.forThread(tid).setPerm(key, info.perms.get(tid));
    }
    ++keyRemaps;
}

Cycles
MpkVirtScheme::cacheInDttlb(DttInfo &info)
{
    DttlbEntry entry;
    entry.used = true;
    entry.base = info.base;
    entry.size = info.size;
    entry.domain = info.domain;
    entry.key = info.key == kInvalidKey ? kNullKey : info.key;
    entry.valid = info.key != kInvalidKey;
    entry.dirty = true;

    const auto evicted = dttlbs_[activeCore_]->insert(entry);

    Cycles cycles = params_.dttlbEntryOpCycles;
    cycEntryChange += params_.dttlbEntryOpCycles;
    if (evicted && evicted->dirty) {
        // Lazy DTT update: the dirty mapping is written back now.
        ++dttlbWritebacks;
        cycles += params_.dttlbEntryOpCycles;
        cycEntryChange += params_.dttlbEntryOpCycles;
    }
    return cycles;
}

Cycles
MpkVirtScheme::resolveKey(ThreadId tid, DttInfo &info)
{
    Cycles cycles = 0;

    if (info.key != kInvalidKey) {
        keys_.touch(info.key);
        return cycles;
    }

    // Check the free-key structure.
    cycles += params_.freeKeyCheckCycles;
    cycEntryChange += params_.freeKeyCheckCycles;
    ProtKey key = keys_.claim(info.domain);
    if (key == kInvalidKey) {
        // No free key: reassign the LRU victim's key.
        const ProtKey victim = keys_.victim();
        DttInfo &vinfo = *domains_.find(keys_.holder(victim));

        // Unmap the victim: DTT payload updated, DTTLB entry marked
        // invalid + dirty.
        vinfo.key = kInvalidKey;
        for (auto &d : dttlbs_) {
            if (DttlbEntry *ve = d->find(vinfo.domain)) {
                ve->valid = false;
                ve->key = kNullKey;
                ve->dirty = true;
            }
        }
        cycles += params_.dttlbEntryOpCycles;
        cycEntryChange += params_.dttlbEntryOpCycles;

        // Ranged TLB shootdown of the victim's pages, so no stale
        // VA->key mapping survives.
        const ShootdownRange range{vinfo.base, vinfo.size};
        cycles += evictKey(tid, vinfo.domain, victim, {&range, 1});
        keys_.release(victim);
        key = keys_.claim(info.domain); // The only free key: the victim's.
    }

    bindKey(tid, info, key);
    cycles += params_.pkruUpdateCycles;
    cycEntryChange += params_.pkruUpdateCycles;
    return cycles;
}

Cycles
MpkVirtScheme::fill(ThreadId tid, Addr va, const tlb::Region *region,
                    tlb::TlbEntry &entry)
{
    if (!region || region->domain == kNullDomain) {
        entry.key = kNullKey;
        return 0;
    }

    Cycles cycles = 0;

    Dttlb &dttlb = *dttlbs_[activeCore_];
    DttInfo *info = nullptr;
    if (DttlbEntry *hit = dttlb.lookupVa(va)) {
        // DTTLB hit: its 1-cycle CAM lookup overlaps the page walk,
        // so no extra latency is charged (DESIGN.md §5).
        info = domains_.find(hit->domain);
        panic_if(!info, "DTTLB caches unknown domain");
    } else {
        // DTTLB miss: walk the DTT (Table II: 30 cycles). The walk
        // finds the domain the page walk's region already names.
        ++dttWalks;
        cycles += params_.dttWalkCycles;
        profile_.fillMiss(region->domain);
        cycTableMiss += params_.dttWalkCycles;
        dttlb.missLatency.sample(params_.dttWalkCycles);
        info = domains_.find(region->domain);
        panic_if(!info, "mapped PMO region missing from the DTT");
        postEvent(trace::EventKind::DttlbRefill, tid, info->domain,
                  params_.dttWalkCycles);
    }

    cycles += resolveKey(tid, *info);
    cycles += cacheInDttlb(*info);

    entry.key = info->key == kInvalidKey ? kNullKey : info->key;
    return cycles;
}

CheckResult
MpkVirtScheme::checkAccess(const AccessContext &ctx)
{
    const ProtKey key = ctx.entry->key;
    Perm domain_perm = Perm::ReadWrite; // Domainless: page perm only.
    if (key != kNullKey) {
        keys_.touch(key);
        if (const DomainId holder = keys_.holder(key);
            holder != kNullDomain)
            profile_.access(holder);
        domain_perm = pkrus_.forThread(ctx.tid).permFor(key);
    }
    CheckResult res = judge(ctx, domain_perm, 0);
    if (!res.allowed)
        ++protectionFaults;
    return res;
}

Cycles
MpkVirtScheme::setPerm(ThreadId tid, DomainId domain, Perm perm)
{
    perm = permNormalizeHw(perm);
    Cycles cycles = chargeSetPerm();

    DttInfo *found = domains_.find(domain);
    if (!found)
        return cycles; // SETPERM on an unattached domain: no-op.

    profile_.setPerm(domain);
    DttInfo &info = *found;
    info.perms.set(tid, perm);

    // The DTTLB entry (if cached) is invalidated so the next fill
    // re-reads the DTT, and a key-holding domain is reflected in PKRU
    // immediately (or TLB-hit accesses would use stale permission).
    // Both micro-ops complete within SETPERM's own 27-cycle latency —
    // this is what makes the single-PMO case perform *identically* to
    // stock MPK (paper §VI-A).
    invalidateDomainAllDttlbs(domain);
    if (info.key != kInvalidKey)
        pkrus_.forThread(tid).setPerm(info.key, perm);
    return cycles;
}

Cycles
MpkVirtScheme::attach(ThreadId, DomainId domain, Addr base, Addr size,
                      Perm)
{
    DttInfo &info = domains_.claim(domain);
    info.base = base;
    info.size = size;
    return 0;
}

Cycles
MpkVirtScheme::detach(ThreadId, DomainId domain)
{
    DttInfo *found = domains_.find(domain);
    if (!found)
        return 0;
    DttInfo &info = *found;
    if (info.key != kInvalidKey) {
        keys_.release(info.key);
        // The munmap behind detach invalidates every core's stale
        // translations; functional, so no IPI cost is charged.
        flushRangeAllCores(info.base, info.size);
    }
    invalidateDomainAllDttlbs(domain);
    info = DttInfo{};
    return 0;
}

Cycles
MpkVirtScheme::contextSwitch(ThreadId, ThreadId to)
{
    ++contextSwitches;
    Cycles cycles = 0;

    // Dirty DTTLB entries are written back to the DTT, then the
    // switching core's (thread-specific) DTTLB is flushed.
    std::vector<DttlbEntry> dirty;
    dttlbs_[activeCore_]->flushAll(dirty);
    for (const DttlbEntry &e : dirty) {
        (void)e; // DTT payloads are kept in sync eagerly; charge only.
        ++dttlbWritebacks;
        cycles += params_.contextSwitchWritebackCycles;
        cycEntryChange += params_.contextSwitchWritebackCycles;
    }

    // Reconstruct the incoming thread's PKRU from the DTT: for every
    // key-holding domain, load the domain's permission for `to`.
    Pkru &pkru = pkrus_.forThread(to);
    for (ProtKey k = 1; k < kNumProtKeys; ++k) {
        if (const DttInfo *info = domains_.find(keys_.holder(k)))
            pkru.setPerm(k, info->perms.get(to));
    }
    return cycles;
}

Perm
MpkVirtScheme::effectivePerm(ThreadId tid, DomainId domain) const
{
    const DttInfo *info = domains_.find(domain);
    if (!info)
        return Perm::ReadWrite; // Not a domain: page permission rules.
    return info->perms.get(tid);
}

DomainId
MpkVirtScheme::domainOfKey(ProtKey key) const
{
    return key < kNumProtKeys ? keys_.holder(key) : kNullDomain;
}

ProtKey
MpkVirtScheme::keyOf(DomainId domain) const
{
    const DttInfo *info = domains_.find(domain);
    return info ? info->key : kInvalidKey;
}

} // namespace pmodv::arch
