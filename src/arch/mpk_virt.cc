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
      dttWalks(this, "dtt_walks", "DTT walks on DTTLB misses"),
      dttlbWritebacks(this, "dttlb_writebacks",
                      "dirty DTTLB entries written back to the DTT"),
      contextSwitches(this, "context_switches",
                      "context switches processed")
{
    dttlbs_.push_back(std::make_unique<Dttlb>(this,
                                              params_.dttlbEntries));
    keyHolder_.fill(kNullDomain);
    keyStamp_.fill(0);
    setFastCheck(&fastCheckThunk<MpkVirtScheme>);
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
    if (!fillPolicyStorage_)
        fillPolicyStorage_ = std::make_unique<FillPolicy>(*this);
    tlb->setFillPolicy(fillPolicyStorage_.get());
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
        d->invalidateDomain(domain);
}

Perm
MpkVirtScheme::permOf(const DttInfo &info, ThreadId tid) const
{
    return tid < info.perms.size() ? info.perms[tid] : Perm::None;
}

void
MpkVirtScheme::touchKey(ProtKey key)
{
    keyStamp_[key] = ++keyClock_;
}

ProtKey
MpkVirtScheme::victimKey() const
{
    ProtKey best = kInvalidKey;
    for (ProtKey k = 1; k < kNumProtKeys; ++k) {
        if (keyHolder_[k] == kNullDomain)
            continue;
        if (best == kInvalidKey || keyStamp_[k] < keyStamp_[best])
            best = k;
    }
    panic_if(best == kInvalidKey,
             "victimKey() called with no key holders");
    return best;
}

void
MpkVirtScheme::bindKey(ThreadId tid, DttInfo &info, ProtKey key)
{
    info.key = key;
    keyHolder_[key] = info.domain;
    touchKey(key);
    if (topo_.numCores > 1) {
        // Threads on other cores keep running without a context
        // switch, so the remap must be made globally coherent now:
        // the key's old grants are wiped and every thread's stored
        // permission for the new holder is reloaded from the DTT.
        pkrus_.resetKey(key);
        for (ThreadId t = 0; t < info.perms.size(); ++t)
            pkrus_.forThread(t).setPerm(key, info.perms[t]);
    } else {
        // PKRU of the running thread reflects the new domain
        // immediately; other threads reconstruct on their next
        // context switch in.
        pkrus_.forThread(tid).setPerm(key, permOf(info, tid));
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

    DttlbEntry evicted;
    bool had_eviction = false;
    dttlbs_[activeCore_]->insert(entry, evicted, had_eviction);

    Cycles cycles = params_.dttlbEntryOpCycles;
    cycEntryChange += params_.dttlbEntryOpCycles;
    if (had_eviction && evicted.dirty) {
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
        touchKey(info.key);
        return cycles;
    }

    // Check the free-key structure.
    cycles += params_.freeKeyCheckCycles;
    cycEntryChange += params_.freeKeyCheckCycles;
    ProtKey key = keyAlloc_.alloc();
    if (key == kInvalidKey) {
        // No free key: reassign the LRU victim's key.
        const ProtKey victim = victimKey();
        const DomainId victim_domain = keyHolder_[victim];
        DttInfo *victim_info = domains_.find(victim_domain);
        panic_if(!victim_info, "victim domain %u has no DTT payload",
                 victim_domain);
        DttInfo &vinfo = *victim_info;

        // Unmap the victim: DTT payload updated, DTTLB entry marked
        // invalid + dirty.
        vinfo.key = kInvalidKey;
        keyHolder_[victim] = kNullDomain;
        for (auto &d : dttlbs_) {
            if (DttlbEntry *ve = d->findDomain(victim_domain)) {
                ve->valid = false;
                ve->key = kNullKey;
                ve->dirty = true;
            }
        }
        cycles += params_.dttlbEntryOpCycles;
        cycEntryChange += params_.dttlbEntryOpCycles;

        // Ranged TLB shootdown of the victim's pages, so no stale
        // VA->key mapping survives. With a shootdown bus (multi-core
        // replay) the broadcast charges the initiator plus each
        // responding core that actually held stale entries; without
        // one (single-core) one flat invalidation charge applies.
        ++keyEvictions;
        ++shootdowns;
        Cycles inval = 0;
        std::uint64_t pages = 0;
        if (bus_) {
            const ShootdownResult res = bus_->broadcast(
                activeCore_, tid, vinfo.base, vinfo.size);
            inval = res.cycles;
            pages = res.pages;
        } else {
            inval = topo_.tlbInvalidationCycles;
            pages = flushRangeAllCores(vinfo.base, vinfo.size);
        }
        cycles += inval;
        cycTlbInvalidation += inval;
        shootdownPages += pages;
        profile_.eviction(victim_domain, pages, activeCore_);
        postEvent(trace::EventKind::KeyEviction, tid, victim_domain,
                  victim);
        postEvent(trace::EventKind::Shootdown, tid, victim_domain,
                  pages);

        key = victim;
    }

    bindKey(tid, info, key);
    cycles += params_.pkruUpdateCycles;
    cycEntryChange += params_.pkruUpdateCycles;
    return cycles;
}

Cycles
MpkVirtScheme::FillPolicy::fill(ThreadId tid, Addr va,
                                const tlb::Region *region,
                                tlb::TlbEntry &entry)
{
    if (!region || region->domain == kNullDomain) {
        entry.key = kNullKey;
        return 0;
    }

    MpkVirtScheme &s = owner_;
    Cycles cycles = 0;

    Dttlb &dttlb = *s.dttlbs_[s.activeCore_];
    DttInfo *info = nullptr;
    if (DttlbEntry *hit = dttlb.lookupVa(va)) {
        // DTTLB hit: its 1-cycle CAM lookup overlaps the page walk,
        // so no extra latency is charged (DESIGN.md §5).
        info = s.domains_.find(hit->domain);
        panic_if(!info, "DTTLB caches unknown domain");
    } else {
        // DTTLB miss: walk the DTT (Table II: 30 cycles).
        ++s.dttWalks;
        cycles += s.params_.dttWalkCycles;
        s.profile_.fillMiss(region->domain);
        s.cycTableMiss += s.params_.dttWalkCycles;
        dttlb.missLatency.sample(s.params_.dttWalkCycles);
        auto walk = s.dtt_.walk(va);
        panic_if(!walk.found,
                 "mapped PMO region missing from the DTT");
        info = walk.payload;
        s.postEvent(trace::EventKind::DttlbRefill, tid, info->domain,
                    s.params_.dttWalkCycles);
    }

    cycles += s.resolveKey(tid, *info);
    cycles += s.cacheInDttlb(*info);

    entry.key = info->key == kInvalidKey ? kNullKey : info->key;
    return cycles;
}

CheckResult
MpkVirtScheme::checkAccess(const AccessContext &ctx)
{
    const ProtKey key = ctx.entry->key;
    Perm domain_perm = Perm::ReadWrite; // Domainless: page perm only.
    if (key != kNullKey) {
        touchKey(key);
        if (keyHolder_[key] != kNullDomain)
            profile_.access(keyHolder_[key], activeCore_);
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
    if (tid >= info.perms.size())
        info.perms.resize(std::size_t{tid} + 1, Perm::None);
    info.perms[tid] = perm;

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
    panic_if(domains_.find(domain), "domain %u attached twice", domain);
    DttInfo &info = domains_.claim(domain);
    info.domain = domain;
    info.base = base;
    info.size = size;
    dtt_.insert(base, size, domain, &info);
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
        keyHolder_[info.key] = kNullDomain;
        keyAlloc_.free(info.key);
        // The munmap behind detach invalidates every core's stale
        // translations; functional, so no IPI cost is charged.
        flushRangeAllCores(info.base, info.size);
    }
    invalidateDomainAllDttlbs(domain);
    dtt_.remove(domain);
    info = DttInfo{};
    return 0;
}

Cycles
MpkVirtScheme::contextSwitch(ThreadId, ThreadId to)
{
    ++contextSwitches;
    currentThread_ = to;
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
        if (const DttInfo *info = domains_.find(keyHolder_[k]))
            pkru.setPerm(k, permOf(*info, to));
    }
    return cycles;
}

Perm
MpkVirtScheme::effectivePerm(ThreadId tid, DomainId domain) const
{
    const DttInfo *info = domains_.find(domain);
    if (!info)
        return Perm::ReadWrite; // Not a domain: page permission rules.
    return permOf(*info, tid);
}

DomainId
MpkVirtScheme::domainOfKey(ProtKey key) const
{
    return key < kNumProtKeys ? keyHolder_[key] : kNullDomain;
}

ProtKey
MpkVirtScheme::keyOf(DomainId domain) const
{
    const DttInfo *info = domains_.find(domain);
    return info ? info->key : kInvalidKey;
}

std::uint64_t
MpkVirtScheme::dttMemoryBytes() const
{
    // Each radix node is 512 slots x 8 bytes, as in a page table.
    return dtt_.nodeCount() * kRadixFanout * 8;
}

} // namespace pmodv::arch
