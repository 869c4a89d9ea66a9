#include "arch/mpk_virt.hh"

#include "arch/shootdown_bus.hh"
#include "common/logging.hh"
#include "stats/timeseries.hh"

namespace pmodv::arch
{

MpkVirtScheme::MpkVirtScheme(stats::Group *parent,
                             const ProtParams &params,
                             const CoreTopology &topo)
    : KeyScheme(parent, "mpk_virt", params, topo),
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
    KeyScheme::onCoreAttached(core, tlb);
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

Cycles
MpkVirtScheme::cacheInDttlb(const DomainRow &row)
{
    DttlbEntry entry;
    entry.used = true;
    entry.base = row.base;
    entry.size = row.size;
    entry.domain = row.domain;
    entry.key = row.key == kInvalidKey ? kNullKey : row.key;
    entry.valid = row.key != kInvalidKey;
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
MpkVirtScheme::resolveKey(ThreadId tid, DomainRow &row)
{
    Cycles cycles = 0;

    if (row.key != kInvalidKey) {
        keys_.touch(row.key);
        return cycles;
    }

    // Check the free-key structure. With no free key the LRU victim's
    // key is reassigned; threads on other cores keep running without a
    // context switch, so takeKey() makes the remap coherent in every
    // thread's PKRU at once.
    cycles += params_.freeKeyCheckCycles;
    cycEntryChange += params_.freeKeyCheckCycles;
    if (const DomainRow *victim = takeKey(row)) {
        // Unmap the victim: DTT payload updated, DTTLB entry marked
        // invalid + dirty.
        for (auto &d : dttlbs_) {
            if (DttlbEntry *ve = d->find(victim->domain)) {
                ve->valid = false;
                ve->key = kNullKey;
                ve->dirty = true;
            }
        }
        cycles += params_.dttlbEntryOpCycles;
        cycEntryChange += params_.dttlbEntryOpCycles;

        // Ranged TLB shootdown of the victim's pages, so no stale
        // VA->key mapping survives.
        const ShootdownRange range{victim->base, victim->size};
        cycles += evictKey(tid, victim->domain, row.key, {&range, 1});
    }

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
    DomainRow *row = nullptr;
    if (DttlbEntry *hit = dttlb.lookupVa(va)) {
        // DTTLB hit: its 1-cycle CAM lookup overlaps the page walk,
        // so no extra latency is charged (DESIGN.md §5).
        row = domains_.find(hit->domain);
        panic_if(!row, "DTTLB caches unknown domain");
    } else {
        // DTTLB miss: walk the DTT (Table II: 30 cycles). The walk
        // finds the domain the page walk's region already names.
        ++dttWalks;
        cycles += params_.dttWalkCycles;
        profile_.fillMiss(region->domain);
        cycTableMiss += params_.dttWalkCycles;
        dttlb.missLatency.sample(params_.dttWalkCycles);
        row = domains_.find(region->domain);
        panic_if(!row, "mapped PMO region missing from the DTT");
        postEvent(trace::EventKind::DttlbRefill, tid, row->domain,
                  params_.dttWalkCycles);
    }

    cycles += resolveKey(tid, *row);
    cycles += cacheInDttlb(*row);

    entry.key = row->key == kInvalidKey ? kNullKey : row->key;
    return cycles;
}

Cycles
MpkVirtScheme::setPerm(ThreadId tid, DomainId domain, Perm perm)
{
    perm = permNormalizeHw(perm);
    Cycles cycles = chargeSetPerm();

    DomainRow *row = domains_.find(domain);
    if (!row)
        return cycles; // SETPERM on an unattached domain: no-op.

    profile_.setPerm(domain);
    row->perms.set(tid, perm);

    // The DTTLB entry (if cached) is invalidated so the next fill
    // re-reads the DTT, and a key-holding domain is reflected in PKRU
    // immediately (or TLB-hit accesses would use stale permission).
    // Both micro-ops complete within SETPERM's own 27-cycle latency —
    // this is what makes the single-PMO case perform *identically* to
    // stock MPK (paper §VI-A).
    invalidateDomainAllDttlbs(domain);
    if (row->key != kInvalidKey)
        pkrus_.forThread(tid).setPerm(row->key, perm);
    return cycles;
}

Cycles
MpkVirtScheme::attach(ThreadId, DomainId domain, Addr base, Addr size,
                      Perm)
{
    domains_.claim(domain, base, size);
    return 0;
}

Cycles
MpkVirtScheme::detach(ThreadId, DomainId domain)
{
    DomainRow *row = domains_.find(domain);
    if (!row)
        return 0;
    if (row->key != kInvalidKey) {
        keys_.release(row->key);
        // The munmap behind detach invalidates every core's stale
        // translations; functional, so no IPI cost is charged.
        flushRangeAllCores(row->base, row->size);
    }
    invalidateDomainAllDttlbs(domain);
    *row = {};
    return 0;
}

Cycles
MpkVirtScheme::contextSwitch(ThreadId, ThreadId)
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

    // No PKRU work: takeKey() loads a key into every thread's PKRU
    // and setPerm() updates the row and that thread's PKRU together,
    // so the incoming thread's register is already current.
    return cycles;
}

Perm
MpkVirtScheme::effectivePerm(ThreadId tid, DomainId domain) const
{
    const DomainRow *row = domains_.find(domain);
    if (!row)
        return Perm::ReadWrite; // Not a domain: page permission rules.
    return row->perms.get(tid);
}

} // namespace pmodv::arch
