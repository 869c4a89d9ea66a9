#include "arch/scheme.hh"

#include "arch/shootdown_bus.hh"
#include "common/logging.hh"
#include "stats/timeseries.hh"

namespace pmodv::arch
{

const char *
schemeName(SchemeKind kind)
{
    switch (kind) {
      case SchemeKind::NoProtection:
        return "none";
      case SchemeKind::Lowerbound:
        return "lowerbound";
      case SchemeKind::Mpk:
        return "mpk";
      case SchemeKind::LibMpk:
        return "libmpk";
      case SchemeKind::MpkVirt:
        return "mpk_virt";
      case SchemeKind::DomainVirt:
        return "domain_virt";
    }
    return "unknown";
}

SchemeKind
schemeFromName(const std::string &name)
{
    if (name == "none")
        return SchemeKind::NoProtection;
    if (name == "lowerbound")
        return SchemeKind::Lowerbound;
    if (name == "mpk")
        return SchemeKind::Mpk;
    if (name == "libmpk")
        return SchemeKind::LibMpk;
    if (name == "mpk_virt")
        return SchemeKind::MpkVirt;
    if (name == "domain_virt")
        return SchemeKind::DomainVirt;
    fatal("unknown protection scheme '%s'", name.c_str());
}

ProtectionScheme::ProtectionScheme(stats::Group *parent, std::string name,
                                   const ProtParams &params,
                                   const CoreTopology &topo)
    : stats::Group(parent, std::move(name)),
      cycPermissionChange(this, "cyc_permission_change"),
      cycEntryChange(this, "cyc_entry_change"),
      cycTableMiss(this, "cyc_table_miss"),
      cycTlbInvalidation(this, "cyc_tlb_invalidation"),
      cycAccessLatency(this, "cyc_access_latency"),
      cycSoftware(this, "cyc_software"),
      permChanges(this, "perm_changes"),
      setperms(this, "setperms"),
      wrpkrus(this, "wrpkrus"),
      keyRemaps(this, "key_remaps"),
      keyEvictions(this, "key_evictions"),
      shootdowns(this, "shootdowns"),
      shootdownPages(this, "shootdown_pages"),
      protectionFaults(this, "protection_faults"),
      params_(params), topo_(topo)
{
    topo_.validate();
}

void
ProtectionScheme::attachCore(CoreId core, tlb::TlbHierarchy *tlb)
{
    fatal_if(core >= topo_.numCores,
             "attachCore: core %u out of range (topology has %u)", core,
             topo_.numCores);
    if (core >= coreTlbs_.size())
        coreTlbs_.resize(core + 1, nullptr);
    fatal_if(coreTlbs_[core] != nullptr,
             "attachCore: core %u attached twice", core);
    coreTlbs_[core] = tlb;
    onCoreAttached(core, tlb);
}

void
ProtectionScheme::onCoreAttached(CoreId, tlb::TlbHierarchy *)
{
}

std::uint64_t
ProtectionScheme::flushRangeAllCores(Addr base, Addr size)
{
    std::uint64_t flushed = 0;
    for (tlb::TlbHierarchy *tlb : coreTlbs_) {
        if (tlb)
            flushed += tlb->flushRange(base, size);
    }
    return flushed;
}

void
ProtectionScheme::flushKeyAllCores(ProtKey key)
{
    for (tlb::TlbHierarchy *tlb : coreTlbs_) {
        if (tlb)
            tlb->flushKey(key);
    }
}

Cycles
ProtectionScheme::evictKey(ThreadId tid, DomainId victim_domain,
                           ProtKey victim_key,
                           std::span<const ShootdownRange> ranges)
{
    ++keyEvictions;
    ++shootdowns;
    Cycles inval = 0;
    std::uint64_t pages = 0;
    if (bus_) {
        const ShootdownResult res =
            bus_->broadcast(activeCore_, tid, ranges);
        inval = res.cycles;
        pages = res.pages;
    } else {
        inval = topo_.tlbInvalidationCycles;
        for (const ShootdownRange &r : ranges)
            pages += flushRangeAllCores(r.base, r.size);
    }
    cycTlbInvalidation += inval;
    shootdownPages += pages;
    profile_.eviction(victim_domain, pages);
    postEvent(trace::EventKind::KeyEviction, tid, victim_domain,
              victim_key);
    postEvent(trace::EventKind::Shootdown, tid, victim_domain, pages);
    return inval;
}

void
ProtectionScheme::registerTimelineTracks(stats::TimeSeries &timeline)
{
    timeline.track(keyEvictions, "key_evictions");
    timeline.track(shootdowns, "shootdowns");
    timeline.track(shootdownPages, "shootdown_pages");
    timeline.track(permChanges, "perm_changes");
}

Cycles
ProtectionScheme::chargeSetPerm()
{
    ++permChanges;
    ++setperms;
    cycPermissionChange += params_.wrpkruCycles;
    return params_.wrpkruCycles;
}

Cycles
ProtectionScheme::chargeWrpkru()
{
    ++permChanges;
    ++wrpkrus;
    cycPermissionChange += params_.wrpkruCycles;
    return params_.wrpkruCycles;
}

Cycles
ProtectionScheme::wrpkruRaw(ThreadId, ProtKey, Perm)
{
    return chargeWrpkru();
}

CheckResult
ProtectionScheme::judge(const AccessContext &ctx, Perm domain_perm,
                        Cycles extra) const
{
    CheckResult res;
    res.extraCycles = extra;
    const Perm need = permForAccess(ctx.type);
    const Perm page = ctx.entry ? ctx.entry->pagePerm : Perm::ReadWrite;
    // The strictest of page and domain permission governs.
    const Perm effective = permIntersect(page, domain_perm);
    if (!permAllows(effective, need)) {
        res.allowed = false;
        res.fault = permAllows(page, need) ? FaultKind::DomainPermission
                                           : FaultKind::PagePermission;
    }
    return res;
}

} // namespace pmodv::arch
