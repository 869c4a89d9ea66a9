#include "arch/libmpk.hh"

#include <array>

#include "arch/shootdown_bus.hh"
#include "common/logging.hh"

namespace pmodv::arch
{

LibMpkScheme::LibMpkScheme(stats::Group *parent, const ProtParams &params,
                           const CoreTopology &topo,
                           const tlb::AddressSpace &space)
    : ProtectionScheme(parent, "libmpk", params, topo, space),
      ptePatches(this, "pte_patches")
{
}

void
LibMpkScheme::onCoreAttached(CoreId, tlb::TlbHierarchy *tlb)
{
    tlb->setFillPolicy(this);
}

Cycles
LibMpkScheme::fill(ThreadId tid, Addr, const tlb::Region *region,
                   tlb::TlbEntry &entry)
{
    DomainState *st = region ? domains_.find(region->domain) : nullptr;
    if (!st) {
        entry.key = kNullKey;
        return 0;
    }
    // An access to a domain whose key was evicted traps; libmpk's
    // exception handler runs the software remap (paper §I: "if it
    // accesses an unmapped domain, an exception is triggered, and the
    // exception handler selects a domain to unmap and reassigns the
    // key to the new domain").
    const Cycles cycles = st->key == kInvalidKey ? mapDomain(tid, *st) : 0;
    entry.key = st->key;
    return cycles;
}

Cycles
LibMpkScheme::mapDomain(ThreadId tid, DomainState &st)
{
    Cycles cycles = 0;

    // The remap trap is the incoming domain's protection-fill miss.
    profile_.fillMiss(st.domain);

    ProtKey key = keys_.claim(st.domain);
    std::uint64_t patched_pages = 0;

    if (key == kInvalidKey) {
        // Evict the LRU key holder: pkey_mprotect() strips the key
        // from every page of the victim domain.
        const ProtKey victim = keys_.victim();
        DomainState &vst = *domains_.find(keys_.holder(victim));
        vst.key = kInvalidKey;
        patched_pages += vst.size / 4096;
        // The kernel's PTE rewrites invalidate stale translations of
        // both ranges on every core.
        const std::array<ShootdownRange, 2> ranges{
            ShootdownRange{vst.base, vst.size},
            ShootdownRange{st.base, st.size}};
        cycles += evictKey(tid, vst.domain, victim, ranges);
        keys_.release(victim);
        key = keys_.claim(st.domain); // The only free key: the victim's.
    }

    // Trap + pkey_mprotect syscall path, with per-PTE pkey rewrites
    // proportional to the *victim* domain size — the cost that makes
    // libmpk unscalable (constants calibrated per DESIGN.md §6; the
    // incoming domain's pages keep their lazily cached pkey).
    cycles += params_.libmpkSyscallCycles;
    cycSoftware += params_.libmpkSyscallCycles;

    ptePatches += patched_pages;
    const Cycles patch_cycles =
        params_.libmpkPtePatchCycles * patched_pages;
    cycles += patch_cycles;
    cycSoftware += patch_cycles;

    st.key = key;
    keys_.touch(key);
    ++keyRemaps;
    // The key changed hands: the victim's grants must not leak to the
    // incoming domain, and libmpk has no context-switch hook to fix
    // each thread's recorded permission lazily.
    pkrus_.loadKey(key, st.perms.threads());
    return cycles;
}

CheckResult
LibMpkScheme::checkAccess(const AccessContext &ctx)
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
LibMpkScheme::setPerm(ThreadId tid, DomainId domain, Perm perm)
{
    perm = permNormalizeHw(perm);
    Cycles cycles = chargeSetPerm();

    // libmpk's user-level bookkeeping (domain hash lookup) runs on
    // every mpk_begin/end call.
    cycles += params_.libmpkFastPathCycles;
    cycSoftware += params_.libmpkFastPathCycles;

    DomainState *st = domains_.find(domain);
    if (!st)
        return cycles;
    profile_.setPerm(domain);
    st->perms.set(tid, perm);

    // Granting access to an unmapped domain triggers the slow path.
    if (st->key == kInvalidKey && perm != Perm::None)
        cycles += mapDomain(tid, *st);

    if (st->key != kInvalidKey) {
        pkrus_.forThread(tid).setPerm(st->key, perm);
        keys_.touch(st->key);
    }
    return cycles;
}

Cycles
LibMpkScheme::attach(ThreadId, DomainId domain, Addr base, Addr size,
                     Perm)
{
    DomainState &st = domains_.claim(domain);
    st.base = base;
    st.size = size;
    return 0;
}

Cycles
LibMpkScheme::detach(ThreadId, DomainId domain)
{
    DomainState *st = domains_.find(domain);
    if (!st)
        return 0;
    if (st->key != kInvalidKey) {
        keys_.release(st->key);
        // Functional munmap invalidation on every core; no IPI cost.
        flushRangeAllCores(st->base, st->size);
    }
    *st = {};
    return 0;
}

Cycles
LibMpkScheme::contextSwitch(ThreadId, ThreadId)
{
    // PKRU save/restore is part of normal thread state.
    return 0;
}

Perm
LibMpkScheme::effectivePerm(ThreadId tid, DomainId domain) const
{
    const DomainState *st = domains_.find(domain);
    if (!st)
        return Perm::ReadWrite;
    if (st->key != kInvalidKey)
        return pkrus_.forThread(tid).permFor(st->key);
    return st->perms.get(tid);
}

ProtKey
LibMpkScheme::keyOf(DomainId domain) const
{
    const DomainState *st = domains_.find(domain);
    return st ? st->key : kInvalidKey;
}

} // namespace pmodv::arch
