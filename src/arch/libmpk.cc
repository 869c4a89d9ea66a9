#include "arch/libmpk.hh"

#include <array>

#include "arch/shootdown_bus.hh"

namespace pmodv::arch
{

LibMpkScheme::LibMpkScheme(stats::Group *parent, const ProtParams &params,
                           const CoreTopology &topo)
    : KeyScheme(parent, "libmpk", params, topo),
      ptePatches(this, "pte_patches")
{
}

Cycles
LibMpkScheme::fill(ThreadId tid, Addr, const tlb::Region *region,
                   tlb::TlbEntry &entry)
{
    DomainRow *row = region ? domains_.find(region->domain) : nullptr;
    if (!row) {
        entry.key = kNullKey;
        return 0;
    }
    // An access to a domain whose key was evicted traps; libmpk's
    // exception handler runs the software remap (paper §I: "if it
    // accesses an unmapped domain, an exception is triggered, and the
    // exception handler selects a domain to unmap and reassigns the
    // key to the new domain").
    const Cycles cycles =
        row->key == kInvalidKey ? mapDomain(tid, *row) : 0;
    entry.key = row->key;
    return cycles;
}

Cycles
LibMpkScheme::mapDomain(ThreadId tid, DomainRow &row)
{
    Cycles cycles = 0;

    // The remap trap is the incoming domain's protection-fill miss.
    profile_.fillMiss(row.domain);

    // The key changed hands: the victim's grants must not leak to the
    // incoming domain, and libmpk has no context-switch hook to fix
    // each thread's recorded permission lazily, so takeKey() loads
    // every thread's PKRU.
    std::uint64_t patched_pages = 0;
    if (const DomainRow *victim = takeKey(row)) {
        // pkey_mprotect() strips the key from every page of the LRU
        // victim domain.
        patched_pages = victim->size / 4096;
        // The kernel's PTE rewrites invalidate stale translations of
        // both ranges on every core.
        const std::array<ShootdownRange, 2> ranges{
            ShootdownRange{victim->base, victim->size},
            ShootdownRange{row.base, row.size}};
        cycles += evictKey(tid, victim->domain, row.key, ranges);
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
    return cycles;
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

    DomainRow *row = domains_.find(domain);
    if (!row)
        return cycles;
    profile_.setPerm(domain);
    row->perms.set(tid, perm);

    // Granting access to an unmapped domain triggers the slow path.
    if (row->key == kInvalidKey && perm != Perm::None)
        cycles += mapDomain(tid, *row);

    if (row->key != kInvalidKey) {
        pkrus_.forThread(tid).setPerm(row->key, perm);
        keys_.touch(row->key);
    }
    return cycles;
}

Cycles
LibMpkScheme::attach(ThreadId, DomainId domain, Addr base, Addr size,
                     Perm)
{
    domains_.claim(domain, base, size);
    return 0;
}

Cycles
LibMpkScheme::detach(ThreadId, DomainId domain)
{
    DomainRow *row = domains_.find(domain);
    if (!row)
        return 0;
    if (row->key != kInvalidKey) {
        keys_.release(row->key);
        // Functional munmap invalidation on every core; no IPI cost.
        flushRangeAllCores(row->base, row->size);
    }
    *row = {};
    return 0;
}

Perm
LibMpkScheme::effectivePerm(ThreadId tid, DomainId domain) const
{
    const DomainRow *row = domains_.find(domain);
    if (!row)
        return Perm::ReadWrite;
    if (row->key != kInvalidKey)
        return pkrus_.forThread(tid).permFor(row->key);
    return row->perms.get(tid);
}

} // namespace pmodv::arch
