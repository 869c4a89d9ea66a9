#include "arch/mpk.hh"

#include "common/logging.hh"

namespace pmodv::arch
{

MpkScheme::MpkScheme(stats::Group *parent, const ProtParams &params,
                     const CoreTopology &topo,
                     const tlb::AddressSpace &space)
    : ProtectionScheme(parent, "mpk", params, topo, space),
      keyExhausted(this, "key_exhausted")
{
}

void
MpkScheme::onCoreAttached(CoreId, tlb::TlbHierarchy *tlb)
{
    // The pkey stamped into a PTE is core-agnostic: every core's TLB
    // fills through the same policy.
    tlb->setFillPolicy(this);
}

Cycles
MpkScheme::fill(ThreadId, Addr, const tlb::Region *region,
                tlb::TlbEntry &entry)
{
    // The pkey field of the PTE, as written by pkey_mprotect().
    entry.key = region ? keyOf(region->domain) : kNullKey;
    if (entry.key == kInvalidKey)
        entry.key = kNullKey;
    return 0;
}

CheckResult
MpkScheme::checkAccess(const AccessContext &ctx)
{
    const ProtKey key = ctx.entry->key;
    if (const DomainId holder = keys_.holder(key); holder != kNullDomain)
        profile_.access(holder);
    // Domainless accesses skip the PKRU check but the page permission
    // still governs (an exhausted-attach PMO keeps its PTE rights).
    const Perm domain_perm =
        key == kNullKey ? Perm::ReadWrite
                        : pkrus_.forThread(ctx.tid).permFor(key);
    CheckResult res = judge(ctx, domain_perm, 0);
    if (!res.allowed)
        ++protectionFaults;
    return res;
}

Cycles
MpkScheme::setPerm(ThreadId tid, DomainId domain, Perm perm)
{
    perm = permNormalizeHw(perm);
    const Cycles cycles = chargeSetPerm();
    const KeyedDomain *d = domains_.find(domain);
    if (d)
        profile_.setPerm(domain);
    if (d && d->key != kNullKey)
        pkrus_.forThread(tid).setPerm(d->key, perm);
    // A domainless PMO (exhausted keys) still executes the WRPKRU.
    return cycles;
}

Cycles
MpkScheme::wrpkruRaw(ThreadId tid, ProtKey key, Perm perm)
{
    const Cycles cycles = chargeWrpkru();
    pkrus_.forThread(tid).setPerm(key, perm);
    return cycles;
}

Cycles
MpkScheme::attach(ThreadId, DomainId domain, Addr, Addr, Perm)
{
    KeyedDomain &d = domains_.claim(domain);
    ProtKey key = keys_.claim(domain);
    if (key == kInvalidKey) {
        // pkey_alloc() returned ENOSPC: the PMO stays domainless.
        ++keyExhausted;
        key = kNullKey;
    } else {
        // pkey_alloc() hands the key out in the no-access state for
        // every thread; a reused key must not leak its previous
        // owner's PKRU grants.
        pkrus_.resetKey(key);
    }
    d.key = key;
    return 0;
}

Cycles
MpkScheme::detach(ThreadId, DomainId domain)
{
    KeyedDomain *d = domains_.find(domain);
    if (!d)
        return 0;
    if (d->key != kNullKey) {
        keys_.release(d->key);
        flushKeyAllCores(d->key);
    } else {
        // Domainless (exhausted) PMO: no key to flush by, but the
        // munmap behind detach still invalidates the range — without
        // it, stale translations keep the dead region's page rights.
        if (const tlb::Region *region = space_.findDomain(domain))
            flushRangeAllCores(region->base, region->size);
    }
    *d = {};
    return 0;
}

Cycles
MpkScheme::contextSwitch(ThreadId, ThreadId)
{
    // PKRU is part of the XSAVE state; per-thread registers are
    // already modelled, so the switch costs nothing extra here.
    return 0;
}

Perm
MpkScheme::effectivePerm(ThreadId tid, DomainId domain) const
{
    const KeyedDomain *d = domains_.find(domain);
    if (!d || d->key == kNullKey)
        return Perm::ReadWrite; // Domainless: page permission governs.
    return pkrus_.forThread(tid).permFor(d->key);
}

ProtKey
MpkScheme::keyOf(DomainId domain) const
{
    const KeyedDomain *d = domains_.find(domain);
    return d ? d->key : kInvalidKey;
}

} // namespace pmodv::arch
