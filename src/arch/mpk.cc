#include "arch/mpk.hh"

namespace pmodv::arch
{

MpkScheme::MpkScheme(stats::Group *parent, const ProtParams &params,
                     const CoreTopology &topo)
    : KeyScheme(parent, "mpk", params, topo),
      keyExhausted(this, "key_exhausted")
{
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

Cycles
MpkScheme::setPerm(ThreadId tid, DomainId domain, Perm perm)
{
    perm = permNormalizeHw(perm);
    const Cycles cycles = chargeSetPerm();
    const DomainRow *d = domains_.find(domain);
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
MpkScheme::attach(ThreadId, DomainId domain, Addr base, Addr size, Perm)
{
    DomainRow &d = domains_.claim(domain, base, size);
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
    DomainRow *d = domains_.find(domain);
    if (!d)
        return 0;
    if (d->key != kNullKey) {
        keys_.release(d->key);
        flushKeyAllCores(d->key);
    } else {
        // Domainless (exhausted) PMO: no key to flush by, but the
        // munmap behind detach still invalidates the range — without
        // it, stale translations keep the dead region's page rights.
        flushRangeAllCores(d->base, d->size);
    }
    *d = {};
    return 0;
}

Perm
MpkScheme::effectivePerm(ThreadId tid, DomainId domain) const
{
    const DomainRow *d = domains_.find(domain);
    if (!d || d->key == kNullKey)
        return Perm::ReadWrite; // Domainless: page permission governs.
    return pkrus_.forThread(tid).permFor(d->key);
}

} // namespace pmodv::arch
