#include "arch/key_scheme.hh"

namespace pmodv::arch
{

KeyScheme::KeyScheme(stats::Group *parent, std::string name,
                     const ProtParams &params, const CoreTopology &topo)
    : ProtectionScheme(parent, std::move(name), params, topo)
{
}

void
KeyScheme::onCoreAttached(CoreId, tlb::TlbHierarchy *tlb)
{
    // The pkey stamped into a PTE is core-agnostic: every core's TLB
    // fills through the same policy.
    tlb->setFillPolicy(this);
}

CheckResult
KeyScheme::checkAccess(const AccessContext &ctx)
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
KeyScheme::contextSwitch(ThreadId, ThreadId)
{
    return 0;
}

ProtKey
KeyScheme::keyOf(DomainId domain) const
{
    const DomainRow *row = domains_.find(domain);
    return row ? row->key : kInvalidKey;
}

DomainRow *
KeyScheme::takeKey(DomainRow &row)
{
    DomainRow *loser = nullptr;
    ProtKey key = keys_.claim(row.domain);
    if (key == kInvalidKey) {
        key = keys_.victim();
        loser = domains_.find(keys_.holder(key));
        loser->key = kInvalidKey;
        keys_.release(key);
        keys_.claim(row.domain); // The only free key: the victim's.
    }
    row.key = key;
    keys_.touch(key);
    pkrus_.loadKey(key, row.perms.threads());
    ++keyRemaps;
    return loser;
}

} // namespace pmodv::arch
