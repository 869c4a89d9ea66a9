/**
 * @file
 * A cost model of **libmpk** (Park et al., USENIX ATC'19), the
 * software MPK virtualization the paper compares against.
 *
 * Functionally libmpk behaves like the hardware MPK virtualization —
 * a 16-entry key cache over many domains with LRU eviction — but an
 * eviction runs in software: a trap/syscall, `pkey_mprotect()` PTE
 * rewrites across *every page* of both the victim and the incoming
 * domain, a TLB shootdown and a PKRU write. Eviction cost therefore
 * scales with domain size, the scaling the paper's Figure 6/7 exposes.
 *
 * The key cache is the same KeyTable (arch/pkru.hh) the hardware MPK
 * virtualization evicts from; only who runs the eviction, and what it
 * costs, differs.
 */

#ifndef PMODV_ARCH_LIBMPK_HH
#define PMODV_ARCH_LIBMPK_HH

#include "arch/domain_table.hh"
#include "arch/pkru.hh"
#include "arch/scheme.hh"

namespace pmodv::arch
{

/** libmpk software MPK virtualization. */
class LibMpkScheme : public ProtectionScheme, private tlb::TlbFillPolicy
{
  public:
    LibMpkScheme(stats::Group *parent, const ProtParams &params,
                 const CoreTopology &topo,
                 const tlb::AddressSpace &space);

    CheckResult checkAccess(const AccessContext &ctx) override;
    Cycles setPerm(ThreadId tid, DomainId domain, Perm perm) override;
    Cycles attach(ThreadId tid, DomainId domain, Addr base, Addr size,
                  Perm max_perm) override;
    Cycles detach(ThreadId tid, DomainId domain) override;
    Cycles contextSwitch(ThreadId from, ThreadId to) override;
    Perm effectivePerm(ThreadId tid, DomainId domain) const override;

    /** The key currently backing @p domain (kInvalidKey if none). */
    ProtKey keyOf(DomainId domain) const;

    stats::Scalar ptePatches; ///< PTE pkey fields rewritten.

  protected:
    void onCoreAttached(CoreId core, tlb::TlbHierarchy *tlb) override;

  private:
    struct DomainState
    {
        DomainId domain = kNullDomain; ///< kNullDomain: not attached.
        ProtKey key = kInvalidKey;
        Addr base = 0;
        Addr size = 0;
        PermRow perms;
    };

    Cycles fill(ThreadId tid, Addr va, const tlb::Region *region,
                tlb::TlbEntry &entry) override;

    /** Map @p st onto a key, evicting if necessary. */
    Cycles mapDomain(ThreadId tid, DomainState &st);

    DomainTable<DomainState> domains_;
    KeyTable keys_;
    PkruFile pkrus_;
};

} // namespace pmodv::arch

#endif // PMODV_ARCH_LIBMPK_HH
