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
 * The key cache and its LRU hand-over are the same KeyScheme::takeKey()
 * the hardware MPK virtualization evicts with; only who runs the
 * eviction, and what it costs, differs.
 */

#ifndef PMODV_ARCH_LIBMPK_HH
#define PMODV_ARCH_LIBMPK_HH

#include "arch/key_scheme.hh"

namespace pmodv::arch
{

/** libmpk software MPK virtualization. */
class LibMpkScheme : public KeyScheme
{
  public:
    LibMpkScheme(stats::Group *parent, const ProtParams &params,
                 const CoreTopology &topo);

    Cycles setPerm(ThreadId tid, DomainId domain, Perm perm) override;
    Cycles attach(ThreadId tid, DomainId domain, Addr base, Addr size,
                  Perm max_perm) override;
    Cycles detach(ThreadId tid, DomainId domain) override;
    Perm effectivePerm(ThreadId tid, DomainId domain) const override;

    stats::Scalar ptePatches; ///< PTE pkey fields rewritten.

  private:
    Cycles fill(ThreadId tid, Addr va, const tlb::Region *region,
                tlb::TlbEntry &entry) override;

    /** Map @p row onto a key, evicting if necessary. */
    Cycles mapDomain(ThreadId tid, DomainRow &row);
};

} // namespace pmodv::arch

#endif // PMODV_ARCH_LIBMPK_HH
