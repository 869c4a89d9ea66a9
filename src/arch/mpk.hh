/**
 * @file
 * Stock Intel MPK as a protection scheme: up to 15 allocatable keys,
 * per-thread PKRU, pkey-stamped TLB entries, WRPKRU-priced permission
 * changes. Beyond 15 simultaneously attached PMOs the allocator runs
 * dry and further PMOs become domainless — exactly the security gap
 * the paper motivates with.
 */

#ifndef PMODV_ARCH_MPK_HH
#define PMODV_ARCH_MPK_HH

#include "arch/domain_table.hh"
#include "arch/pkru.hh"
#include "arch/scheme.hh"

namespace pmodv::arch
{

/** Stock MPK (no virtualization). */
class MpkScheme : public ProtectionScheme, private tlb::TlbFillPolicy
{
  public:
    MpkScheme(stats::Group *parent, const ProtParams &params,
              const CoreTopology &topo, const tlb::AddressSpace &space);

    CheckResult checkAccess(const AccessContext &ctx) override;
    Cycles setPerm(ThreadId tid, DomainId domain, Perm perm) override;
    Cycles attach(ThreadId tid, DomainId domain, Addr base, Addr size,
                  Perm max_perm) override;
    Cycles detach(ThreadId tid, DomainId domain) override;
    Cycles contextSwitch(ThreadId from, ThreadId to) override;
    Perm effectivePerm(ThreadId tid, DomainId domain) const override;

    /** The key currently backing @p domain (kInvalidKey if none). */
    ProtKey keyOf(DomainId domain) const;

    /** Direct WRPKRU: set @p key's bits in @p tid's PKRU. */
    Cycles wrpkruRaw(ThreadId tid, ProtKey key, Perm perm) override;

    const Pkru &pkru(ThreadId tid) const { return pkrus_.forThread(tid); }

    /** Attach requests that found no free key (went domainless). */
    stats::Scalar keyExhausted;

  protected:
    void onCoreAttached(CoreId core, tlb::TlbHierarchy *tlb) override;

  private:
    /** An attached domain and its key (kNullKey: domainless). */
    struct KeyedDomain
    {
        DomainId domain = kNullDomain;
        ProtKey key = kNullKey;
    };

    Cycles fill(ThreadId tid, Addr va, const tlb::Region *region,
                tlb::TlbEntry &entry) override;

    /** Holders give access attribution; domainless PMOs share kNullKey
     *  and stay unattributed. */
    KeyTable keys_;
    PkruFile pkrus_;
    DomainTable<KeyedDomain> domains_;
};

} // namespace pmodv::arch

#endif // PMODV_ARCH_MPK_HH
