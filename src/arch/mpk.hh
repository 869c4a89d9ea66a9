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

#include "arch/key_scheme.hh"

namespace pmodv::arch
{

/** Stock MPK (no virtualization). */
class MpkScheme : public KeyScheme
{
  public:
    MpkScheme(stats::Group *parent, const ProtParams &params,
              const CoreTopology &topo);

    Cycles setPerm(ThreadId tid, DomainId domain, Perm perm) override;
    Cycles attach(ThreadId tid, DomainId domain, Addr base, Addr size,
                  Perm max_perm) override;
    Cycles detach(ThreadId tid, DomainId domain) override;
    Perm effectivePerm(ThreadId tid, DomainId domain) const override;

    /** Direct WRPKRU: set @p key's bits in @p tid's PKRU. */
    Cycles wrpkruRaw(ThreadId tid, ProtKey key, Perm perm) override;

    /** Attach requests that found no free key (went domainless). */
    stats::Scalar keyExhausted;

  private:
    /** Stamps the domain's key; domainless PMOs share kNullKey. */
    Cycles fill(ThreadId tid, Addr va, const tlb::Region *region,
                tlb::TlbEntry &entry) override;
};

} // namespace pmodv::arch

#endif // PMODV_ARCH_MPK_HH
