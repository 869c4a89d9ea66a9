/**
 * @file
 * The paper's first proposed design: **hardware MPK virtualization**.
 *
 * MPK is kept intact (PKRU, pkey-stamped TLB entries); a Domain
 * Translation Table (DTT, an OS-managed radix tree over VA) records
 * for every attached PMO its domain id, the key it currently maps to
 * and the per-thread domain permissions. A 16-entry DTTLB caches DTT
 * entries. On a TLB miss to a domain with no key, a free key is
 * claimed — or an LRU victim domain's key is reassigned, which costs
 * a PKRU update and a ranged TLB shootdown of the victim's pages.
 *
 * The host keeps the DTT's payloads as DomainTable rows (domain id,
 * key, range, per-thread permissions) and takes a DTT walk's domain
 * from the page walk's region: the walk is charged and counted, not
 * performed.
 */

#ifndef PMODV_ARCH_MPK_VIRT_HH
#define PMODV_ARCH_MPK_VIRT_HH

#include <memory>
#include <vector>

#include "arch/dttlb.hh"
#include "arch/key_scheme.hh"

namespace pmodv::arch
{

/** Hardware MPK virtualization. */
class MpkVirtScheme : public KeyScheme
{
  public:
    MpkVirtScheme(stats::Group *parent, const ProtParams &params,
                  const CoreTopology &topo);

    void registerTimelineTracks(stats::TimeSeries &timeline) override;

    Cycles setPerm(ThreadId tid, DomainId domain, Perm perm) override;
    Cycles attach(ThreadId tid, DomainId domain, Addr base, Addr size,
                  Perm max_perm) override;
    Cycles detach(ThreadId tid, DomainId domain) override;
    Cycles contextSwitch(ThreadId from, ThreadId to) override;
    Perm effectivePerm(ThreadId tid, DomainId domain) const override;

    /** Core 0's DTTLB (the only one on single-core machines). */
    Dttlb &dttlb() { return *dttlbs_[0]; }

    stats::Scalar dttWalks;        ///< DTT walks on DTTLB misses.
    stats::Scalar dttlbWritebacks; ///< Dirty DTTLB entries written to the DTT.
    stats::Scalar contextSwitches;

  protected:
    void onCoreAttached(CoreId core, tlb::TlbHierarchy *tlb) override;

  private:
    Cycles fill(ThreadId tid, Addr va, const tlb::Region *region,
                tlb::TlbEntry &entry) override;

    /**
     * Resolve the key for @p row on a TLB-miss fill, remapping if
     * needed. Returns the extra cycles spent.
     */
    Cycles resolveKey(ThreadId tid, DomainRow &row);

    /** Install/update the active core's DTTLB entry; returns cycles. */
    Cycles cacheInDttlb(const DomainRow &row);

    /** Invalidate @p domain in EVERY core's DTTLB. */
    void invalidateDomainAllDttlbs(DomainId domain);

    /** Per-core DTTLBs; [0] exists from construction. */
    std::vector<std::unique_ptr<Dttlb>> dttlbs_;
};

} // namespace pmodv::arch

#endif // PMODV_ARCH_MPK_VIRT_HH
