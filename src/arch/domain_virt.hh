/**
 * @file
 * The paper's second proposed design: **hardware domain
 * virtualization**. Protection keys are abandoned entirely:
 *
 *  - each TLB entry carries a 10-bit domain id, filled from the
 *    Domain Range Table (DRT), a VA-indexed radix tree walked in
 *    parallel with the page walk (the host counts the walk and takes
 *    its domain from the page walk's region);
 *  - per-(domain, thread) permissions live in the Permission Table
 *    (PT), cached in the 16-entry PTLB;
 *  - SETPERM completes entirely inside the PTLB;
 *  - key remapping — and therefore TLB shootdown — never happens.
 */

#ifndef PMODV_ARCH_DOMAIN_VIRT_HH
#define PMODV_ARCH_DOMAIN_VIRT_HH

#include <memory>
#include <vector>

#include "arch/domain_table.hh"
#include "arch/ptlb.hh"
#include "arch/scheme.hh"

namespace pmodv::arch
{

/** Hardware domain virtualization. */
class DomainVirtScheme : public ProtectionScheme,
                         private tlb::TlbFillPolicy
{
  public:
    DomainVirtScheme(stats::Group *parent, const ProtParams &params,
                     const CoreTopology &topo);

    void registerTimelineTracks(stats::TimeSeries &timeline) override;

    CheckResult checkAccess(const AccessContext &ctx) override;
    Cycles setPerm(ThreadId tid, DomainId domain, Perm perm) override;
    Cycles attach(ThreadId tid, DomainId domain, Addr base, Addr size,
                  Perm max_perm) override;
    Cycles detach(ThreadId tid, DomainId domain) override;
    Cycles contextSwitch(ThreadId from, ThreadId to) override;
    Perm effectivePerm(ThreadId tid, DomainId domain) const override;

    /** Core 0's PTLB (the only one on single-core machines). */
    Ptlb &ptlb() { return *ptlbs_[0]; }

    /** @p tid's permission for @p domain in the PT (None if unattached). */
    Perm ptGet(DomainId domain, ThreadId tid) const;

    stats::Scalar drtWalks;       ///< DRT walks on TLB misses.
    stats::Scalar ptlbWritebacks; ///< Dirty PTLB entries written to the PT.
    stats::Scalar contextSwitches;

  protected:
    void onCoreAttached(CoreId core, tlb::TlbHierarchy *tlb) override;

  private:
    Cycles fill(ThreadId tid, Addr va, const tlb::Region *region,
                tlb::TlbEntry &entry) override;

    /**
     * Look the domain up in the PTLB, filling from the PT on a miss.
     * Returns the permission and accumulates cycles into @p cycles.
     */
    Perm lookupPerm(ThreadId tid, DomainId domain, Cycles &cycles);

    /** Write @p entry's permission back to the PT. */
    void writeback(ThreadId tid, const PtlbEntry &entry);

    /**
     * Install @p entry in the active core's PTLB, writing a dirty
     * victim back to the PT. Returns the entry-op cycles charged.
     */
    Cycles installPtlb(ThreadId tid, const PtlbEntry &entry);

    /**
     * The DRT root entries' payloads: each domain's range, for detach,
     * and its row of the OS-managed Permission Table (PT), the
     * (domain, thread) -> 2-bit permission map. The PT is plain
     * cacheable memory in the paper; it is modelled functionally (its
     * Table VIII footprint is computed in exp/area.cc).
     */
    DomainTable domains_;
    /** Per-core PTLBs; [0] exists from construction. */
    std::vector<std::unique_ptr<Ptlb>> ptlbs_;
    /** Per core: the thread whose permissions its PTLB caches. */
    std::vector<ThreadId> curTid_;
};

} // namespace pmodv::arch

#endif // PMODV_ARCH_DOMAIN_VIRT_HH
