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
 * The host keeps the DTT's payloads in a DomainTable and takes a DTT
 * walk's domain from the page walk's region: the walk is charged and
 * counted, not performed.
 */

#ifndef PMODV_ARCH_MPK_VIRT_HH
#define PMODV_ARCH_MPK_VIRT_HH

#include <memory>
#include <vector>

#include "arch/domain_table.hh"
#include "arch/dttlb.hh"
#include "arch/pkru.hh"
#include "arch/scheme.hh"

namespace pmodv::arch
{

/** Per-domain payload stored in DTT PMO-root entries. */
struct DttInfo
{
    DomainId domain = kNullDomain; ///< kNullDomain: not attached.
    /** Key the domain currently maps to (kInvalidKey when unmapped). */
    ProtKey key = kInvalidKey;
    /** Cached region bounds for shootdowns. */
    Addr base = 0;
    Addr size = 0;
    /** Per-thread domain permissions. */
    PermRow perms;
};

/** Hardware MPK virtualization. */
class MpkVirtScheme : public ProtectionScheme, private tlb::TlbFillPolicy
{
  public:
    MpkVirtScheme(stats::Group *parent, const ProtParams &params,
                  const CoreTopology &topo,
                  const tlb::AddressSpace &space);

    void registerTimelineTracks(stats::TimeSeries &timeline) override;

    CheckResult checkAccess(const AccessContext &ctx) override;
    Cycles setPerm(ThreadId tid, DomainId domain, Perm perm) override;
    Cycles attach(ThreadId tid, DomainId domain, Addr base, Addr size,
                  Perm max_perm) override;
    Cycles detach(ThreadId tid, DomainId domain) override;
    Cycles contextSwitch(ThreadId from, ThreadId to) override;
    Perm effectivePerm(ThreadId tid, DomainId domain) const override;

    /** The domain currently holding @p key (kNullDomain if free). */
    DomainId domainOfKey(ProtKey key) const;

    /** The key currently held by @p domain (kInvalidKey if none). */
    ProtKey keyOf(DomainId domain) const;

    const Pkru &pkru(ThreadId tid) const { return pkrus_.forThread(tid); }
    /** Core 0's DTTLB (the only one on single-core machines). */
    Dttlb &dttlb() { return *dttlbs_[0]; }
    /** Core @p core's private DTTLB. */
    Dttlb &dttlbAt(CoreId core) { return *dttlbs_[core]; }

    stats::Scalar dttWalks;        ///< DTT walks on DTTLB misses.
    stats::Scalar dttlbWritebacks; ///< Dirty DTTLB entries written to the DTT.
    stats::Scalar contextSwitches;

  protected:
    void onCoreAttached(CoreId core, tlb::TlbHierarchy *tlb) override;

  private:
    Cycles fill(ThreadId tid, Addr va, const tlb::Region *region,
                tlb::TlbEntry &entry) override;

    /**
     * Resolve the key for @p info on a TLB-miss fill, remapping if
     * needed. Returns the extra cycles spent.
     */
    Cycles resolveKey(ThreadId tid, DttInfo &info);

    /** Assign @p key to @p info, updating DTT/DTTLB/PKRU/recency. */
    void bindKey(ThreadId tid, DttInfo &info, ProtKey key);

    /** Install/update the active core's DTTLB entry; returns cycles. */
    Cycles cacheInDttlb(DttInfo &info);

    /** Invalidate @p domain in EVERY core's DTTLB. */
    void invalidateDomainAllDttlbs(DomainId domain);

    DomainTable<DttInfo> domains_;
    /** Per-core DTTLBs; [0] exists from construction. */
    std::vector<std::unique_ptr<Dttlb>> dttlbs_;
    KeyTable keys_;
    PkruFile pkrus_;
};

} // namespace pmodv::arch

#endif // PMODV_ARCH_MPK_VIRT_HH
