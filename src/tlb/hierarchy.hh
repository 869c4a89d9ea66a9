/**
 * @file
 * Two-level TLB hierarchy with a page walker, per the paper's
 * Table II: 64-entry 4-way L1, 1536-entry 6-way L2 (4 cycles), 30
 * cycle walk penalty. Protection schemes hook the fill path through
 * TlbFillPolicy to stamp entries with protection keys (MPK designs)
 * or domain ids (domain virtualization).
 */

#ifndef PMODV_TLB_HIERARCHY_HH
#define PMODV_TLB_HIERARCHY_HH

#include <memory>

#include "tlb/addrspace.hh"
#include "tlb/tlb.hh"

namespace pmodv::tlb
{

/**
 * Scheme-specific hook invoked when a page walk fills a new TLB
 * entry. The base translation fields are prefilled from the address
 * space; the hook adds the protection metadata (key/domain) and
 * reports any extra cycles its own structures consumed (e.g. a DTTLB
 * key remap with its shootdown).
 */
class TlbFillPolicy
{
  public:
    virtual ~TlbFillPolicy() = default;

    /**
     * Stamp protection metadata into @p entry for a walk of @p va by
     * thread @p tid. @p region is the mapped region (nullptr when the
     * VA is outside every mapping); it points into the AddressSpace,
     * so it must not be kept past this call. Returns extra cycles.
     */
    virtual Cycles fill(ThreadId tid, Addr va, const Region *region,
                        TlbEntry &entry) = 0;
};

/** Fill policy for schemes with no per-entry protection metadata. */
class PlainFillPolicy : public TlbFillPolicy
{
  public:
    Cycles
    fill(ThreadId, Addr, const Region *, TlbEntry &) override
    {
        return 0;
    }
};

/** Static configuration of the TLB hierarchy. */
struct TlbHierarchyParams
{
    TlbParams l1{"l1tlb", 64, 4, 0};
    TlbParams l2{"l2tlb", 1536, 6, 4};
    Cycles walkLatency = 30;
};

/** Result of translating one access. */
struct TranslateResult
{
    /** The (L1) entry the access resolved to; never null. */
    const TlbEntry *entry = nullptr;
    /** Cycles the translation added beyond the folded L1 lookup
     *  (L2 lookup + page walk); partially hidden by the OoO core. */
    Cycles latency = 0;
    /** Serializing cycles the protection fill consumed (DTT walks,
     *  key remaps, shootdowns); never hidden. */
    Cycles fillExtra = 0;
    bool l1Hit = false;
    bool l2Hit = false;
    bool walked = false;
};

/**
 * L1+L2 TLB with page walker. Owns no protection policy; the
 * ProtectionScheme supplies one via setFillPolicy().
 */
class TlbHierarchy : public stats::Group
{
  public:
    TlbHierarchy(stats::Group *parent, const TlbHierarchyParams &params,
                 const AddressSpace &space);

    /** Install the scheme's fill hook (not owned). */
    void setFillPolicy(TlbFillPolicy *policy) { fillPolicy_ = policy; }

    /**
     * Translate @p va for thread @p tid, walking and filling on a
     * full miss. An L1 hit resolves inline; a miss takes missL1().
     */
    TranslateResult
    translate(ThreadId tid, Addr va)
    {
        if (TlbEntry *e = l1_->lookup(va)) {
            TranslateResult res;
            res.entry = e;
            res.l1Hit = true;
            return res;
        }
        return missL1(tid, va);
    }

    /** Ranged invalidation in both levels (Range_Flush). */
    unsigned flushRange(Addr base, Addr size);

    /** Invalidate entries carrying @p key in both levels. */
    unsigned flushKey(ProtKey key);

    Tlb &l1() { return *l1_; }
    Tlb &l2() { return *l2_; }
    const TlbHierarchyParams &params() const { return params_; }

    stats::Scalar walks; ///< Page table walks performed.
    stats::Histogram missLatency; ///< Cycles added per L1 miss.

  private:
    /** The L2 lookup and promote, else the walk and the fill policy,
     *  after @p va missed the L1. */
    TranslateResult missL1(ThreadId tid, Addr va);

    TlbHierarchyParams params_;
    const AddressSpace &space_;
    TlbFillPolicy *fillPolicy_;
    PlainFillPolicy defaultPolicy_;
    std::unique_ptr<Tlb> l1_;
    std::unique_ptr<Tlb> l2_;
};

} // namespace pmodv::tlb

#endif // PMODV_TLB_HIERARCHY_HH
