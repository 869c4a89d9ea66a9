/**
 * @file
 * The common core of the three key-based schemes (stock MPK, libmpk,
 * HW MPK virtualization). They differ only in where the domain->key
 * map lives and who pays to change it; the registry, the 16-entry key
 * table, the per-thread PKRU file, the per-access PKRU check and the
 * LRU key hand-over are one mechanism, kept here.
 */

#ifndef PMODV_ARCH_KEY_SCHEME_HH
#define PMODV_ARCH_KEY_SCHEME_HH

#include <string>

#include "arch/domain_table.hh"
#include "arch/pkru.hh"
#include "arch/scheme.hh"

namespace pmodv::arch
{

/**
 * Base of the key-based schemes. Every core's TLB fills through the
 * scheme's fill(), which stamps the pkey of the page's domain.
 */
class KeyScheme : public ProtectionScheme, private tlb::TlbFillPolicy
{
  public:
    KeyScheme(stats::Group *parent, std::string name,
              const ProtParams &params, const CoreTopology &topo);

    /**
     * The PKRU check of the TLB entry's key: the running thread's bits
     * for it govern, together with the page permission. A domainless
     * entry (kNullKey) is checked by page permission alone.
     */
    CheckResult checkAccess(const AccessContext &ctx) final;

    /** PKRU save/restore is part of normal thread state: free. */
    Cycles contextSwitch(ThreadId from, ThreadId to) override;

    /** The key currently backing @p domain (kInvalidKey if none). */
    ProtKey keyOf(DomainId domain) const;

    /** The domain currently holding @p key (kNullDomain if free). */
    DomainId
    domainOfKey(ProtKey key) const
    {
        return key < kNumProtKeys ? keys_.holder(key) : kNullDomain;
    }

    const Pkru &pkru(ThreadId tid) const { return pkrus_.forThread(tid); }

  protected:
    void onCoreAttached(CoreId core, tlb::TlbHierarchy *tlb) override;

    /**
     * Give @p row a key: a free one, else the least recently used
     * holder's, whose row loses it (key = kInvalidKey). The key is
     * loaded into every thread's PKRU from @p row's permissions, so
     * threads on other cores, or not running, hold no stale grant of
     * the previous holder. Returns the row that lost the key (nullptr
     * when a free key was taken); its shootdown is the caller's.
     */
    DomainRow *takeKey(DomainRow &row);

    DomainTable domains_;
    KeyTable keys_;
    PkruFile pkrus_;
};

} // namespace pmodv::arch

#endif // PMODV_ARCH_KEY_SCHEME_HH
