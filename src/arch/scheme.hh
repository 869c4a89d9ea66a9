/**
 * @file
 * The ProtectionScheme interface: the contract every evaluated
 * mechanism (no-protection, lowerbound, stock MPK, libmpk, HW MPK
 * virtualization, HW domain virtualization) implements.
 *
 * A scheme is both *functional* (it decides whether each access is
 * legal, maintaining real PKRU/DTT/DTTLB/PT/PTLB state) and *timing*
 * (it reports the extra cycles its structures consumed, bucketed into
 * the overhead categories of the paper's Table VII).
 *
 * The two baselines are one pass-through class (arch/factory.cc); the
 * three key-based schemes share KeyScheme (arch/key_scheme.hh), and
 * domain_virt derives from ProtectionScheme directly.
 */

#ifndef PMODV_ARCH_SCHEME_HH
#define PMODV_ARCH_SCHEME_HH

#include <span>
#include <string>
#include <vector>

#include "arch/domain_profile.hh"
#include "arch/params.hh"
#include "common/types.hh"
#include "stats/stats.hh"
#include "tlb/hierarchy.hh"
#include "trace/event_ring.hh"

namespace pmodv::arch
{

class ShootdownBus;
struct ShootdownRange;

/** Why an access was denied. */
enum class FaultKind : std::uint8_t
{
    None = 0,
    PagePermission,   ///< Page-level permission insufficient.
    DomainPermission, ///< Thread lacks domain permission.
    NotAttached,      ///< VA belongs to no attached PMO mapping.
};

/** Outcome of a per-access protection check. */
struct CheckResult
{
    bool allowed = true;
    Cycles extraCycles = 0;
    FaultKind fault = FaultKind::None;
};

/** The context of one memory access being checked. */
struct AccessContext
{
    ThreadId tid = 0;
    Addr va = 0;
    AccessType type = AccessType::Read;
    /** The translation the access resolved to (never null). */
    const tlb::TlbEntry *entry = nullptr;
};

/**
 * Base class of all protection schemes.
 *
 * Lifecycle: the System constructs the scheme with the core topology,
 * then attaches each core's private TLB hierarchy via attachCore()
 * (core 0 first). Schemes that stamp keys/domains into TLB entries,
 * or keep per-core translation caches (DTTLB/PTLB), hook
 * onCoreAttached(). Multi-core machines also connect the shared
 * ShootdownBus; single-core machines don't, and schemes flush their
 * one core's TLB in line there.
 */
class ProtectionScheme : public stats::Group
{
  public:
    ProtectionScheme(stats::Group *parent, std::string name,
                     const ProtParams &params, const CoreTopology &topo);
    ~ProtectionScheme() override = default;

    /**
     * True when checkAccess() unconditionally allows at zero cost
     * (no-protection/lowerbound). The batch replay loop skips the
     * check — and the AccessContext construction — entirely.
     */
    bool alwaysAllows() const { return alwaysAllows_; }

    const ProtParams &params() const { return params_; }

    /**
     * Connect the event flight recorder (not owned; typically the
     * owning System's ring). Schemes post key evictions, shootdowns
     * and buffer refills to it; a null ring disables posting.
     */
    void setEventRing(trace::EventRing *ring) { events_ = ring; }

    /**
     * Connect core @p core's private data TLB (not owned). Calls
     * onCoreAttached() so schemes can install their fill policy and
     * build per-core structures.
     */
    void attachCore(CoreId core, tlb::TlbHierarchy *tlb);

    /**
     * Connect the shared shootdown fabric (multi-core machines only;
     * not owned). Schemes that evict keys route their charged
     * invalidations through it when present.
     */
    void setShootdownBus(ShootdownBus *bus) { bus_ = bus; }

    /**
     * Tell the scheme which core issues the next calls. The replay
     * loop sets this before dispatching each record that reaches the
     * scheme (core 0 is the default).
     */
    void setActiveCore(CoreId core) { activeCore_ = core; }

    /**
     * Check one memory access against the domain permissions. Page
     * permission is checked here too (strictest-of-both rule).
     */
    virtual CheckResult checkAccess(const AccessContext &ctx) = 0;

    /**
     * Execute SETPERM (or the scheme's equivalent): set thread
     * @p tid's permission for @p domain. Returns the cycles consumed.
     */
    virtual Cycles setPerm(ThreadId tid, DomainId domain, Perm perm) = 0;

    /**
     * Execute a raw WRPKRU (legacy MPK PKRU programming). Key-based
     * schemes override to actually update PKRU state; the default
     * charges the instruction cost only.
     */
    virtual Cycles wrpkruRaw(ThreadId tid, ProtKey key, Perm perm);

    /**
     * Attach notification: domain @p domain was mapped at
     * [base, base+size) (already present in the AddressSpace).
     * Returns cycles charged to the attach syscall path.
     */
    virtual Cycles attach(ThreadId tid, DomainId domain, Addr base,
                          Addr size, Perm max_perm) = 0;

    /** Detach notification. */
    virtual Cycles detach(ThreadId tid, DomainId domain) = 0;

    /** The core context-switched from @p from to @p to. */
    virtual Cycles contextSwitch(ThreadId from, ThreadId to) = 0;

    /**
     * Query the *effective* permission thread @p tid currently holds
     * for @p domain (functional oracle used by tests and the PMO
     * runtime).
     */
    virtual Perm effectivePerm(ThreadId tid, DomainId domain) const = 0;

    /**
     * Per-domain attribution: which PMOs the scheme's protection work
     * (fills, evictions, shootdowns, SETPERMs) landed on. Reports
     * rank this into the "hot domains" table.
     */
    const DomainProfile &domainProfile() const { return profile_; }

    /**
     * Add the scheme's counters to the System's timeline sampler.
     * The base registers the cross-scheme event counters (key
     * evictions, shootdowns, shootdown pages, permission changes);
     * schemes with private buffers override to add their miss
     * counters (DTTLB/PTLB) and must call the base first.
     */
    virtual void registerTimelineTracks(stats::TimeSeries &timeline);

    // ---- Table VII overhead buckets (cycles) ----
    stats::Scalar cycPermissionChange; ///< SETPERM/WRPKRU instructions.
    stats::Scalar cycEntryChange;      ///< DTTLB/PTLB entry operations.
    stats::Scalar cycTableMiss;        ///< DTT walks / PT lookups.
    stats::Scalar cycTlbInvalidation;  ///< Shootdown costs (direct).
    stats::Scalar cycAccessLatency;    ///< Per-access adders (PTLB).
    stats::Scalar cycSoftware;         ///< Syscall/PTE-rewrite (libmpk).

    // ---- event counters ----
    stats::Scalar permChanges;     ///< SETPERM/WRPKRU executed.
    stats::Scalar setperms;        ///< SETPERM instructions executed.
    stats::Scalar wrpkrus;         ///< Raw WRPKRU instructions executed.
    stats::Scalar keyRemaps;       ///< Domain->key (re)assignments.
    stats::Scalar keyEvictions;    ///< Victim domains that lost a key.
    stats::Scalar shootdowns;      ///< Ranged TLB invalidations issued.
    stats::Scalar shootdownPages;  ///< TLB entries shot down by them.
    stats::Scalar protectionFaults; ///< Accesses denied.

  protected:
    /** Declare that checkAccess() always allows at zero cost. */
    void setAlwaysAllows() { alwaysAllows_ = true; }

    /** Helper: combine page and domain permission, build the result. */
    CheckResult judge(const AccessContext &ctx, Perm domain_perm,
                      Cycles extra) const;

    /**
     * Charge one SETPERM instruction: bumps permChanges/setperms,
     * attributes the WRPKRU latency to the permission-change bucket
     * and returns it. Every scheme's setPerm starts here.
     */
    Cycles chargeSetPerm();

    /** As chargeSetPerm(), for a raw WRPKRU. */
    Cycles chargeWrpkru();

    /**
     * Hook for attachCore(): @p tlb is core @p core's hierarchy,
     * already recorded in coreTlbs_. Default does nothing.
     */
    virtual void onCoreAttached(CoreId core, tlb::TlbHierarchy *tlb);

    /**
     * Functionally flush [base, base+size) from EVERY core's TLB,
     * uncharged — the munmap/detach coherence path, not a modelled
     * shootdown. Returns the total entries flushed.
     */
    std::uint64_t flushRangeAllCores(Addr base, Addr size);

    /** As flushRangeAllCores(), for a protection key. */
    void flushKeyAllCores(ProtKey key);

    /**
     * The shootdown work of one key eviction: @p victim_domain lost
     * @p victim_key and the translations of @p ranges go stale on
     * every core. With a shootdown bus the ranges go out as one
     * broadcast, charging the initiator plus each responding core that
     * held stale entries; without one (single-core) the ranges are
     * flushed in line for one flat invalidation charge. Counts the
     * eviction and its shootdown, attributes them, posts the
     * KeyEviction and Shootdown events and returns the cycles.
     */
    Cycles evictKey(ThreadId tid, DomainId victim_domain,
                    ProtKey victim_key,
                    std::span<const ShootdownRange> ranges);

    /** Post to the event ring (no-op when none is connected). */
    void
    postEvent(trace::EventKind kind, ThreadId tid,
              std::uint32_t arg = 0, std::uint64_t value = 0)
    {
        if (events_)
            events_->post(kind, tid, arg, value);
    }

    ProtParams params_;
    CoreTopology topo_;
    /** All attached cores' TLBs, indexed by CoreId. */
    std::vector<tlb::TlbHierarchy *> coreTlbs_;
    ShootdownBus *bus_ = nullptr;
    CoreId activeCore_ = 0;
    trace::EventRing *events_ = nullptr;
    DomainProfile profile_;

  private:
    bool alwaysAllows_ = false;
};

} // namespace pmodv::arch

#endif // PMODV_ARCH_SCHEME_HH
