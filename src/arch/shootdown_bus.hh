/**
 * @file
 * The cross-core TLB shootdown bus.
 *
 * With more than one core, a key eviction (mpk_virt) or pkey_mprotect
 * remap (libmpk), both handed over by KeyScheme::takeKey() and shot
 * down by ProtectionScheme::evictKey(), can no longer invalidate "the
 * TLB" — each core owns a private TLB hierarchy, and the initiating
 * core must broadcast the stale ranges as inter-processor interrupts.
 * The bus models the cost side of that protocol the way libmpk
 * describes it: every core is interrupted, but only cores *actually
 * holding stale entries* pay the ranged-invalidation cost; the rest
 * acknowledge and return (filtered responses).
 *
 * The bus is shared cross-core state owned by core::System and is
 * only constructed for multi-core topologies — single-core replay
 * flushes the stale ranges in line for one flat charge. Only the
 * shootdown differs with the core count: the key hand-over itself
 * reloads every thread's PKRU at every K. domain_virt never touches
 * the bus: its PT/PTLB permissions are not cached in the address
 * TLBs, which is the paper's central cost asymmetry.
 */

#ifndef PMODV_ARCH_SHOOTDOWN_BUS_HH
#define PMODV_ARCH_SHOOTDOWN_BUS_HH

#include <span>
#include <vector>

#include "arch/params.hh"
#include "common/types.hh"
#include "stats/stats.hh"
#include "trace/event_ring.hh"

namespace pmodv::tlb
{
class TlbHierarchy;
} // namespace pmodv::tlb

namespace pmodv::arch
{

/** One stale VA range a broadcast must invalidate everywhere. */
struct ShootdownRange
{
    Addr base = 0;
    Addr size = 0;
};

/** What one broadcast cost the machine. */
struct ShootdownResult
{
    /** Cycles charged to the initiating thread (initiator flush +
     *  one invalidation charge per responding core). */
    Cycles cycles = 0;
    /** Stale pages invalidated machine-wide (all cores). */
    std::uint64_t pages = 0;
    /** Remote cores that held stale entries and paid the flush. */
    unsigned responders = 0;
};

/**
 * Broadcast shootdown fabric over the per-core TLB hierarchies.
 * Attach every core once (core::System does this when building a
 * multi-core machine), then schemes call broadcast() on eviction.
 */
class ShootdownBus : public stats::Group
{
  public:
    ShootdownBus(stats::Group *parent, const CoreTopology &topo);

    /**
     * Register core @p core's private TLB. @p responded / @p filtered
     * (may be null) are the per-core response counters bumped when
     * this core answers a broadcast with / without stale entries.
     */
    void attachCore(CoreId core, tlb::TlbHierarchy *tlb,
                    stats::Scalar *responded, stats::Scalar *filtered);

    /** IPI events are posted here (not owned; may be null). */
    void setEventRing(trace::EventRing *ring) { events_ = ring; }

    /**
     * Broadcast the invalidation of @p ranges from @p initiator.
     * The initiator flushes its own TLB and always pays one
     * tlbInvalidationCycles charge (the local ranged INVLPG — exactly
     * the single-core cost). Every remote core flushes the ranges;
     * those that held stale entries add one more charge each and post
     * an EventKind::Ipi (arg = responding core, value = pages).
     */
    ShootdownResult broadcast(CoreId initiator, ThreadId tid,
                              std::span<const ShootdownRange> ranges);

    stats::Scalar broadcasts;     ///< Eviction broadcasts issued.
    stats::Scalar ipisSent;       ///< Remote cores interrupted.
    stats::Scalar ipisResponded;  ///< Remote cores holding stale entries.
    stats::Scalar ipisFiltered;   ///< Remote cores with nothing to flush.
    stats::Scalar pagesInvalidated; ///< Stale pages flushed machine-wide.

  private:
    struct CorePort
    {
        tlb::TlbHierarchy *tlb = nullptr;
        stats::Scalar *responded = nullptr;
        stats::Scalar *filtered = nullptr;
    };

    CoreTopology topo_;
    std::vector<CorePort> cores_;
    trace::EventRing *events_ = nullptr;
};

} // namespace pmodv::arch

#endif // PMODV_ARCH_SHOOTDOWN_BUS_HH
