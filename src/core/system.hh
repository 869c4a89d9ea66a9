/**
 * @file
 * The replay pipeline: one System owns a complete simulated machine
 * (address space, TLBs, caches, memory, protection scheme) and
 * replays a captured trace, accumulating cycles. A trace is captured
 * once and then replayed as a span through one System per scheme,
 * the way the paper replays one Pin trace under every mechanism.
 */

#ifndef PMODV_CORE_SYSTEM_HH
#define PMODV_CORE_SYSTEM_HH

#include <array>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "arch/factory.hh"
#include "arch/shootdown_bus.hh"
#include "core/config.hh"
#include "mem/hierarchy.hh"
#include "stats/slow_digest.hh"
#include "stats/stats.hh"
#include "stats/timeseries.hh"
#include "tlb/hierarchy.hh"
#include "trace/event_ring.hh"
#include "trace/record.hh"

namespace pmodv::core
{

/**
 * Private replay state of one core: its own TLB hierarchy, caches,
 * running thread and cycle attribution. The PMO/domain registry, page
 * tables, DTT/DRT, key-allocation state and shootdown bus stay
 * shared, inside the scheme / System.
 *
 * On a multi-core machine each core is a `core<k>` stats group under
 * the System holding its counters, TLB and caches. A one-core machine
 * registers no such group: its TLB and caches sit directly under the
 * System (the layout the golden-replay tests pin down) and the
 * per-core counters, which would repeat the System's, stay out of
 * the tree.
 */
class CoreContext : public stats::Group
{
  public:
    /**
     * Core @p idx of @p system. With @p own_group the core registers
     * as the System's `core<idx>` child and parents its TLB and caches;
     * without it, they are parented under @p system directly.
     */
    CoreContext(stats::Group *system, unsigned idx, bool own_group,
                const SimConfig &config, tlb::AddressSpace &space);

    stats::Scalar cycles;        ///< Cycles accumulated on this core.
    stats::Scalar instructions;  ///< Instructions issued here.
    stats::Scalar memAccesses;   ///< Loads + stores replayed here.
    stats::Scalar ctxSwitches;   ///< Context switches taken here.
    stats::Scalar ipisResponded; ///< Shootdown IPIs answered w/ stale entries.
    stats::Scalar ipisFiltered;  ///< Shootdown IPIs with nothing to flush.

    tlb::TlbHierarchy tlb;
    mem::CacheHierarchy caches;

    /** This core's id (== its position in System's core list). */
    const arch::CoreId index;
    /** The thread currently scheduled on this core. */
    ThreadId curTid = 0;
    /** This core's private cycle counter (makespan input). */
    Cycles cycleCount = 0;
    /**
     * Open-loop idle offset: cycles this core's virtual clock jumped
     * forward waiting for the next stamped arrival (request-latency
     * tracking only; never charged to any attribution bucket).
     */
    Cycles idleSkew = 0;
};

/** A full machine replaying a trace under one protection scheme. */
class System : public stats::Group
{
  public:
    /**
     * Build a pipeline. @p name becomes the stats prefix; @p scheme
     * selects the protection mechanism.
     */
    System(const SimConfig &config, arch::SchemeKind scheme,
           std::string name = "");
    ~System() override;

    /**
     * Replay a batch of records. This is the System's only way in,
     * for every core count: thread t runs on core t % K. The loop
     * hoists config/scheme lookups, skips the per-access protection
     * check of a scheme that always allows (ProtectionScheme::
     * alwaysAllows) and bumps every counter in place. Counters are
     * exact integers and the loop keeps no state between records
     * beyond the machine's, so however a trace is split into batches,
     * the cycles, stats tree, event ring and timeline come out the
     * same.
     *
     * Call finish() after the last batch.
     */
    void replayBatch(std::span<const trace::TraceRecord> records);

    /** Ends the replay: closes the timeline's trailing epoch. */
    void finish();

    /** Total cycles accumulated so far (summed over all cores). */
    Cycles totalCycles() const { return cycleCount_; }

    /**
     * Wall-clock makespan in cycles: the busiest core's counter (the
     * plain total on a single core).
     */
    Cycles makespanCycles() const;

    /** Simulated seconds of makespan at the configured clock. */
    double seconds() const { return config_.secondsFor(makespanCycles()); }

    const SimConfig &config() const { return config_; }
    arch::SchemeKind schemeKind() const { return schemeKind_; }
    arch::ProtectionScheme &scheme() { return *scheme_; }
    const arch::ProtectionScheme &scheme() const { return *scheme_; }
    /** Core 0's TLB hierarchy and caches. */
    tlb::TlbHierarchy &tlbs() { return cores_[0]->tlb; }
    mem::CacheHierarchy &caches() { return cores_[0]->caches; }
    tlb::AddressSpace &addressSpace() { return space_; }

    /** Core count of this machine. */
    unsigned numCores() const { return config_.topology.numCores; }

    /** Core @p k's private state. */
    CoreContext &coreAt(arch::CoreId k) { return *cores_.at(k); }

    /** The IPI broadcast fabric (null on single-core machines). */
    arch::ShootdownBus *shootdownBus() { return bus_.get(); }
    const arch::ShootdownBus *shootdownBus() const { return bus_.get(); }

    /** The protection layer's flight recorder. */
    trace::EventRing &events() { return events_; }
    const trace::EventRing &events() const { return events_; }

    /** Drain the event ring (oldest first; the ring empties). */
    std::vector<trace::Event> drainEvents() { return events_.drain(); }

    // Replay statistics.
    stats::Scalar cycles;         ///< Total simulated cycles.
    stats::Scalar instructions;   ///< Dynamic instructions replayed.
    stats::Scalar memAccesses;    ///< Loads + stores replayed.
    stats::Scalar pmoAccesses;    ///< Loads + stores to PMO memory.
    stats::Scalar operations;     ///< Workload operations completed.
    stats::Scalar deniedAccesses; ///< Accesses denied by protection.

    // Where the cycles went. These buckets partition `cycles`: every
    // cycle the replay loop charges names exactly one of them, so their
    // sum always equals the total (asserted by
    // tools/check_stats_schema.py).
    stats::Scalar cycIssue;     ///< Instruction issue (InstBlock).
    stats::Scalar cycMem;       ///< Visible load/store latency.
    stats::Scalar cycProtFill;  ///< Serializing fill work on TLB misses.
    stats::Scalar cycProtCheck; ///< Per-access protection checks.
    stats::Scalar cycPermInstr; ///< SETPERM/WRPKRU instructions.
    stats::Scalar cycSyscall;   ///< Attach/detach paths.
    stats::Scalar cycCtxSwitch; ///< Context-switch processing.

    stats::Formula ipc; ///< Instructions per cycle.
    /** Cycles per workload operation (OpBegin..OpEnd), log2 buckets. */
    stats::Histogram opCycles;

    /**
     * Request-latency histograms, created only when
     * config.opClasses > 0 (open-loop server replays); null
     * otherwise, so legacy stats trees keep their pinned shape.
     * op_lat measures stamped arrival -> completion (service time
     * plus queueing), op_queue measures arrival -> service start.
     */
    const stats::Histogram *opLatHist() const { return opLat_.get(); }
    const stats::Histogram *opQueueHist() const { return opQueue_.get(); }
    /** Per-class variants (class i < config.opClasses, else null). */
    const stats::Histogram *
    opLatClassHist(unsigned i) const
    {
        return i < opLatClass_.size() ? opLatClass_[i].get() : nullptr;
    }
    const stats::Histogram *
    opQueueClassHist(unsigned i) const
    {
        return i < opQueueClass_.size() ? opQueueClass_[i].get()
                                        : nullptr;
    }

    /**
     * True when the per-request tail-forensics layer is active
     * (config.slowRequestK > 0 and opClasses > 0). When off, stats
     * trees, event rings and JSON exports are bit-identical to a
     * build without the layer.
     */
    bool forensicsEnabled() const { return opForensics_; }

    /** Aggregate top-K slow-request digest (null unless forensics). */
    const stats::SlowRequestDigest *slowDigest() const
    {
        return slowDigest_.get();
    }
    /** Per-class digest (class i < config.opClasses, else null). */
    const stats::SlowRequestDigest *
    slowDigestClass(unsigned i) const
    {
        return i < slowDigestClass_.size() ? slowDigestClass_[i].get()
                                           : nullptr;
    }

    /**
     * Epoch-sampled counter trajectory (config.samplingEpochCycles; off
     * by default). Tracks the replay counters, the cycle-attribution
     * buckets, L1 TLB misses and the scheme's eviction/shootdown
     * counters — plus whatever the scheme adds via its
     * registerTimelineTracks() hook (DTTLB/PTLB misses).
     */
    stats::TimeSeries timeline;

  private:
    /** The visible-latency formula (slow path / table filler). */
    Cycles visibleCycles(Cycles lat) const;

    /**
     * Request-latency tracking on a stamped OpBegin: advance the
     * serving core's virtual clock (@p cycle_now + @p idle_skew) to
     * the stamped arrival if the core is ahead of the arrival
     * process (the jump moves only the idle offset — no attribution
     * bucket is charged), then sample the queueing delay.
     */
    void beginTrackedOp(const trace::TraceRecord &rec, Cycles cycle_now,
                        Cycles &idle_skew);

    /** Sample arrival->completion latency at a stamped op's OpEnd. */
    void endTrackedOp(Cycles cycle_now, Cycles idle_skew);

    /** Current values of the 7 attribution buckets, digest order. */
    std::array<std::uint64_t, stats::kSlowDigestBuckets>
    bucketCycles() const;

    /**
     * Open a request blame window at a stamped OpBegin (forensics
     * only): assign the request id, mark the event ring so in-window
     * events can be identified, tag subsequently posted events with
     * the id, and remember the bucket snapshot @p snap.
     */
    void beginForensics(const trace::TraceRecord &rec,
                        const std::array<std::uint64_t,
                                         stats::kSlowDigestBuckets> &snap);

    /**
     * Close the blame window at the op's OpEnd: compute the request's
     * bucket breakdown (snap - the OpBegin snapshot), its latency
     * partition (queue + service + residue), collect the in-window
     * event chain from the ring, and offer the entry to the digests.
     */
    void endForensics(const trace::TraceRecord &rec, Cycles cycle_now,
                      Cycles idle_skew,
                      const std::array<std::uint64_t,
                                       stats::kSlowDigestBuckets> &snap);

    SimConfig config_;
    arch::SchemeKind schemeKind_;
    trace::EventRing events_;
    tlb::AddressSpace space_;
    std::vector<std::unique_ptr<CoreContext>> cores_;
    std::unique_ptr<arch::ShootdownBus> bus_;
    std::unique_ptr<arch::ProtectionScheme> scheme_;
    Cycles cycleCount_ = 0;
    /** visTable_[lat] = visible cycles for translate+mem latency lat. */
    std::vector<Cycles> visTable_;
    /** Cycle count at the most recent OpBegin (op in flight if set). */
    Cycles opStart_ = 0;
    bool opInFlight_ = false;

    // ---- request-latency tracking (config.opClasses > 0) ----
    /** True when the op_lat/op_queue histograms exist. */
    bool opTrack_ = false;
    /** Arrival stamp / class of the in-flight tracked op. */
    Cycles opArrival_ = 0;
    std::uint32_t opClassCur_ = 0;
    bool opHasArrival_ = false;
    /**
     * Virtual-clock origin of the arrival process, latched at the
     * first stamped OpBegin: capture-time stamps are relative to the
     * moment the server finishes setup and starts serving, so the
     * (scheme-dependent) setup cost does not masquerade as queueing.
     */
    Cycles opArrivalBase_ = 0;
    bool opBaseSet_ = false;
    std::unique_ptr<stats::Histogram> opLat_;
    std::unique_ptr<stats::Histogram> opQueue_;
    std::vector<std::unique_ptr<stats::Histogram>> opLatClass_;
    std::vector<std::unique_ptr<stats::Histogram>> opQueueClass_;

    // ---- tail forensics (config.slowRequestK > 0, opClasses > 0) ----
    /** True when the slow-request digests exist. */
    bool opForensics_ = false;
    /** Queueing delay of the in-flight tracked op (beginTrackedOp). */
    Cycles opQueueCur_ = 0;
    /** Monotone tracked-request counter (ids are 1-based). */
    std::uint64_t reqNextId_ = 0;
    /** Id of the open blame window (0 = none). */
    std::uint64_t reqId_ = 0;
    /** Global cycle count at the window's OpBegin. */
    Cycles reqBegin_ = 0;
    /** Primary domain stamped on the window's OpBegin (aux field). */
    std::uint64_t reqDomain_ = 0;
    /** Ring lastId() at OpBegin: in-window events have larger ids. */
    std::uint64_t reqRingMark_ = 0;
    /** Attribution-bucket snapshot taken at OpBegin. */
    std::array<std::uint64_t, stats::kSlowDigestBuckets> reqSnap_{};
    std::unique_ptr<stats::SlowRequestDigest> slowDigest_;
    std::vector<std::unique_ptr<stats::SlowRequestDigest>>
        slowDigestClass_;
};

} // namespace pmodv::core

#endif // PMODV_CORE_SYSTEM_HH
