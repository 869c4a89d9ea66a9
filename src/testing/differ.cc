#include "testing/differ.hh"

#include <algorithm>
#include <array>
#include <memory>
#include <sstream>

#include "common/logging.hh"
#include "common/rng.hh"
#include "core/system.hh"
#include "stats/export.hh"
#include "testing/reference.hh"

namespace pmodv::testing
{

namespace
{

constexpr Addr kPage = 4096;
/** Pages per 16 MB domain slot (the attach size ceiling). */
constexpr std::uint32_t kSlotPages = (16u << 20) / kPage;

/**
 * Seed of the batch-split probe's cut points. Fixed, so the cuts are
 * a function of the records alone and a printed reproducer replays
 * the same split.
 */
constexpr std::uint64_t kSplitSeed = 0x5eed;
/** The probe's batches hold 1..kMaxSpan records. */
constexpr std::uint64_t kMaxSpan = 48;

/** The six kinds in canonical order (none, lowerbound, protected x4). */
constexpr std::array kAllSchemes = {
    arch::SchemeKind::NoProtection, arch::SchemeKind::Lowerbound,
    arch::SchemeKind::Mpk,          arch::SchemeKind::LibMpk,
    arch::SchemeKind::MpkVirt,      arch::SchemeKind::DomainVirt};

bool
isProtected(arch::SchemeKind kind)
{
    return kind == arch::SchemeKind::Mpk ||
           kind == arch::SchemeKind::LibMpk ||
           kind == arch::SchemeKind::MpkVirt ||
           kind == arch::SchemeKind::DomainVirt;
}

/** Event kinds scheme @p kind may legitimately post. */
bool
eventAllowed(arch::SchemeKind kind, trace::EventKind ev)
{
    switch (kind) {
      case arch::SchemeKind::NoProtection:
      case arch::SchemeKind::Lowerbound:
      case arch::SchemeKind::Mpk:
        return false;
      case arch::SchemeKind::LibMpk:
        return ev == trace::EventKind::KeyEviction ||
               ev == trace::EventKind::Shootdown ||
               ev == trace::EventKind::Ipi;
      case arch::SchemeKind::MpkVirt:
        return ev == trace::EventKind::KeyEviction ||
               ev == trace::EventKind::Shootdown ||
               ev == trace::EventKind::DttlbRefill ||
               ev == trace::EventKind::Ipi;
      case arch::SchemeKind::DomainVirt:
        return ev == trace::EventKind::PtlbRefill;
    }
    return false;
}

/**
 * Cycles attributable to the protection scheme itself: attach/detach,
 * SETPERM and context-switch costs plus the fill and check extras of
 * accesses, i.e. every attribution bucket but instruction issue and
 * visible memory latency.
 */
Cycles
schemeCycles(const core::System &sys)
{
    return sys.cycProtFill.value() + sys.cycProtCheck.value() +
           sys.cycPermInstr.value() + sys.cycSyscall.value() +
           sys.cycCtxSwitch.value();
}

} // namespace

BugInjection
injectionFromName(const std::string &name)
{
    if (name == "none")
        return BugInjection::None;
    if (name == "mpk-drop-revoke")
        return BugInjection::MpkDropRevoke;
    if (name == "batch-reset-stat")
        return BugInjection::BatchResetStat;
    fatal("unknown bug injection '%s'", name.c_str());
}

std::string
Violation::toString() const
{
    std::ostringstream out;
    out << "[" << oracle << "]";
    if (!scheme.empty())
        out << " scheme=" << scheme;
    out << " op#" << opIndex << ": " << detail;
    return out.str();
}

std::string
DiffResult::summary() const
{
    if (ok())
        return "all oracles passed";
    std::ostringstream out;
    out << violations.size() << " oracle violation(s):";
    for (const Violation &v : violations)
        out << "\n  " << v.toString();
    return out.str();
}

namespace
{

/** The replay state shared by the per-op handlers. */
class Runner
{
  public:
    Runner(const std::vector<Op> &ops, const DiffConfig &cfg)
        : ops_(ops), cfg_(cfg)
    {
        sim_.topology = cfg.topology;
        // Events are drained after every op; the ring must never drop.
        sim_.eventRingCapacity = std::size_t{1} << 16;
        for (arch::SchemeKind kind : kAllSchemes)
            lanes_.emplace_back().sys =
                std::make_unique<core::System>(sim_, kind);
    }

    DiffResult
    run()
    {
        for (opIndex_ = 0; opIndex_ < ops_.size(); ++opIndex_) {
            runOp();
            if (!result_.violations.empty())
                return result_;
        }
        opIndex_ = ops_.size();
        checkCycleOrder();
        checkBucketSums();
        checkEvents();
        checkTailLatency();
        return result_;
    }

  private:
    /** One scheme's System and the oracle state kept beside it. */
    struct Lane
    {
        std::unique_ptr<core::System> sys;
        /** Posted-event counts, indexed by EventKind. */
        std::array<std::uint64_t, 6> eventCounts{};
        /** Every record fed to the System, in order (batch-split probe). */
        std::vector<trace::TraceRecord> records;
        /** The System's totalCycles after each of @c records. */
        std::vector<Cycles> totalAfter;
        /** Every event drained from the System, in order. */
        std::vector<trace::Event> events;
        /** Last drained event id (forensics oracle). */
        std::uint64_t lastEventId = 0;

        arch::SchemeKind kind() const { return sys->schemeKind(); }
        const char *name() const { return arch::schemeName(kind()); }
    };

    void
    violate(const std::string &oracle, const std::string &scheme,
            const std::string &detail)
    {
        result_.violations.push_back(
            {oracle, scheme, opIndex_, detail});
    }

    /** Hand @p records to @p sys as one replayBatch. */
    void
    replay(core::System &sys,
           std::span<const trace::TraceRecord> records) const
    {
        if (cfg_.inject == BugInjection::BatchResetStat)
            sys.memAccesses.reset(); // Planted: lost at every batch.
        sys.replayBatch(records);
    }

    /** Feed @p rec to @p lane's System alone, as a one-record batch. */
    void
    feed(Lane &lane, const trace::TraceRecord &rec)
    {
        replay(*lane.sys, {&rec, 1});
        lane.records.push_back(rec);
        lane.totalAfter.push_back(lane.sys->totalCycles());
    }

    /**
     * Run the current op with every event it posts tagged by its
     * request id (op index + 1), the tagging System::beginForensics
     * applies to tracked ops.
     */
    void
    runOp()
    {
        for (Lane &lane : lanes_)
            lane.sys->events().setCurrentRequest(opIndex_ + 1);
        step(ops_[opIndex_]);
        drainEvents();
        for (Lane &lane : lanes_)
            lane.sys->events().setCurrentRequest(0);
    }

    /** Feed @p rec to every System. */
    void
    putAll(const trace::TraceRecord &rec)
    {
        for (Lane &lane : lanes_)
            feed(lane, rec);
    }

    void
    step(const Op &op)
    {
        switch (op.kind) {
          case OpKind::Attach:
            doAttach(op);
            break;
          case OpKind::Detach:
            ref_.detach(op.domain);
            putAll(trace::TraceRecord::detach(tid(currentTid_),
                                              op.domain));
            break;
          case OpKind::SetPerm:
            doSetPerm(op.tid, op.domain, op.perm);
            break;
          case OpKind::Access:
            doAccess(op.domain, op.offset, op.type);
            break;
          case OpKind::OutAccess:
            doOneAccess(kOutsideBase + op.offset % kOutsideSize, op.type);
            break;
          case OpKind::ThreadSwitch:
            if (op.tid != currentTid_) {
                putAll(trace::TraceRecord::threadSwitch(tid(op.tid)));
                currentTid_ = op.tid;
            }
            break;
          case OpKind::TlbChurn:
            doChurn(op);
            break;
          case OpKind::TenantChurn:
            doTenantChurn(op);
            break;
        }
    }

    /** @p t as a trace record's 16-bit thread id. */
    static std::uint16_t
    tid(ThreadId t)
    {
        fatal_if(t > UINT16_MAX, "thread id %u does not fit a trace record",
                 t);
        return static_cast<std::uint16_t>(t);
    }

    void
    doAttach(const Op &op)
    {
        if (op.domain == kNullDomain || ref_.isLive(op.domain))
            return; // Double attach is a caller bug, not scheme input.
        const std::uint32_t pages =
            std::max<std::uint32_t>(1, std::min(op.pages, kSlotPages));
        const Addr base = domainBase(op.domain);
        const Addr size = Addr{pages} * kPage;
        ref_.attach(op.domain, base, size, op.perm);
        putAll(trace::TraceRecord::attach(tid(currentTid_), op.domain,
                                          base, size, op.perm));
        for (Lane &lane : lanes_)
            flushAttached(*lane.sys, lane.records.back());
    }

    /**
     * The mmap behind attach record @p rec invalidates prior
     * translations of its range on every core: an access may have
     * touched the slot before it was attached, and the domainless
     * translation cached then would differ by access history, not by
     * scheme.
     */
    static void
    flushAttached(core::System &sys, const trace::TraceRecord &rec)
    {
        for (unsigned k = 0; k < sys.numCores(); ++k)
            sys.coreAt(k).tlb.flushRange(rec.attachBase(), rec.attachSize());
    }

    void
    doSetPerm(ThreadId t, DomainId domain, Perm perm)
    {
        ref_.setPerm(t, domain, perm);
        const auto rec = trace::TraceRecord::setPerm(tid(t), domain, perm);
        for (Lane &lane : lanes_) {
            if (cfg_.inject == BugInjection::MpkDropRevoke &&
                lane.kind() == arch::SchemeKind::Mpk && perm == Perm::None)
                continue; // Planted defect: the revoke never arrives.
            feed(lane, rec);
        }
        checkEffectivePerm(t, domain);
    }

    void
    doAccess(DomainId domain, Addr offset, AccessType type)
    {
        Addr va;
        if (const ReferenceModel::Domain *d = ref_.find(domain))
            va = d->base + offset % d->size;
        else
            va = domainBase(domain) + offset % (Addr{kSlotPages} * kPage);
        doOneAccess(va, type);
    }

    void
    doOneAccess(Addr va, AccessType type)
    {
        const Expectation plain = ref_.expect(currentTid_, va, type,
                                              /*mpk_exhausted_hole=*/false);
        const Expectation mpk = ref_.expect(currentTid_, va, type,
                                            /*mpk_exhausted_hole=*/true);
        // Not flagged as PMO accesses: the memory class comes from the
        // page table, as for any unmarked load or store.
        const auto rec =
            type == AccessType::Read
                ? trace::TraceRecord::load(tid(currentTid_), va, 8, false)
                : trace::TraceRecord::store(tid(currentTid_), va, 8, false);
        for (Lane &lane : lanes_) {
            const std::uint64_t denied = lane.sys->deniedAccesses.value();
            feed(lane, rec);
            if (!isProtected(lane.kind()))
                continue; // Baselines allow everything by design.
            const bool allowed = lane.sys->deniedAccesses.value() == denied;
            const bool expected = lane.kind() == arch::SchemeKind::Mpk
                                      ? mpk.allowed
                                      : plain.allowed;
            if (allowed != expected) {
                std::ostringstream detail;
                detail << "t" << currentTid_ << " "
                       << (type == AccessType::Read ? "R" : "W") << " va=0x"
                       << std::hex << va << std::dec << ": scheme says "
                       << (allowed ? "allow" : "deny")
                       << ", reference says "
                       << (expected ? "allow" : "deny");
                violate("verdict", lane.name(), detail.str());
            }
        }
    }

    void
    doChurn(const Op &op)
    {
        Addr base;
        std::uint32_t span;
        if (const ReferenceModel::Domain *d = ref_.find(op.domain)) {
            base = d->base;
            span = static_cast<std::uint32_t>(d->size / kPage);
        } else {
            base = domainBase(op.domain);
            span = kSlotPages;
        }
        const std::uint32_t pages =
            std::max<std::uint32_t>(1, std::min(op.pages, kSlotPages));
        for (std::uint32_t p = 0; p < pages; ++p)
            doOneAccess(base + Addr{p % span} * kPage, AccessType::Read);
    }

    /**
     * The KV server's inner loop: for each of `pages` consecutive
     * domains starting at `domain`, grant the current thread RW and
     * touch the domain once. Counts above 16 outrun the MPK key
     * space, so the grant path has to evict and re-key mid-burst.
     */
    void
    doTenantChurn(const Op &op)
    {
        const std::uint32_t count = std::max<std::uint32_t>(1, op.pages);
        for (std::uint32_t i = 0; i < count; ++i) {
            const auto d = static_cast<DomainId>(op.domain + i);
            doSetPerm(currentTid_, d, Perm::ReadWrite);
            doAccess(d, 0, AccessType::Read);
        }
    }

    void
    checkEffectivePerm(ThreadId t, DomainId domain)
    {
        const ReferenceModel::Domain *d = ref_.find(domain);
        if (!d)
            return; // Schemes report ReadWrite for non-domains.
        const Perm want = ref_.effectivePerm(t, domain);
        for (const Lane &lane : lanes_) {
            if (!isProtected(lane.kind()))
                continue;
            if (lane.kind() == arch::SchemeKind::Mpk && !d->mpkKeyed)
                continue; // Exhausted: stock MPK can't track perms.
            const Perm got = lane.sys->scheme().effectivePerm(t, domain);
            if (got != want) {
                std::ostringstream detail;
                detail << "t" << t << " d" << domain
                       << ": effectivePerm=" << permToString(got)
                       << ", reference=" << permToString(want);
                violate("effective-perm", lane.name(), detail.str());
            }
        }
    }

    void
    drainEvents()
    {
        for (Lane &lane : lanes_) {
            for (const trace::Event &ev : lane.sys->drainEvents()) {
                lane.events.push_back(ev);
                auto kind = static_cast<std::size_t>(ev.kind);
                if (kind < lane.eventCounts.size())
                    ++lane.eventCounts[kind];
                if (!eventAllowed(lane.kind(), ev.kind)) {
                    violate("events", lane.name(),
                            std::string("posted forbidden event ") +
                                trace::eventKindName(ev.kind));
                }
                // Forensics ring contract: ids are assigned 1, 2, 3,
                // ... in post order (the ring never drops here — see
                // checkEvents), and every event posted while an op is
                // in flight carries that op's request tag. This is
                // the oracle blame chains rest on: a blamed id must
                // name the one real ring event posted in the window.
                if (ev.id != lane.lastEventId + 1) {
                    std::ostringstream detail;
                    detail << "event id " << ev.id
                           << " breaks the monotone sequence (expected "
                           << lane.lastEventId + 1 << ")";
                    violate("forensics", lane.name(), detail.str());
                }
                lane.lastEventId = ev.id;
                if (ev.req != opIndex_ + 1) {
                    std::ostringstream detail;
                    detail << "event id " << ev.id << " tagged req "
                           << ev.req << ", expected " << opIndex_ + 1;
                    violate("forensics", lane.name(), detail.str());
                }
            }
        }
    }

    void
    checkCycleOrder()
    {
        // Lanes follow kAllSchemes: none, then lowerbound.
        const Cycles floor_none = schemeCycles(*lanes_[0].sys);
        const Cycles floor_lower = schemeCycles(*lanes_[1].sys);
        if (floor_none > floor_lower) {
            std::ostringstream detail;
            detail << "none=" << floor_none << " > lowerbound="
                   << floor_lower << " scheme cycles";
            violate("cycle-order", "", detail.str());
        }
        for (const Lane &lane : lanes_) {
            if (!isProtected(lane.kind()))
                continue;
            const Cycles cycles = schemeCycles(*lane.sys);
            if (cycles < floor_lower) {
                std::ostringstream detail;
                detail << "scheme cycles " << cycles
                       << " below lowerbound " << floor_lower;
                violate("cycle-order", lane.name(), detail.str());
            }
        }
    }

    void
    checkBucketSums()
    {
        for (const Lane &lane : lanes_) {
            const arch::ProtectionScheme &s = lane.sys->scheme();
            const std::uint64_t sum = s.cycPermissionChange.value() +
                                      s.cycEntryChange.value() +
                                      s.cycTableMiss.value() +
                                      s.cycTlbInvalidation.value() +
                                      s.cycAccessLatency.value() +
                                      s.cycSoftware.value();
            const Cycles total = schemeCycles(*lane.sys);
            if (sum != total) {
                std::ostringstream detail;
                detail << "buckets sum to " << sum
                       << " but scheme cycles are " << total;
                violate("bucket-sum", lane.name(), detail.str());
            }
        }
    }

    void
    checkEvents()
    {
        for (const Lane &lane : lanes_) {
            const arch::ProtectionScheme &s = lane.sys->scheme();
            const auto &counts = lane.eventCounts;
            const auto evictions = counts[static_cast<std::size_t>(
                trace::EventKind::KeyEviction)];
            const auto shots = counts[static_cast<std::size_t>(
                trace::EventKind::Shootdown)];
            if (evictions != s.keyEvictions.value()) {
                std::ostringstream detail;
                detail << evictions << " KeyEviction events vs "
                       << s.keyEvictions.value() << " key_evictions";
                violate("events", lane.name(), detail.str());
            }
            if (shots != s.shootdowns.value()) {
                std::ostringstream detail;
                detail << shots << " Shootdown events vs "
                       << s.shootdowns.value() << " shootdowns";
                violate("events", lane.name(), detail.str());
            }
            const auto ipis = counts[static_cast<std::size_t>(
                trace::EventKind::Ipi)];
            const arch::ShootdownBus *bus = lane.sys->shootdownBus();
            const std::uint64_t responded =
                bus ? bus->ipisResponded.value() : 0;
            if (ipis != responded) {
                std::ostringstream detail;
                detail << ipis << " Ipi events vs " << responded
                       << " bus ipis_responded";
                violate("events", lane.name(), detail.str());
            }
            if (lane.sys->events().dropped.value() != 0)
                violate("events", lane.name(),
                        "event ring dropped events mid-run");
        }
    }

    /**
     * Per-request latency rests on the cycle accounting coming out the
     * same however a trace is split into replayBatch calls: a fresh
     * System per scheme replays the records its lane was fed in
     * batches cut at seeded random record indices, inside ops as well
     * as between them, and must match the one-record path's total
     * after every batch, its stats tree and its event ring. An attach
     * always ends a batch, so the harness's attach flush lands where
     * it did on the one-record path.
     */
    void
    checkTailLatency()
    {
        Rng rng(kSplitSeed);
        for (const Lane &lane : lanes_) {
            core::System probe(sim_, lane.kind());
            std::vector<trace::Event> events;
            const std::vector<trace::TraceRecord> &recs = lane.records;
            for (std::size_t begin = 0; begin < recs.size();) {
                std::size_t end =
                    std::min(recs.size(), begin + 1 + rng.next(kMaxSpan));
                for (std::size_t i = begin; i < end; ++i) {
                    if (recs[i].type == trace::RecordType::Attach)
                        end = i + 1;
                }
                replay(probe, {recs.data() + begin, end - begin});
                if (recs[end - 1].type == trace::RecordType::Attach)
                    flushAttached(probe, recs[end - 1]);
                for (const trace::Event &ev : probe.drainEvents())
                    events.push_back(ev);
                if (probe.totalCycles() != lane.totalAfter[end - 1]) {
                    std::ostringstream detail;
                    detail << "batch [" << begin << ", " << end
                           << ") of " << recs.size() << " records ends at "
                           << probe.totalCycles()
                           << " cycles, the one-record path at "
                           << lane.totalAfter[end - 1];
                    violate("tail-latency", lane.name(), detail.str());
                    break;
                }
                begin = end;
            }
            if (stats::toJsonString(probe) != stats::toJsonString(*lane.sys))
                violate("tail-latency", lane.name(),
                        "batch-split replay's stats tree differs from the "
                        "one-record path's");
            if (events != lane.events)
                violate("tail-latency", lane.name(),
                        "batch-split replay's event ring differs from the "
                        "one-record path's");
        }
    }

    const std::vector<Op> &ops_;
    const DiffConfig &cfg_;
    core::SimConfig sim_;
    std::vector<Lane> lanes_;
    ReferenceModel ref_;
    ThreadId currentTid_ = 0;
    std::size_t opIndex_ = 0;
    DiffResult result_;
};

} // namespace

DiffResult
runDifferential(const std::vector<Op> &ops, const DiffConfig &cfg)
{
    return Runner(ops, cfg).run();
}

} // namespace pmodv::testing
