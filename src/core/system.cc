#include "core/system.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace pmodv::core
{

namespace
{

/**
 * Visible-latency lookup-table reach. Translate+memory latency sums
 * beyond this (never seen with the shipped configs) fall back to the
 * identical formula.
 */
constexpr std::size_t kVisTableSize = 1024;

/**
 * Per-entry cap on denormalized blamed events in the slow-request
 * digest; in-window events beyond it are counted in eventsDropped.
 * The chains of interest (a handful of evictions/IPIs per request)
 * fit comfortably.
 */
constexpr std::size_t kMaxBlamedEvents = 16;

} // namespace

CoreContext::CoreContext(stats::Group *system, unsigned idx,
                         bool own_group, const SimConfig &config,
                         tlb::AddressSpace &space)
    : stats::Group(own_group ? system : nullptr,
                   "core" + std::to_string(idx)),
      cycles(this, "cycles"),
      instructions(this, "instructions"),
      memAccesses(this, "mem_accesses"),
      ctxSwitches(this, "ctx_switches"),
      ipisResponded(this, "ipis_responded"),
      ipisFiltered(this, "ipis_filtered"),
      tlb(own_group ? this : system, config.tlb, space),
      caches(own_group ? this : system, config.memory), index(idx)
{
}

System::System(const SimConfig &config, arch::SchemeKind scheme,
               std::string name)
    : stats::Group(nullptr,
                   name.empty() ? std::string(arch::schemeName(scheme))
                                : std::move(name)),
      cycles(this, "cycles"),
      instructions(this, "instructions"),
      memAccesses(this, "mem_accesses"),
      pmoAccesses(this, "pmo_accesses"),
      operations(this, "operations"),
      deniedAccesses(this, "denied_accesses"),
      cycIssue(this, "cyc_issue"),
      cycMem(this, "cyc_mem"),
      cycProtFill(this, "cyc_prot_fill"),
      cycProtCheck(this, "cyc_prot_check"),
      cycPermInstr(this, "cyc_perm_instr"),
      cycSyscall(this, "cyc_syscall"),
      cycCtxSwitch(this, "cyc_ctx_switch"),
      ipc(this, "ipc",
          [this]() {
              return cycles.value() == 0
                         ? 0.0
                         : static_cast<double>(instructions.value()) /
                               static_cast<double>(cycles.value());
          }),
      opCycles(this, "op_cycles"),
      timeline(this, "timeline"),
      config_(config), schemeKind_(scheme),
      events_(this, "events", config.eventRingCapacity)
{
    config_.topology.validate();
    events_.bindClock(&cycleCount_);
    const unsigned num_cores = config_.topology.numCores;
    // A one-core machine has no per-core stats groups and no bus: its
    // TLB and caches sit directly under the System and shootdowns
    // stay local (tests/test_golden_k1.cc pins both layouts).
    const bool multi_core = num_cores > 1;
    for (unsigned k = 0; k < num_cores; ++k)
        cores_.push_back(std::make_unique<CoreContext>(
            this, k, multi_core, config_, space_));
    scheme_ = arch::makeScheme(scheme, this, config_.prot,
                               config_.topology);
    for (unsigned k = 0; k < num_cores; ++k)
        scheme_->attachCore(k, &cores_[k]->tlb);
    if (multi_core) {
        bus_ = std::make_unique<arch::ShootdownBus>(this,
                                                    config_.topology);
        for (unsigned k = 0; k < num_cores; ++k)
            bus_->attachCore(k, &cores_[k]->tlb,
                             &cores_[k]->ipisResponded,
                             &cores_[k]->ipisFiltered);
        bus_->setEventRing(&events_);
        scheme_->setShootdownBus(bus_.get());
    }
    scheme_->setEventRing(&events_);

    // The visible-latency formula depends only on the (integer)
    // translate+memory latency sum; precompute it so the hot loop
    // replaces an fp multiply + llround with a table load. Index 0 is
    // unreachable (L1 hit latency is at least one cycle).
    visTable_.resize(kVisTableSize);
    for (std::size_t lat = 1; lat < kVisTableSize; ++lat)
        visTable_[lat] = visibleCycles(static_cast<Cycles>(lat));

    if (config_.opClasses > 0) {
        // Request-latency tracking for open-loop server replays.
        // Queueing can push tail latencies far beyond the default
        // 24-bucket reach (2^22 cycles), so these histograms get 40
        // buckets (reach 2^38). They are created only on demand, so
        // legacy configs keep their pinned golden stats trees.
        opTrack_ = true;
        constexpr unsigned kLatBuckets = 40;
        opLat_ =
            std::make_unique<stats::Histogram>(this, "op_lat", kLatBuckets);
        opQueue_ = std::make_unique<stats::Histogram>(this, "op_queue",
                                                      kLatBuckets);
        opLatClass_.reserve(config_.opClasses);
        opQueueClass_.reserve(config_.opClasses);
        for (unsigned i = 0; i < config_.opClasses; ++i) {
            opLatClass_.push_back(std::make_unique<stats::Histogram>(
                this, "op_lat_class" + std::to_string(i),
                kLatBuckets));
            opQueueClass_.push_back(std::make_unique<stats::Histogram>(
                this, "op_queue_class" + std::to_string(i),
                kLatBuckets));
        }
    }

    if (config_.slowRequestK > 0 && opTrack_) {
        // The tail-forensics layer rides on the tracked-op machinery,
        // so it exists only when both knobs are on. Like the latency
        // histograms, the digests are created on demand so legacy
        // configs keep their pinned golden stats trees.
        opForensics_ = true;
        slowDigest_ = std::make_unique<stats::SlowRequestDigest>(
            this, "slow_requests", config_.slowRequestK);
        slowDigestClass_.reserve(config_.opClasses);
        for (unsigned i = 0; i < config_.opClasses; ++i)
            slowDigestClass_.push_back(
                std::make_unique<stats::SlowRequestDigest>(
                    this, "slow_requests_class" + std::to_string(i),
                    config_.slowRequestK));
    }

    if (config_.samplingEpochCycles != 0) {
        timeline.configure(config_.samplingEpochCycles,
                           config_.samplingMaxEpochs);
        timeline.track(cycles, "cycles");
        timeline.track(instructions, "instructions");
        timeline.track(memAccesses, "mem_accesses");
        timeline.track(operations, "operations");
        timeline.track(cycMem, "cyc_mem");
        timeline.track(cycProtFill, "cyc_prot_fill");
        timeline.track(cycProtCheck, "cyc_prot_check");
        timeline.track(cycPermInstr, "cyc_perm_instr");
        timeline.track(tlbs().l1().misses, "dtlb_l1_misses");
        scheme_->registerTimelineTracks(timeline);
    }
}

System::~System() = default;

void
System::finish()
{
    timeline.finalize(cycleCount_);
}

Cycles
System::makespanCycles() const
{
    Cycles makespan = 0;
    for (const auto &core : cores_)
        makespan = std::max(makespan, core->cycleCount);
    return makespan;
}

void
System::beginTrackedOp(const trace::TraceRecord &rec, Cycles cycle_now,
                       Cycles &idle_skew)
{
    Cycles virt = cycle_now + idle_skew;
    if (!opBaseSet_) {
        opBaseSet_ = true;
        opArrivalBase_ = virt;
    }
    const Cycles arrival = opArrivalBase_ + rec.arrival();
    if (virt < arrival) {
        // The server caught up with the arrival process: the core
        // idles until the stamped arrival. The jump lives only in the
        // idle offset — cycleCount_ and the attribution buckets are
        // untouched, so cycle sums and bit-identity with untracked
        // replays are preserved.
        idle_skew += arrival - virt;
        virt = arrival;
    }
    opArrival_ = arrival;
    opHasArrival_ = true;
    opClassCur_ = std::min(rec.opClass(), config_.opClasses - 1);
    const Cycles qdelay = virt - arrival;
    opQueueCur_ = qdelay;
    opQueue_->sample(qdelay);
    opQueueClass_[opClassCur_]->sample(qdelay);
}

std::array<std::uint64_t, stats::kSlowDigestBuckets>
System::bucketCycles() const
{
    return {cycIssue.value(),     cycMem.value(),     cycProtFill.value(),
            cycProtCheck.value(), cycPermInstr.value(), cycSyscall.value(),
            cycCtxSwitch.value()};
}

void
System::beginForensics(
    const trace::TraceRecord &rec,
    const std::array<std::uint64_t, stats::kSlowDigestBuckets> &snap)
{
    reqId_ = ++reqNextId_;
    reqBegin_ = cycleCount_;
    reqDomain_ = rec.aux;
    reqRingMark_ = events_.lastId();
    reqSnap_ = snap;
    // Every event posted until endForensics() carries this request's
    // id — the causal tag the blame layer and Perfetto flows use.
    events_.setCurrentRequest(reqId_);
}

void
System::endForensics(
    const trace::TraceRecord &rec, Cycles cycle_now, Cycles idle_skew,
    const std::array<std::uint64_t, stats::kSlowDigestBuckets> &snap)
{
    const std::uint64_t latency = cycle_now + idle_skew - opArrival_;
    stats::SlowRequestDigest &global = *slowDigest_;
    stats::SlowRequestDigest &cls = *slowDigestClass_[opClassCur_];
    if (!global.admits(latency, reqId_) && !cls.admits(latency, reqId_)) {
        // Neither digest would keep it: count the offer and skip the
        // entry and its causal chain (a rejected offer changes nothing
        // else, so the digests end up exactly as if it were built).
        global.countRejected();
        cls.countRejected();
        events_.setCurrentRequest(0);
        reqId_ = 0;
        return;
    }

    stats::SlowRequestEntry e;
    e.id = reqId_;
    e.tid = rec.tid;
    e.domain = reqDomain_;
    e.cls = opClassCur_;
    e.arrival = opArrival_;
    e.latency = latency;
    e.queue = opQueueCur_;
    e.begin = reqBegin_;
    e.commit = cycleCount_;
    std::uint64_t service = 0;
    for (unsigned b = 0; b < stats::kSlowDigestBuckets; ++b) {
        e.buckets[b] = snap[b] - reqSnap_[b];
        service += e.buckets[b];
    }
    // latency = queue + service exactly (the idle skew is constant
    // while an op is in flight, so the virtual-clock delta equals the
    // attribution-bucket delta); residue stays 0 unless that
    // partition invariant is ever violated — then it shows up here
    // instead of being silently absorbed.
    e.residue = e.latency - e.queue - service;

    // Collect the causal chain: ring events posted inside the window
    // have ids above the OpBegin mark. Scan newest-first so the cost
    // is O(window), not O(ring capacity), then restore chronological
    // order. The request's own commit marker is not blame.
    std::vector<stats::SlowBlamedEvent> chain;
    for (std::size_t i = events_.size(); i-- > 0;) {
        const trace::Event &ev = events_.at(i);
        if (ev.id <= reqRingMark_)
            break;
        if (ev.kind == trace::EventKind::TxnCommit)
            continue;
        stats::SlowBlamedEvent b;
        b.id = ev.id;
        b.kind = trace::eventKindName(ev.kind);
        b.cycle = ev.cycle;
        b.tid = ev.tid;
        b.arg = ev.arg;
        b.value = ev.value;
        chain.push_back(std::move(b));
    }
    std::reverse(chain.begin(), chain.end());
    if (chain.size() > kMaxBlamedEvents) {
        e.eventsDropped = chain.size() - kMaxBlamedEvents;
        chain.resize(kMaxBlamedEvents);
    }
    e.events = std::move(chain);

    global.offer(e);
    cls.offer(e);
    events_.setCurrentRequest(0);
    reqId_ = 0;
}

void
System::endTrackedOp(Cycles cycle_now, Cycles idle_skew)
{
    const Cycles lat = cycle_now + idle_skew - opArrival_;
    opLat_->sample(lat);
    opLatClass_[opClassCur_]->sample(lat);
    opHasArrival_ = false;
}

Cycles
System::visibleCycles(Cycles lat) const
{
    // The visible share of translate+memory latency @p lat: the OoO
    // core hides part of the above-L1 latency (tests/test_system.cc
    // mirrors this formula).
    const double visible =
        1.0 + (1.0 - config_.memOverlap) * static_cast<double>(lat - 1);
    return static_cast<Cycles>(std::llround(visible));
}

void
System::replayBatch(std::span<const trace::TraceRecord> records)
{
    using trace::RecordType;

    // Invariants hoisted out of the record loop.
    const std::unique_ptr<CoreContext> *const cores = cores_.data();
    const unsigned num_cores = numCores();
    // Threads are pinned: thread t runs on core t % K and never
    // migrates, so every record is core-affine by its tid. A
    // power-of-two K (K=1 included) masks instead of dividing.
    const bool pow2_cores = (num_cores & (num_cores - 1)) == 0;
    const auto core_of = [&](std::uint64_t tid) -> CoreContext & {
        return *cores[pow2_cores ? tid & (num_cores - 1)
                                 : tid % num_cores];
    };
    // A one-core machine replays every ThreadSwitch record as a
    // context switch, even one naming the running thread: the PMO
    // runtime emits those, and the one-core model charges each.
    const bool switch_always = num_cores == 1;
    arch::ProtectionScheme *const scheme = scheme_.get();
    const Cycles l1_hit = config_.memory.l1.hitLatency;
    const std::uint32_t issue_width = config_.issueWidth;
    const bool trivial_check = scheme->alwaysAllows();

    // Advance @p core's clock (and the machine's) by @p c cycles.
    const auto advance = [&](CoreContext &core, Cycles c) {
        cycleCount_ += c;
        core.cycleCount += c;
        cycles += c;
        core.cycles += c;
    };
    // As advance(), charging the cycles to attribution bucket @p bucket.
    const auto charge = [&](CoreContext &core, Cycles c,
                            stats::Scalar &bucket) {
        advance(core, c);
        bucket += c;
    };
    std::uint64_t boundary = timeline.nextBoundary();

    for (const trace::TraceRecord &rec : records) {
        switch (rec.type) {
          case RecordType::Load:
          case RecordType::Store: {
            CoreContext &core = core_of(rec.tid);
            const auto type = rec.type == RecordType::Load
                                  ? AccessType::Read
                                  : AccessType::Write;
            const bool pmo = rec.flags & trace::kFlagPmo;
            ++memAccesses;
            ++instructions;
            pmoAccesses += pmo ? 1 : 0;
            ++core.memAccesses;
            ++core.instructions;

            scheme->setActiveCore(core.index);
            const auto xlate = core.tlb.translate(rec.tid, rec.addr);

            bool allowed = true;
            Cycles check_extra = 0;
            if (!trivial_check) {
                arch::AccessContext ctx;
                ctx.tid = rec.tid;
                ctx.va = rec.addr;
                ctx.type = type;
                ctx.entry = xlate.entry;
                const auto check = scheme->checkAccess(ctx);
                allowed = check.allowed;
                check_extra = check.extraCycles;
                if (!allowed)
                    ++deniedAccesses;
            }

            // Denied accesses raise an exception instead of touching
            // the cache; workloads are well behaved, so the fault is
            // modelled as a fixed pipeline-flush cost.
            Cycles mem_latency = l1_hit;
            if (allowed) {
                const MemClass cls =
                    pmo ? MemClass::Nvm : xlate.entry->memClass;
                mem_latency =
                    core.caches.access(rec.addr, type, cls).latency;
            }

            // The OoO core hides part of the above-L1 latency;
            // protection extras (walks, remaps, shootdowns, PTLB
            // lookups) serialize.
            const Cycles lat = xlate.latency + mem_latency;
            const Cycles vis = lat < kVisTableSize ? visTable_[lat]
                                                   : visibleCycles(lat);
            advance(core, vis + xlate.fillExtra + check_extra);
            cycMem += vis;
            cycProtFill += xlate.fillExtra;
            cycProtCheck += check_extra;
            break;
          }
          case RecordType::InstBlock: {
            CoreContext &core = core_of(rec.tid);
            instructions += rec.aux;
            core.instructions += rec.aux;
            charge(core, (rec.aux + issue_width - 1) / issue_width,
                   cycIssue);
            break;
          }
          case RecordType::SetPerm: {
            CoreContext &core = core_of(rec.tid);
            ++instructions;
            ++core.instructions;
            scheme->setActiveCore(core.index);
            charge(core, scheme->setPerm(rec.tid, rec.aux, rec.perm()),
                   cycPermInstr);
            break;
          }
          case RecordType::Wrpkru: {
            CoreContext &core = core_of(rec.tid);
            ++instructions;
            ++core.instructions;
            scheme->setActiveCore(core.index);
            charge(core,
                   scheme->wrpkruRaw(rec.tid,
                                     static_cast<ProtKey>(rec.aux),
                                     rec.perm()),
                   cycPermInstr);
            break;
          }
          case RecordType::Attach: {
            CoreContext &core = core_of(rec.tid);
            scheme->setActiveCore(core.index);
            tlb::Region region;
            region.base = rec.attachBase();
            region.size = rec.attachSize();
            region.domain = rec.aux;
            region.pagePerm = rec.perm();
            region.memClass = MemClass::Nvm;
            region.pageSize = rec.pageSize();
            space_.map(region);
            charge(core,
                   scheme->attach(rec.tid, rec.aux, region.base,
                                  region.size, rec.perm()),
                   cycSyscall);
            break;
          }
          case RecordType::Detach: {
            CoreContext &core = core_of(rec.tid);
            scheme->setActiveCore(core.index);
            charge(core, scheme->detach(rec.tid, rec.aux), cycSyscall);
            space_.unmapDomain(rec.aux);
            break;
          }
          case RecordType::ThreadSwitch: {
            // The named thread is (re)scheduled on its home core. On a
            // multi-core machine a switch to the thread already
            // running there is a no-op: the other cores keep executing
            // undisturbed.
            const ThreadId to = rec.aux;
            CoreContext &core = core_of(to);
            if (switch_always || core.curTid != to) {
                scheme->setActiveCore(core.index);
                ++core.ctxSwitches;
                charge(core, scheme->contextSwitch(core.curTid, to),
                       cycCtxSwitch);
                core.curTid = to;
            }
            break;
          }
          case RecordType::OpBegin:
            opStart_ = cycleCount_;
            opInFlight_ = true;
            if (opTrack_ && rec.hasArrival()) {
                CoreContext &core = core_of(rec.tid);
                beginTrackedOp(rec, core.cycleCount, core.idleSkew);
                if (opForensics_)
                    beginForensics(rec, bucketCycles());
            }
            break;
          case RecordType::OpEnd:
            ++operations;
            if (opInFlight_) {
                opCycles.sample(cycleCount_ - opStart_);
                events_.post(trace::EventKind::TxnCommit, rec.tid,
                             static_cast<std::uint32_t>(rec.aux),
                             cycleCount_ - opStart_);
                opInFlight_ = false;
            }
            if (opHasArrival_) {
                CoreContext &core = core_of(rec.tid);
                if (opForensics_)
                    endForensics(rec, core.cycleCount, core.idleSkew,
                                 bucketCycles());
                endTrackedOp(core.cycleCount, core.idleSkew);
            }
            break;
        }

        // A timeline tick only has an effect once cycleCount_ passes
        // the next epoch boundary, so the loop compares against the
        // boundary instead of ticking per record.
        if (cycleCount_ >= boundary) [[unlikely]] {
            timeline.tick(cycleCount_);
            boundary = timeline.nextBoundary();
        }
    }
}

} // namespace pmodv::core
