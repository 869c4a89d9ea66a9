#include "testing/differ.hh"

#include <array>
#include <sstream>

#include "common/logging.hh"

namespace pmodv::testing
{

namespace
{

constexpr Addr kPage = 4096;
/** Pages per 16 MB domain slot (the attach size ceiling). */
constexpr std::uint32_t kSlotPages = (16u << 20) / kPage;

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

} // namespace

BugInjection
injectionFromName(const std::string &name)
{
    if (name == "none")
        return BugInjection::None;
    if (name == "mpk-drop-revoke")
        return BugInjection::MpkDropRevoke;
    fatal("unknown bug injection '%s'", name.c_str());
}

std::vector<arch::SchemeKind>
allSchemeKinds()
{
    return {arch::SchemeKind::NoProtection, arch::SchemeKind::Lowerbound,
            arch::SchemeKind::Mpk,          arch::SchemeKind::LibMpk,
            arch::SchemeKind::MpkVirt,      arch::SchemeKind::DomainVirt};
}

Machine::Machine(arch::SchemeKind kind, const arch::ProtParams &params,
                 const arch::CoreTopology &topo, BugInjection inject)
    : kind_(kind), topo_(topo), inject_(inject),
      root_(nullptr, std::string("diff_") + arch::schemeName(kind))
{
    topo_.validate();
    ring_ = std::make_unique<trace::EventRing>(&root_, "events",
                                               std::size_t{1} << 16);
    ring_->bindClock(&totalCycles_);
    scheme_ = arch::makeScheme(kind, &root_, params, topo_, space_);
    for (unsigned k = 0; k < topo_.numCores; ++k) {
        stats::Group *parent = &root_;
        if (topo_.numCores > 1) {
            coreGroups_.push_back(std::make_unique<stats::Group>(
                &root_, "core" + std::to_string(k)));
            parent = coreGroups_.back().get();
        }
        tlbs_.push_back(std::make_unique<tlb::TlbHierarchy>(
            parent, tlb::TlbHierarchyParams{}, space_));
        scheme_->attachCore(k, tlbs_.back().get());
        curTid_.push_back(0);
    }
    if (topo_.numCores > 1) {
        bus_ = std::make_unique<arch::ShootdownBus>(&root_, topo_);
        for (unsigned k = 0; k < topo_.numCores; ++k)
            bus_->attachCore(k, tlbs_[k].get(), nullptr, nullptr);
        bus_->setEventRing(ring_.get());
        scheme_->setShootdownBus(bus_.get());
    }
    scheme_->setEventRing(ring_.get());
}

void
Machine::attach(ThreadId tid, DomainId domain, Addr base, Addr size,
                Perm page_perm)
{
    tlb::Region region;
    region.base = base;
    region.size = size;
    region.domain = domain;
    region.pagePerm = page_perm;
    region.memClass = MemClass::Nvm;
    space_.map(region);
    scheme_->setActiveCore(tid % topo_.numCores);
    addSchemeCycles(scheme_->attach(tid, domain, base, size, page_perm));
    // The mmap behind attach invalidates prior translations of the
    // range on every scheme and every core (stale domainless entries
    // would otherwise differ only by access history, not by scheme).
    for (auto &t : tlbs_)
        t->flushRange(base, size);
}

void
Machine::detach(ThreadId tid, DomainId domain)
{
    Addr base = 0, size = 0;
    if (const tlb::Region *region = space_.findDomain(domain)) {
        base = region->base;
        size = region->size;
    }
    scheme_->setActiveCore(tid % topo_.numCores);
    addSchemeCycles(scheme_->detach(tid, domain));
    space_.unmapDomain(domain);
    if (size) { // munmap shootdown, uniform across schemes and cores.
        for (auto &t : tlbs_)
            t->flushRange(base, size);
    }
}

void
Machine::setPerm(ThreadId tid, DomainId domain, Perm perm)
{
    if (inject_ == BugInjection::MpkDropRevoke &&
        kind_ == arch::SchemeKind::Mpk && perm == Perm::None)
        return; // Planted defect: the revoke never reaches the scheme.
    scheme_->setActiveCore(tid % topo_.numCores);
    addSchemeCycles(scheme_->setPerm(tid, domain, perm));
}

arch::CheckResult
Machine::access(ThreadId tid, Addr va, AccessType type)
{
    const arch::CoreId core = tid % topo_.numCores;
    scheme_->setActiveCore(core);
    auto xlate = tlbs_[core]->translate(tid, va);
    totalCycles_ += xlate.latency;
    addSchemeCycles(xlate.fillExtra);
    arch::AccessContext ctx;
    ctx.tid = tid;
    ctx.va = va;
    ctx.type = type;
    ctx.entry = xlate.entry;
    arch::CheckResult res = scheme_->checkAccess(ctx);
    addSchemeCycles(res.extraCycles);
    return res;
}

void
Machine::contextSwitch(ThreadId from, ThreadId to)
{
    if (topo_.numCores == 1) {
        addSchemeCycles(scheme_->contextSwitch(from, to));
        return;
    }
    // Core-affine scheduling: `to` lands on its home core; a switch
    // only happens if that core runs a different thread.
    const arch::CoreId core = to % topo_.numCores;
    if (curTid_[core] == to)
        return;
    scheme_->setActiveCore(core);
    addSchemeCycles(scheme_->contextSwitch(curTid_[core], to));
    curTid_[core] = to;
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
    Runner(const std::vector<Op> &ops, const DiffConfig &cfg,
           bool silent = false)
        : ops_(ops), cfg_(cfg), silent_(silent)
    {
        const auto kinds =
            cfg.schemes.empty() ? allSchemeKinds() : cfg.schemes;
        for (arch::SchemeKind kind : kinds) {
            machines_.push_back(std::make_unique<Machine>(
                kind, cfg.params, cfg.topology, cfg.inject));
            eventCounts_.push_back({});
            opTotals_.push_back({});
            nextEventId_.push_back(0);
        }
    }

    DiffResult
    run()
    {
        std::vector<Cycles> before(machines_.size());
        for (opIndex_ = 0; opIndex_ < ops_.size(); ++opIndex_) {
            for (std::size_t i = 0; i < machines_.size(); ++i)
                before[i] = machines_[i]->totalCycles();
            tagRequest(opIndex_ + 1);
            step(ops_[opIndex_]);
            drainEvents();
            tagRequest(0);
            for (std::size_t i = 0; i < machines_.size(); ++i)
                opTotals_[i].push_back(machines_[i]->totalCycles() -
                                       before[i]);
            if (cfg_.stopAtFirst && !result_.violations.empty())
                return result_;
        }
        opIndex_ = ops_.size();
        checkCycleOrder();
        checkBucketSums();
        checkEvents();
        if (cfg_.checkTailLatency && !silent_)
            checkTailLatency();
        return result_;
    }

    /** Execute ops up to (not including) @p end; report totalCycles. */
    std::vector<Cycles>
    executeThrough(std::size_t end)
    {
        for (; opIndex_ < end; ++opIndex_) {
            tagRequest(opIndex_ + 1);
            step(ops_[opIndex_]);
            drainEvents();
            tagRequest(0);
        }
        std::vector<Cycles> totals;
        for (auto &m : machines_)
            totals.push_back(m->totalCycles());
        return totals;
    }

  private:
    void
    violate(const std::string &oracle, const std::string &scheme,
            const std::string &detail)
    {
        if (silent_)
            return;
        result_.violations.push_back(
            {oracle, scheme, opIndex_, detail});
    }

    Machine *
    findKind(arch::SchemeKind kind)
    {
        for (auto &m : machines_)
            if (m->kind() == kind)
                return m.get();
        return nullptr;
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
            for (auto &m : machines_)
                m->detach(currentTid_, op.domain);
            break;
          case OpKind::SetPerm:
            ref_.setPerm(op.tid, op.domain, op.perm);
            for (auto &m : machines_)
                m->setPerm(op.tid, op.domain, op.perm);
            checkEffectivePerm(op);
            break;
          case OpKind::Access:
            doAccess(op.domain, op.offset, op.type);
            break;
          case OpKind::OutAccess:
            doOneAccess(kOutsideBase + op.offset % kOutsideSize, op.type);
            break;
          case OpKind::ThreadSwitch:
            if (op.tid != currentTid_) {
                for (auto &m : machines_)
                    m->contextSwitch(currentTid_, op.tid);
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
        for (auto &m : machines_)
            m->attach(currentTid_, op.domain, base, size, op.perm);
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
        for (auto &m : machines_) {
            const arch::CheckResult res =
                m->access(currentTid_, va, type);
            if (!isProtected(m->kind()))
                continue; // Baselines allow everything by design.
            const bool expected = m->kind() == arch::SchemeKind::Mpk
                                      ? mpk.allowed
                                      : plain.allowed;
            if (res.allowed != expected) {
                std::ostringstream detail;
                detail << "t" << currentTid_ << " "
                       << (type == AccessType::Read ? "R" : "W") << " va=0x"
                       << std::hex << va << std::dec << ": scheme says "
                       << (res.allowed ? "allow" : "deny")
                       << ", reference says "
                       << (expected ? "allow" : "deny");
                violate("verdict", m->name(), detail.str());
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
            ref_.setPerm(currentTid_, d, Perm::ReadWrite);
            for (auto &m : machines_)
                m->setPerm(currentTid_, d, Perm::ReadWrite);
            Op grant;
            grant.kind = OpKind::SetPerm;
            grant.tid = currentTid_;
            grant.domain = d;
            grant.perm = Perm::ReadWrite;
            checkEffectivePerm(grant);
            doAccess(d, 0, AccessType::Read);
        }
    }

    void
    checkEffectivePerm(const Op &op)
    {
        const ReferenceModel::Domain *d = ref_.find(op.domain);
        if (!d)
            return; // Schemes report ReadWrite for non-domains.
        const Perm want = ref_.effectivePerm(op.tid, op.domain);
        for (auto &m : machines_) {
            if (!isProtected(m->kind()))
                continue;
            if (m->kind() == arch::SchemeKind::Mpk && !d->mpkKeyed)
                continue; // Exhausted: stock MPK can't track perms.
            const Perm got =
                m->scheme().effectivePerm(op.tid, op.domain);
            if (got != want) {
                std::ostringstream detail;
                detail << "t" << op.tid << " d" << op.domain
                       << ": effectivePerm=" << permToString(got)
                       << ", reference=" << permToString(want);
                violate("effective-perm", m->name(), detail.str());
            }
        }
    }

    /** Stamp @p req as every machine's in-flight request id, the same
     *  tagging System::beginForensics applies to tracked ops. */
    void
    tagRequest(std::uint64_t req)
    {
        for (auto &m : machines_)
            m->events().setCurrentRequest(req);
    }

    void
    drainEvents()
    {
        for (std::size_t i = 0; i < machines_.size(); ++i) {
            for (const trace::Event &ev : machines_[i]->events().drain()) {
                auto kind = static_cast<std::size_t>(ev.kind);
                if (kind < eventCounts_[i].size())
                    ++eventCounts_[i][kind];
                if (!eventAllowed(machines_[i]->kind(), ev.kind)) {
                    violate("events", machines_[i]->name(),
                            std::string("posted forbidden event ") +
                                trace::eventKindName(ev.kind));
                }
                // Forensics ring contract: ids are assigned 1, 2, 3,
                // ... in post order (the ring never drops here — see
                // checkEvents), and every event posted while an op is
                // in flight carries that op's request tag. This is
                // the oracle blame chains rest on: a blamed id must
                // name the one real ring event posted in the window.
                if (ev.id != nextEventId_[i] + 1) {
                    std::ostringstream detail;
                    detail << "event id " << ev.id
                           << " breaks the monotone sequence (expected "
                           << nextEventId_[i] + 1 << ")";
                    violate("forensics", machines_[i]->name(),
                            detail.str());
                }
                nextEventId_[i] = ev.id;
                if (ev.req != opIndex_ + 1) {
                    std::ostringstream detail;
                    detail << "event id " << ev.id << " tagged req "
                           << ev.req << ", expected " << opIndex_ + 1;
                    violate("forensics", machines_[i]->name(),
                            detail.str());
                }
            }
        }
    }

    void
    checkCycleOrder()
    {
        const Machine *none = findKind(arch::SchemeKind::NoProtection);
        const Machine *lower = findKind(arch::SchemeKind::Lowerbound);
        const Cycles floor_none = none ? none->schemeCycles() : 0;
        const Cycles floor_lower =
            lower ? lower->schemeCycles() : floor_none;
        if (none && lower && floor_none > floor_lower) {
            std::ostringstream detail;
            detail << "none=" << floor_none << " > lowerbound="
                   << floor_lower << " scheme cycles";
            violate("cycle-order", "", detail.str());
        }
        for (auto &m : machines_) {
            if (!isProtected(m->kind()))
                continue;
            if (m->schemeCycles() < floor_lower) {
                std::ostringstream detail;
                detail << "scheme cycles " << m->schemeCycles()
                       << " below lowerbound " << floor_lower;
                violate("cycle-order", m->name(), detail.str());
            }
        }
    }

    void
    checkBucketSums()
    {
        for (auto &m : machines_) {
            const arch::ProtectionScheme &s = m->scheme();
            const std::uint64_t sum = s.cycPermissionChange.value() +
                                      s.cycEntryChange.value() +
                                      s.cycTableMiss.value() +
                                      s.cycTlbInvalidation.value() +
                                      s.cycAccessLatency.value() +
                                      s.cycSoftware.value();
            const Cycles total = m->schemeCycles();
            if (sum != total) {
                std::ostringstream detail;
                detail << "buckets sum to " << sum
                       << " but scheme cycles are " << total;
                violate("bucket-sum", m->name(), detail.str());
            }
        }
    }

    void
    checkEvents()
    {
        for (std::size_t i = 0; i < machines_.size(); ++i) {
            Machine &m = *machines_[i];
            const arch::ProtectionScheme &s = m.scheme();
            const auto &counts = eventCounts_[i];
            const auto evictions = counts[static_cast<std::size_t>(
                trace::EventKind::KeyEviction)];
            const auto shots = counts[static_cast<std::size_t>(
                trace::EventKind::Shootdown)];
            if (evictions != s.keyEvictions.value()) {
                std::ostringstream detail;
                detail << evictions << " KeyEviction events vs "
                       << s.keyEvictions.value() << " key_evictions";
                violate("events", m.name(), detail.str());
            }
            if (shots != s.shootdowns.value()) {
                std::ostringstream detail;
                detail << shots << " Shootdown events vs "
                       << s.shootdowns.value() << " shootdowns";
                violate("events", m.name(), detail.str());
            }
            const auto ipis = counts[static_cast<std::size_t>(
                trace::EventKind::Ipi)];
            const std::uint64_t responded =
                m.bus() ? m.bus()->ipisResponded.value() : 0;
            if (ipis != responded) {
                std::ostringstream detail;
                detail << ipis << " Ipi events vs " << responded
                       << " bus ipis_responded";
                violate("events", m.name(), detail.str());
            }
            if (m.events().dropped.value() != 0)
                violate("events", m.name(),
                        "event ring dropped events mid-run");
        }
    }

    /**
     * Per-request latency rests on two properties of the cycle
     * accounting: the per-op totals recorded above must partition the
     * machine total exactly (no cycles charged between requests), and
     * a fresh fleet replaying the same episode split into two batches
     * must land on the same totals at the split and at the end. The
     * probe fleet is silent — any divergence is reported here, not
     * double-counted from its own oracles.
     */
    void
    checkTailLatency()
    {
        if (ops_.empty())
            return;
        Runner probe(ops_, cfg_, /*silent=*/true);
        const std::size_t split = ops_.size() / 2;
        const std::vector<Cycles> mid = probe.executeThrough(split);
        const std::vector<Cycles> end =
            probe.executeThrough(ops_.size());
        for (std::size_t i = 0; i < machines_.size(); ++i) {
            Cycles sum_first = 0, sum_all = 0;
            for (std::size_t k = 0; k < opTotals_[i].size(); ++k) {
                sum_all += opTotals_[i][k];
                if (k < split)
                    sum_first += opTotals_[i][k];
            }
            if (sum_all != machines_[i]->totalCycles()) {
                std::ostringstream detail;
                detail << "per-op cycle totals sum to " << sum_all
                       << " but the machine total is "
                       << machines_[i]->totalCycles();
                violate("tail-latency", machines_[i]->name(),
                        detail.str());
            }
            if (sum_first != mid[i] || sum_all != end[i]) {
                std::ostringstream detail;
                detail << "batch-split replay diverged: first batch "
                       << sum_first << " vs " << mid[i] << ", total "
                       << sum_all << " vs " << end[i];
                violate("tail-latency", machines_[i]->name(),
                        detail.str());
            }
        }
    }

    const std::vector<Op> &ops_;
    const DiffConfig &cfg_;
    std::vector<std::unique_ptr<Machine>> machines_;
    /** Per-machine posted-event counts, indexed by EventKind. */
    std::vector<std::array<std::uint64_t, 6>> eventCounts_;
    /** Per-machine, per-op totalCycles deltas (tail-latency oracle). */
    std::vector<std::vector<Cycles>> opTotals_;
    /** Per-machine last drained event id (forensics oracle). */
    std::vector<std::uint64_t> nextEventId_;
    bool silent_ = false;
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
