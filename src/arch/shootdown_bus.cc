#include "arch/shootdown_bus.hh"

#include "common/logging.hh"
#include "tlb/hierarchy.hh"

namespace pmodv::arch
{

void
CoreTopology::validate() const
{
    fatal_if(numCores == 0,
             "topology.numCores must be at least 1 (got 0); a machine "
             "needs a core to replay on");
    fatal_if(numCores > kMaxCores,
             "topology.numCores %u exceeds the supported maximum of "
             "%u cores",
             numCores, kMaxCores);
}

ShootdownBus::ShootdownBus(stats::Group *parent,
                           const CoreTopology &topo)
    : stats::Group(parent, "shootdown_bus"),
      broadcasts(this, "broadcasts"),
      ipisSent(this, "ipis_sent"),
      ipisResponded(this, "ipis_responded"),
      ipisFiltered(this, "ipis_filtered"),
      pagesInvalidated(this, "pages_invalidated"),
      topo_(topo), cores_(topo.numCores)
{
    topo.validate();
}

void
ShootdownBus::attachCore(CoreId core, tlb::TlbHierarchy *tlb,
                         stats::Scalar *responded,
                         stats::Scalar *filtered)
{
    fatal_if(core >= cores_.size(),
             "attachCore: core %u out of range (topology has %zu)",
             core, cores_.size());
    fatal_if(cores_[core].tlb != nullptr,
             "attachCore: core %u attached twice", core);
    cores_[core] = CorePort{tlb, responded, filtered};
}

ShootdownResult
ShootdownBus::broadcast(CoreId initiator, ThreadId tid,
                        std::span<const ShootdownRange> ranges)
{
    fatal_if(initiator >= cores_.size() || !cores_[initiator].tlb,
             "broadcast from unattached core %u", initiator);
    ++broadcasts;

    ShootdownResult result;
    // The initiator's own ranged INVLPG: always paid, whether or not
    // its TLB held anything — this is exactly the single-core cost,
    // so a one-core bus degenerates to the legacy charge.
    result.cycles = topo_.tlbInvalidationCycles;
    for (const ShootdownRange &r : ranges) {
        result.pages +=
            cores_[initiator].tlb->flushRange(r.base, r.size);
    }

    for (CoreId core = 0; core < cores_.size(); ++core) {
        if (core == initiator || !cores_[core].tlb)
            continue;
        ++ipisSent;
        std::uint64_t flushed = 0;
        for (const ShootdownRange &r : ranges)
            flushed += cores_[core].tlb->flushRange(r.base, r.size);
        result.pages += flushed;
        if (flushed > 0) {
            ++ipisResponded;
            ++result.responders;
            result.cycles += topo_.tlbInvalidationCycles;
            if (cores_[core].responded)
                ++*cores_[core].responded;
            if (events_)
                events_->post(trace::EventKind::Ipi, tid, core,
                              flushed);
        } else {
            ++ipisFiltered;
            if (cores_[core].filtered)
                ++*cores_[core].filtered;
        }
    }
    pagesInvalidated += result.pages;
    return result;
}

} // namespace pmodv::arch
