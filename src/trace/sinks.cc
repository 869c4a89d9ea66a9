#include "trace/sinks.hh"

#include "common/logging.hh"

namespace pmodv::trace
{

void
CountingSink::put(const TraceRecord &rec)
{
    panic_if(!summary_.add(rec), "counted record has unknown type %u",
             static_cast<unsigned>(rec.type));
}

void
CountingSink::addBatch(std::span<const TraceRecord> records)
{
    for (const TraceRecord &rec : records)
        put(rec);
}

void
CountingSink::addSummary(const TraceSummary &summary)
{
    for (std::size_t i = 0; i < kNumRecordTypes; ++i)
        summary_.counts[i] += summary.counts[i];
    summary_.instBlockInsts += summary.instBlockInsts;
    summary_.pmoAccesses += summary.pmoAccesses;
}

std::uint64_t
CountingSink::totalInstructions() const
{
    return summary_.instBlockInsts + memAccesses() + permissionSwitches();
}

} // namespace pmodv::trace
