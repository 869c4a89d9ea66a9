/**
 * @file
 * Trace sinks: consumers of TraceRecord streams. Workload generators
 * push records into a TraceSink; sinks include in-memory buffers,
 * trace files, replay pipelines and counting sinks for trace
 * statistics (switch rates, access mixes).
 */

#ifndef PMODV_TRACE_SINKS_HH
#define PMODV_TRACE_SINKS_HH

#include <cstdint>
#include <span>
#include <utility>

#include "trace/buffer.hh"
#include "trace/record.hh"

namespace pmodv::trace
{

/** Abstract consumer of a trace stream. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** Consume one record. */
    virtual void put(const TraceRecord &rec) = 0;

    /** Signal end-of-trace. */
    virtual void finish() {}
};

/**
 * Buffers the whole trace in memory for repeated replay, straight
 * into the RecordStore that TraceBuffer::fromRecords() adopts.
 */
class VectorSink : public TraceSink
{
  public:
    void put(const TraceRecord &rec) override { store_.push(rec); }

    std::span<const TraceRecord> records() const
    {
        return {store_.data(), store_.size()};
    }

    /** Hand over the records; the sink is left empty and reusable. */
    RecordStore take() { return std::exchange(store_, {}); }

  private:
    RecordStore store_;
};

/**
 * Accumulates summary statistics of a trace: counts per record type,
 * instruction totals and permission-switch counts. Used to report the
 * "switches/sec" columns of Tables V/VI.
 */
class CountingSink : public TraceSink
{
  public:
    void put(const TraceRecord &rec) override;

    /** Fold a whole batch of records into the counters. */
    void addBatch(std::span<const TraceRecord> records);

    /** Fold a precomputed TraceSummary (e.g. a TraceBuffer's). */
    void addSummary(const TraceSummary &summary);

    std::uint64_t count(RecordType t) const { return summary_.count(t); }

    /** Total dynamic instructions: blocks + mem accesses + switches. */
    std::uint64_t totalInstructions() const;

    /** Total load+store records. */
    std::uint64_t memAccesses() const
    {
        return count(RecordType::Load) + count(RecordType::Store);
    }

    /** Load+store records targeting PMO memory. */
    std::uint64_t pmoAccesses() const { return summary_.pmoAccesses; }

    /** SETPERM + WRPKRU records (the paper's "switches"). */
    std::uint64_t permissionSwitches() const
    {
        return count(RecordType::SetPerm) + count(RecordType::Wrpkru);
    }

    /** Completed workload operations (OpEnd markers). */
    std::uint64_t operations() const { return count(RecordType::OpEnd); }

    void reset() { summary_ = {}; }

  private:
    TraceSummary summary_;
};

} // namespace pmodv::trace

#endif // PMODV_TRACE_SINKS_HH
