/**
 * @file
 * Trace sinks: consumers of TraceRecord streams. Workload generators
 * push records into a TraceSink: an in-memory capture (VectorSink) or
 * a trace file (TraceFileWriter). Every replay then reads the
 * captured records as a span.
 */

#ifndef PMODV_TRACE_SINKS_HH
#define PMODV_TRACE_SINKS_HH

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

} // namespace pmodv::trace

#endif // PMODV_TRACE_SINKS_HH
