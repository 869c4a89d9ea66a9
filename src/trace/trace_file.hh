/**
 * @file
 * Binary trace file I/O. Traces are captured once (expensive
 * workload execution) and replayed many times (one per scheme sweep
 * point), mirroring the paper's Pin-capture/Sniper-replay split.
 *
 * v2 format (current): a 128-byte section header {magic, version,
 * record count, FNV-1a checksum of the body, full TraceSummary:
 * per-type counts + instruction and PMO-access totals} followed by
 * 24-byte records {type, flags, tid, aux, addr, value} starting at a
 * 64-byte-aligned offset. The checksum guards the file only;
 * in-memory buffers carry none.
 *
 * v1 format (legacy, still readable): a 16-byte header {magic,
 * version, record count} followed by the same 24-byte records.
 *
 * In memory a TraceRecord is 16 bytes (see record.hh); the writer
 * widens each record and the reader narrows it, so this file is the
 * only place that knows the on-disk layout. A record the narrow form
 * cannot hold is rejected on load with its index.
 */

#ifndef PMODV_TRACE_TRACE_FILE_HH
#define PMODV_TRACE_TRACE_FILE_HH

#include <cstdio>
#include <string>
#include <vector>

#include "trace/buffer.hh"
#include "trace/sinks.hh"

namespace pmodv::trace
{

/** Magic number identifying a pmodv trace file. */
inline constexpr std::uint32_t kTraceMagic = 0x564f4d50; // "PMOV"

/** Current trace format version. */
inline constexpr std::uint32_t kTraceVersion = 2;

/** The legacy format version (pre-TraceBuffer, no checksum). */
inline constexpr std::uint32_t kTraceVersionLegacy = 1;

/** Byte size of the v2 section header (64-byte-aligned body). */
inline constexpr std::size_t kTraceHeaderBytesV2 = 128;

/** Byte size of the legacy v1 header. */
inline constexpr std::size_t kTraceHeaderBytesV1 = 16;

/** Byte size of one record on disk, in both formats. */
inline constexpr std::size_t kTraceFileRecordBytes = 24;

/** FNV-1a 64-bit offset basis: the checksum of an empty v2 body. */
inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
/** FNV-1a 64-bit prime. */
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/**
 * A TraceSink that streams records to a binary v2 trace file. Every
 * file operation is checked: short writes, flush and close failures
 * are fatal instead of silently truncating the trace, and put()
 * after finish() is a hard error.
 */
class TraceFileWriter : public TraceSink
{
  public:
    /** Open @p path for writing; fatal() on failure. */
    explicit TraceFileWriter(const std::string &path);
    ~TraceFileWriter() override;

    TraceFileWriter(const TraceFileWriter &) = delete;
    TraceFileWriter &operator=(const TraceFileWriter &) = delete;

    void put(const TraceRecord &rec) override;

    /** Write the final section header and close the file. */
    void finish() override;

    std::uint64_t recordsWritten() const
    {
        return summary_.totalRecords();
    }

    /** The summary that finish() writes into the header. */
    const TraceSummary &summary() const { return summary_; }

  private:
    std::FILE *file_ = nullptr;
    std::string path_;
    TraceSummary summary_;
    std::uint64_t checksum_ = kFnvOffsetBasis; ///< FNV-1a of the body.
    bool finished_ = false;
};

/**
 * Reads a binary trace file (v1 or v2). view() is the intended entry
 * point: it decodes the whole trace into an immutable TraceBuffer,
 * verified against the header's checksum and counts. next() remains
 * for streaming consumers (dump, convert) and verifies the same at the
 * end of the trace.
 */
class TraceFileReader
{
  public:
    /** Open @p path; fatal() on failure or bad/truncated header. */
    explicit TraceFileReader(const std::string &path);
    ~TraceFileReader();

    TraceFileReader(const TraceFileReader &) = delete;
    TraceFileReader &operator=(const TraceFileReader &) = delete;

    /** Number of records the header claims. */
    std::uint64_t recordCount() const { return count_; }

    /** The file's format version (1 or 2). */
    std::uint32_t version() const { return version_; }

    /**
     * The header's TraceSummary (v2 only; nullptr for v1 files,
     * whose header carries no statistics).
     */
    const TraceSummary *headerSummary() const
    {
        return version_ == kTraceVersion ? &headerSummary_ : nullptr;
    }

    /**
     * Load the whole trace as an immutable shared TraceBuffer,
     * independent of the next() cursor, decoding the body into a
     * RecordStore. fatal() on a record of unknown type, naming a
     * domain at or above kMaxDomains or not fitting a 16-byte
     * TraceRecord, on an Attach of a domain still attached, and on a
     * checksum or a count mismatch.
     */
    std::shared_ptr<const TraceBuffer> view();

    /**
     * Read the next record into @p rec; false at end of trace. fatal()
     * on a record view() would reject, and, when it reaches the end of
     * a v2 trace, on a checksum or a count mismatch: a consumer that
     * reads to the end never sees a corrupt trace end cleanly.
     */
    bool next(TraceRecord &rec);

  private:
    /** fatal() unless a v2 body folding to @p checksum and @p summary
     *  matches the header; v1 headers hold nothing to check. */
    void verifyBody(std::uint64_t checksum,
                    const TraceSummary &summary) const;

    std::FILE *file_ = nullptr;
    std::string path_;
    std::uint32_t version_ = 0;
    std::uint64_t count_ = 0;
    std::uint64_t readSoFar_ = 0;
    std::size_t headerBytes_ = 0;
    TraceSummary headerSummary_; ///< Valid for v2 files only.
    std::uint64_t headerChecksum_ = 0; ///< Valid for v2 files only.
    /** FNV-1a, summary and attached domains (see decode) of the
     *  records next() has read so far. */
    std::uint64_t streamChecksum_ = kFnvOffsetBasis;
    TraceSummary streamSummary_;
    std::vector<bool> streamAttached_;
};

} // namespace pmodv::trace

#endif // PMODV_TRACE_TRACE_FILE_HH
