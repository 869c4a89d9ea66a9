/**
 * @file
 * Binary trace file I/O. Traces are captured once (expensive
 * workload execution) and replayed many times (one per scheme sweep
 * point), mirroring the paper's Pin-capture/Sniper-replay split.
 *
 * v2 format (current): a 128-byte section header {magic, version,
 * record count, FNV-1a checksum of the body, full TraceSummary:
 * per-type counts + instruction and PMO-access totals} followed by
 * packed TraceRecords starting at a 64-byte-aligned offset. The body
 * is mmap-able: TraceFileReader::view() maps it read-only and wraps
 * it in a zero-copy TraceBuffer after verifying the checksum. The
 * checksum guards the file only; in-memory buffers carry none.
 *
 * v1 format (legacy, still readable): a 16-byte header {magic,
 * version, record count} followed by packed records. view() falls
 * back to decode-on-load, reading the body into a RecordStore.
 */

#ifndef PMODV_TRACE_TRACE_FILE_HH
#define PMODV_TRACE_TRACE_FILE_HH

#include <cstdio>
#include <string>

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
 * point: it loads the whole trace as an immutable TraceBuffer —
 * zero-copy via mmap for v2 files, decode-on-load for v1 — verified
 * against the header's checksum and counts. next() remains for
 * streaming consumers (dump).
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
     * independent of the next() cursor. v2 bodies are mmap'ed
     * zero-copy (read into a RecordStore when mmap is unavailable);
     * v1 bodies are read into a RecordStore. fatal() on a record of
     * unknown type or naming a domain at or above kMaxDomains, and on
     * a checksum or a count mismatch. May be called once per reader.
     */
    std::shared_ptr<const TraceBuffer> view();

    /** Read the next record into @p rec; false at end of trace. */
    bool next(TraceRecord &rec);

  private:
    std::shared_ptr<const TraceBuffer> loadIntoStore();

    /** fatal(): record @p index of this file has @p type. */
    [[noreturn]] void unknownType(std::size_t index,
                                  RecordType type) const;

    std::FILE *file_ = nullptr;
    std::string path_;
    std::uint32_t version_ = 0;
    std::uint64_t count_ = 0;
    std::uint64_t readSoFar_ = 0;
    std::size_t headerBytes_ = 0;
    TraceSummary headerSummary_; ///< Valid for v2 files only.
    std::uint64_t headerChecksum_ = 0; ///< Valid for v2 files only.
};

} // namespace pmodv::trace

#endif // PMODV_TRACE_TRACE_FILE_HH
