/**
 * @file
 * Trace record storage: the growable capture store and the immutable
 * replay buffer.
 *
 * A RecordStore is where a captured trace lives from its first record
 * on: one anonymous page-backed mapping that grows by mremap (page
 * table moves, no copies) and folds every record into a TraceSummary
 * as it is appended. A TraceBuffer is the capture-once / replay-many
 * handle shared by reference across every per-scheme replay pipeline.
 * It adopts a store's mapping as is (a capture's, or the one a trace
 * file was decoded into) and unmaps it when it dies. Its TraceSummary (per-type counts and
 * instruction totals) lets consumers (trace info, replay counters)
 * skip a rescan of the body.
 */

#ifndef PMODV_TRACE_BUFFER_HH
#define PMODV_TRACE_BUFFER_HH

#include <cstddef>
#include <memory>
#include <span>

#include "common/logging.hh"
#include "trace/record.hh"

namespace pmodv::trace
{

/** Record-store alignment: one x86 cache line. */
inline constexpr std::size_t kTraceBufferAlign = 64;

/**
 * Per-type record counts and derived totals, accumulated in one pass
 * over a trace. The v2 trace file header embeds one of these
 * verbatim, next to the file's checksum.
 */
struct TraceSummary
{
    std::uint64_t counts[kNumRecordTypes] = {};
    std::uint64_t instBlockInsts = 0; ///< Instructions in InstBlocks.
    std::uint64_t pmoAccesses = 0;    ///< Loads/stores to PMO memory.

    /**
     * Fold one record into the counts. Every counting path goes
     * through here: a record of an unknown type is left out and
     * false returned, for the caller to report.
     */
    [[nodiscard]] bool
    add(const TraceRecord &rec)
    {
        const auto t = static_cast<std::size_t>(rec.type);
        if (t >= kNumRecordTypes) [[unlikely]]
            return false;
        ++counts[t];
        if (rec.type == RecordType::InstBlock)
            instBlockInsts += rec.aux;
        if (rec.isPmoAccess())
            ++pmoAccesses;
        return true;
    }

    std::uint64_t count(RecordType t) const
    {
        return counts[static_cast<std::size_t>(t)];
    }

    /** Total record count across all types. */
    std::uint64_t totalRecords() const;

    /** Total load+store records. */
    std::uint64_t memAccesses() const
    {
        return count(RecordType::Load) + count(RecordType::Store);
    }

    /**
     * SETPERM + WRPKRU records: the paper's permission "switches",
     * reported per second in Tables V/VI.
     */
    std::uint64_t permissionSwitches() const
    {
        return count(RecordType::SetPerm) + count(RecordType::Wrpkru);
    }

    /** Completed workload operations (OpEnd markers). */
    std::uint64_t operations() const { return count(RecordType::OpEnd); }

    /** Total dynamic instructions: blocks + mem accesses + switches. */
    std::uint64_t totalInstructions() const
    {
        return instBlockInsts + memAccesses() + permissionSwitches();
    }

    /** True when every count matches @p other exactly. */
    bool matches(const TraceSummary &other) const;
};

/**
 * A growable, move-only TraceRecord store in one anonymous private
 * mapping. It starts at 2 MB and doubles with mremap(MREMAP_MAYMOVE),
 * which moves page-table entries instead of copying records, so old
 * and new storage are never resident together. The mapping is
 * page-aligned (hence kTraceBufferAlign-aligned). TraceBuffer::
 * fromRecords() adopts it without a copy.
 */
class RecordStore
{
  public:
    RecordStore() = default;
    ~RecordStore();

    RecordStore(RecordStore &&other) noexcept;
    RecordStore &operator=(RecordStore &&other) noexcept;
    RecordStore(const RecordStore &) = delete;
    RecordStore &operator=(const RecordStore &) = delete;

    /** Append @p rec; panics on a record of unknown type. */
    void
    push(const TraceRecord &rec)
    {
        if (count_ == capacity_) [[unlikely]]
            makeRoom(1);
        panic_if(!summary_.add(rec),
                 "captured record %zu has unknown type %u", count_,
                 static_cast<unsigned>(rec.type));
        records_[count_++] = rec;
    }

    /**
     * Append @p n records in place: @p write fills [dst, dst + n) in
     * the store's own memory (one memcpy, one fread), then the new
     * records are counted. Returns how many were kept: all @p n, or
     * those before the first of an unknown type, which then sits at
     * index size().
     */
    template <typename Write>
    std::size_t
    appendInPlace(std::size_t n, Write &&write)
    {
        makeRoom(n);
        TraceRecord *dst = records_ + count_;
        write(dst);
        std::size_t kept = 0;
        while (kept < n && summary_.add(dst[kept]))
            ++kept;
        count_ += kept;
        return kept;
    }

    const TraceRecord *data() const { return records_; }
    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }
    const TraceRecord &operator[](std::size_t i) const
    {
        return records_[i];
    }
    const TraceRecord *begin() const { return records_; }
    const TraceRecord *end() const { return records_ + count_; }

    /** The counts of every record appended so far. */
    const TraceSummary &summary() const { return summary_; }

  private:
    friend class TraceBuffer;

    /** Grow the mapping until @p n more records fit. */
    void makeRoom(std::size_t n);

    TraceRecord *records_ = nullptr; ///< The mapping, or nullptr.
    std::size_t count_ = 0;
    std::size_t capacity_ = 0; ///< Records that fit in the mapping.
    std::size_t mapBytes_ = 0;
    TraceSummary summary_;
};

/**
 * An immutable, 64-byte-aligned TraceRecord array in one owned mapping,
 * adopted from a RecordStore. Construction is the only mutation;
 * afterwards the buffer is safe to share across replay worker threads
 * by const reference / shared_ptr.
 */
class TraceBuffer
{
  public:
    ~TraceBuffer();

    TraceBuffer(const TraceBuffer &) = delete;
    TraceBuffer &operator=(const TraceBuffer &) = delete;

    /** Build a buffer from a copy of @p records (one memcpy). */
    static std::shared_ptr<const TraceBuffer>
    copyOf(std::span<const TraceRecord> records);

    /** Adopt @p records' mapping and counts in O(1); no copy. */
    static std::shared_ptr<const TraceBuffer>
    fromRecords(RecordStore records);

    std::span<const TraceRecord> records() const
    {
        return {records_, count_};
    }

    const TraceRecord *data() const { return records_; }
    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }

    /** The counts folded in while the records were stored. */
    const TraceSummary &summary() const { return summary_; }

  private:
    TraceBuffer() = default;

    TraceRecord *records_ = nullptr; ///< Owned mapping, or nullptr.
    std::size_t count_ = 0;
    std::size_t mapBytes_ = 0;
    TraceSummary summary_;
};

} // namespace pmodv::trace

#endif // PMODV_TRACE_BUFFER_HH
