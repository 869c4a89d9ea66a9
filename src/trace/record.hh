/**
 * @file
 * The dynamic trace record format.
 *
 * Workloads execute on the PMO library and emit a stream of
 * TraceRecords — the equivalent of the paper's Pin-captured traces.
 * The timing core replays this stream against each protection scheme.
 */

#ifndef PMODV_TRACE_RECORD_HH
#define PMODV_TRACE_RECORD_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/logging.hh"
#include "common/types.hh"

namespace pmodv::trace
{

/** Kinds of events a trace may contain. */
enum class RecordType : std::uint8_t
{
    /** A block of @c aux non-memory instructions. */
    InstBlock = 0,
    /** A data load from @c addr (size in @c aux). */
    Load = 1,
    /** A data store to @c addr (size in @c aux). */
    Store = 2,
    /**
     * A SETPERM permission change: domain @c aux set to the Perm in
     * the record flags for the issuing thread. Serializing
     * (full fence), costs the WRPKRU latency.
     */
    SetPerm = 3,
    /**
     * A legacy MPK WRPKRU write of the whole PKRU. @c aux holds the
     * protection key, flags the permission. Used by single-PMO runs
     * that model stock MPK usage.
     */
    Wrpkru = 4,
    /**
     * Attach system call: PMO/domain @c aux mapped at a VA base and
     * byte size packed into @c addr (TraceRecord::attachBase() and
     * attachSize()); flags carry the requested Perm.
     */
    Attach = 5,
    /** Detach system call for domain @c aux. */
    Detach = 6,
    /** The core context-switches to thread @c aux. */
    ThreadSwitch = 7,
    /** Start of a logical workload operation (for per-op stats). */
    OpBegin = 8,
    /** End of a logical workload operation. */
    OpEnd = 9,
};

/** Number of distinct RecordType values (array sizing). */
inline constexpr std::size_t kNumRecordTypes = 10;

/** Flag bit: the access targets PMO (NVM-backed) memory. */
inline constexpr std::uint8_t kFlagPmo = 0x01;

/**
 * Flag bit on OpBegin records: the op carries an open-loop arrival
 * stamp. `addr` then packs the request's arrival time in model cycles
 * and its latency class (see SimConfig::opClasses and
 * TraceRecord::arrival()/opClass()). Reuses
 * bit 0, which only means kFlagPmo on load/store records.
 */
inline constexpr std::uint8_t kFlagOpArrival = 0x01;

/** Encode a Perm value into record flags (bits 1..2). */
constexpr std::uint8_t
encodePermFlags(Perm p)
{
    return static_cast<std::uint8_t>(static_cast<std::uint8_t>(p) << 1);
}

/** Decode a Perm value from record flags. */
constexpr Perm
decodePermFlags(std::uint8_t flags)
{
    return static_cast<Perm>((flags >> 1) & 0x3);
}

/** Encode a PageSize into record flags (bits 3..4, attach records). */
constexpr std::uint8_t
encodePageSizeFlags(PageSize ps)
{
    return static_cast<std::uint8_t>(static_cast<std::uint8_t>(ps)
                                     << 3);
}

/** Decode a PageSize from record flags. */
constexpr PageSize
decodePageSizeFlags(std::uint8_t flags)
{
    return static_cast<PageSize>((flags >> 3) & 0x3);
}

/** Attach records hold 4 KB-aligned ranges below this VA. */
inline constexpr Addr kAttachVaLimit = Addr{1} << 48;

/** Attach sizes must stay below this: 2^28 pages of 4 KB (1 TB). */
inline constexpr Addr kAttachSizeLimit = Addr{1} << 40;

/** Arrival stamps must stay below this (56 bits of model cycles). */
inline constexpr std::uint64_t kArrivalLimit = std::uint64_t{1} << 56;

/** The largest latency class an arrival-stamped OpBegin can carry. */
inline constexpr std::uint64_t kMaxOpClass = 0xff;

/**
 * Why an attach of [@p base, @p base + @p size) cannot be packed into
 * a TraceRecord, or nullptr when it can.
 */
constexpr const char *
attachUnencodable(Addr base, Addr size)
{
    if (base % 4096 != 0)
        return "base is not 4 KB aligned";
    if (size % 4096 != 0)
        return "size is not a multiple of 4 KB";
    if (size >= kAttachSizeLimit)
        return "size is not below 1 TB";
    if (base >= kAttachVaLimit || size > kAttachVaLimit - base)
        return "range reaches past 2^48";
    if (size == 0)
        return "size is 0";
    return nullptr;
}

/**
 * Why an OpBegin arrival stamp @p arrival of latency class
 * @p op_class cannot be packed into a TraceRecord, or nullptr.
 */
constexpr const char *
arrivalUnencodable(std::uint64_t arrival, std::uint64_t op_class)
{
    if (arrival >= kArrivalLimit)
        return "arrival is not below 2^56";
    if (op_class > kMaxOpClass)
        return "latency class is above 255";
    return nullptr;
}

/**
 * One dynamic trace event. 16 bytes, trivially copyable and
 * padding-free. Most records use @c addr as a plain address; the two
 * kinds that need a second word pack it into @c addr, and every read
 * of those goes through an accessor:
 *
 *  - Attach: the 4 KB-aligned base sits in bits 12..47; the size in
 *    4 KB pages (below 2^28) is split over bits 48..63 (high 16 bits)
 *    and 0..11 (low 12 bits). Read with attachBase()/attachSize().
 *  - Arrival-stamped OpBegin: the arrival cycle in bits 0..55, the
 *    latency class in bits 56..63. Read with arrival()/opClass().
 *
 * The factories panic on a value the packing cannot hold. On disk a
 * record stays the 24-byte {..., addr, value} layout; trace_file.cc
 * converts at the file boundary.
 */
struct TraceRecord
{
    RecordType type = RecordType::InstBlock;
    std::uint8_t flags = 0;
    std::uint16_t tid = 0;  ///< Issuing software thread.
    std::uint32_t aux = 0;  ///< Type-specific payload (count/domain/...).
    std::uint64_t addr = 0; ///< Virtual address, or a packed payload.

    /** True for the records whose @c aux names a domain. */
    bool
    namesDomain() const
    {
        return type == RecordType::SetPerm ||
               type == RecordType::Attach || type == RecordType::Detach;
    }

    /** Build an instruction-block record. */
    static TraceRecord
    instBlock(std::uint16_t tid, std::uint32_t count)
    {
        return {RecordType::InstBlock, 0, tid, count, 0};
    }

    /** Build a load record. */
    static TraceRecord
    load(std::uint16_t tid, Addr addr, std::uint32_t size, bool pmo)
    {
        return {RecordType::Load,
                static_cast<std::uint8_t>(pmo ? kFlagPmo : 0), tid, size,
                addr};
    }

    /** Build a store record. */
    static TraceRecord
    store(std::uint16_t tid, Addr addr, std::uint32_t size, bool pmo)
    {
        return {RecordType::Store,
                static_cast<std::uint8_t>(pmo ? kFlagPmo : 0), tid, size,
                addr};
    }

    /** Build a SETPERM record. */
    static TraceRecord
    setPerm(std::uint16_t tid, DomainId domain, Perm perm)
    {
        return {RecordType::SetPerm, encodePermFlags(perm), tid, domain,
                0};
    }

    /** Build a WRPKRU record. */
    static TraceRecord
    wrpkru(std::uint16_t tid, ProtKey key, Perm perm)
    {
        return {RecordType::Wrpkru, encodePermFlags(perm), tid, key, 0};
    }

    /**
     * Build an attach record (mapping granularity defaults to 4KB).
     * Panics unless attachUnencodable() accepts the range.
     */
    static TraceRecord
    attach(std::uint16_t tid, DomainId domain, Addr va_base, Addr size,
           Perm perm, PageSize page_size = PageSize::Size4K)
    {
        const char *why = attachUnencodable(va_base, size);
        panic_if(why, "attach of domain %u at %#llx (%#llx bytes): %s",
                 domain, static_cast<unsigned long long>(va_base),
                 static_cast<unsigned long long>(size), why);
        const Addr pages = size >> 12;
        return {RecordType::Attach,
                static_cast<std::uint8_t>(encodePermFlags(perm) |
                                          encodePageSizeFlags(page_size)),
                tid, domain,
                va_base | (pages >> 12) << 48 | (pages & 0xfff)};
    }

    /** The VA base of an Attach record. */
    Addr attachBase() const { return addr & (kAttachVaLimit - 4096); }

    /** The byte size of an Attach record. */
    Addr
    attachSize() const
    {
        return ((addr >> 48) << 12 | (addr & 0xfff)) << 12;
    }

/** Build a detach record. */
    static TraceRecord
    detach(std::uint16_t tid, DomainId domain)
    {
        return {RecordType::Detach, 0, tid, domain, 0};
    }

    /** Build a thread (context) switch record. */
    static TraceRecord
    threadSwitch(std::uint16_t new_tid)
    {
        return {RecordType::ThreadSwitch, 0, new_tid, new_tid, 0};
    }

    /** Build an operation-begin marker. */
    static TraceRecord
    opBegin(std::uint16_t tid, std::uint32_t op_kind = 0)
    {
        return {RecordType::OpBegin, 0, tid, op_kind, 0};
    }

    /**
     * Build an operation-begin marker carrying an open-loop arrival
     * stamp: the request arrived at model cycle @p arrival and
     * belongs to latency class @p op_class. Replay engines with
     * request-latency tracking enabled (SimConfig::opClasses > 0)
     * measure queueing delay and arrival-to-completion latency
     * against the stamp; engines without it ignore the extra fields,
     * so stamped traces replay bit-identically on legacy configs.
     * Panics unless arrivalUnencodable() accepts the stamp.
     */
    static TraceRecord
    opBeginAt(std::uint16_t tid, std::uint32_t op_kind,
              std::uint64_t arrival, std::uint32_t op_class)
    {
        const char *why = arrivalUnencodable(arrival, op_class);
        panic_if(why, "op arrival %llu of class %u: %s",
                 static_cast<unsigned long long>(arrival), op_class, why);
        return {RecordType::OpBegin, kFlagOpArrival, tid, op_kind,
                arrival | std::uint64_t{op_class} << 56};
    }

    /** The arrival cycle of an arrival-stamped OpBegin record. */
    std::uint64_t arrival() const { return addr & (kArrivalLimit - 1); }

    /** The latency class of an arrival-stamped OpBegin record. */
    std::uint32_t
    opClass() const
    {
        return static_cast<std::uint32_t>(addr >> 56);
    }

    /** True for an OpBegin record carrying an arrival stamp. */
    bool
    hasArrival() const
    {
        return type == RecordType::OpBegin && (flags & kFlagOpArrival);
    }

    /** Build an operation-end marker. */
    static TraceRecord
    opEnd(std::uint16_t tid, std::uint32_t op_kind = 0)
    {
        return {RecordType::OpEnd, 0, tid, op_kind, 0};
    }

    bool isMemAccess() const
    {
        return type == RecordType::Load || type == RecordType::Store;
    }

    bool isPmoAccess() const
    {
        return isMemAccess() && (flags & kFlagPmo);
    }

    Perm perm() const { return decodePermFlags(flags); }

    PageSize pageSize() const { return decodePageSizeFlags(flags); }

    bool operator==(const TraceRecord &) const = default;
};

static_assert(sizeof(TraceRecord) == 16, "TraceRecord must stay 16 bytes");

/** Short human-readable name of a record type. */
std::string recordTypeName(RecordType t);

/** One-line textual rendering of a record (debugging/tests). */
std::string toString(const TraceRecord &rec);

} // namespace pmodv::trace

#endif // PMODV_TRACE_RECORD_HH
