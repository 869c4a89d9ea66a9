/**
 * @file
 * Fundamental simulator-wide types: addresses, cycles, identifiers
 * and permission encodings shared by every module.
 */

#ifndef PMODV_COMMON_TYPES_HH
#define PMODV_COMMON_TYPES_HH

#include <cstdint>
#include <limits>
#include <string>

namespace pmodv
{

/** A virtual or physical byte address inside the simulated machine. */
using Addr = std::uint64_t;

/** A count of processor clock cycles. */
using Cycles = std::uint64_t;

/** Simulated hardware thread / logical core identifier. */
using ThreadId = std::uint32_t;

/**
 * Protection-domain identifier. Each attached PMO gets one. Domain 0
 * is the reserved NULL domain: accesses that resolve to it bypass all
 * domain permission checks ("domainless" accesses in the paper).
 */
using DomainId = std::uint32_t;

/** The reserved domainless identifier. */
inline constexpr DomainId kNullDomain = 0;

/**
 * Bound of the domain-id space. Per-domain tables are indexed by
 * DomainId, so trace files naming a domain at or above it are
 * rejected at load and the registry never grows past it.
 */
inline constexpr DomainId kMaxDomains = DomainId{1} << 20;

/** An MPK protection key (4 bits architecturally: 0..15). */
using ProtKey = std::uint8_t;

/** Key value 0 is reserved as the NULL (domainless) key, as in MPK. */
inline constexpr ProtKey kNullKey = 0;

/** Number of architectural MPK protection keys. */
inline constexpr unsigned kNumProtKeys = 16;

/** An invalid/unassigned sentinel for protection keys. */
inline constexpr ProtKey kInvalidKey = 0xff;

/**
 * Access permission for a domain or page, encoded as independent read
 * and write capability bits. The paper's PTLB encoding (1x
 * inaccessible, 01 read-only, 00 read-write) maps onto this.
 */
enum class Perm : std::uint8_t
{
    None      = 0x0, ///< Inaccessible (execute-only in MPK terms).
    Read      = 0x1, ///< Read permitted.
    Write     = 0x2, ///< Write permitted (without read).
    ReadWrite = 0x3, ///< Read and write permitted.
};

/** Combine two permissions, keeping only rights present in both. */
constexpr Perm
permIntersect(Perm a, Perm b)
{
    return static_cast<Perm>(static_cast<std::uint8_t>(a) &
                             static_cast<std::uint8_t>(b));
}

/** Combine two permissions, keeping rights present in either. */
constexpr Perm
permUnion(Perm a, Perm b)
{
    return static_cast<Perm>(static_cast<std::uint8_t>(a) |
                             static_cast<std::uint8_t>(b));
}

/** True when @p have grants at least the rights in @p need. */
constexpr bool
permAllows(Perm have, Perm need)
{
    return (static_cast<std::uint8_t>(have) &
            static_cast<std::uint8_t>(need)) ==
           static_cast<std::uint8_t>(need);
}

/** True when the permission includes the read right. */
constexpr bool
permCanRead(Perm p)
{
    return permAllows(p, Perm::Read);
}

/** True when the permission includes the write right. */
constexpr bool
permCanWrite(Perm p)
{
    return permAllows(p, Perm::Write);
}

/** Human-readable permission string ("-", "R", "W", or "RW"). */
inline std::string
permToString(Perm p)
{
    switch (p) {
      case Perm::None:
        return "-";
      case Perm::Read:
        return "R";
      case Perm::Write:
        return "W";
      case Perm::ReadWrite:
        return "RW";
    }
    return "?";
}

/**
 * Normalize a permission to what the 2-bit hardware encodings (PKRU
 * AD/WD bits, PTLB 2-bit field) can express: write-without-read is
 * not representable and widens to read-write.
 */
constexpr Perm
permNormalizeHw(Perm p)
{
    return p == Perm::Write ? Perm::ReadWrite : p;
}

/** The kind of memory access being checked. */
enum class AccessType : std::uint8_t
{
    Read  = 0,
    Write = 1,
};

/** Permission needed to perform an access of the given type. */
constexpr Perm
permForAccess(AccessType t)
{
    return t == AccessType::Read ? Perm::Read : Perm::Write;
}

/** Page sizes a PMO mapping (and the TLB) may use. */
enum class PageSize : std::uint8_t
{
    Size4K = 0,
    Size2M = 1,
    Size1G = 2,
};

/** Byte size of a PageSize value. */
constexpr Addr
pageBytes(PageSize s)
{
    switch (s) {
      case PageSize::Size4K:
        return Addr{1} << 12;
      case PageSize::Size2M:
        return Addr{1} << 21;
      case PageSize::Size1G:
        return Addr{1} << 30;
    }
    return Addr{1} << 12;
}

/** log2 of the byte size of a PageSize value. */
constexpr unsigned
pageShift(PageSize s)
{
    switch (s) {
      case PageSize::Size4K:
        return 12;
      case PageSize::Size2M:
        return 21;
      case PageSize::Size1G:
        return 30;
    }
    return 12;
}

/** Memory technology backing a physical region. */
enum class MemClass : std::uint8_t
{
    Dram = 0, ///< Volatile DRAM; 120-cycle latency in the base config.
    Nvm  = 1, ///< Persistent memory; 360-cycle latency (3x DRAM).
};

} // namespace pmodv

#endif // PMODV_COMMON_TYPES_HH
