/**
 * @file
 * The Domain Translation Table Lookaside Buffer (DTTLB) of the
 * hardware MPK-virtualization design: a small CAM (16 entries in the
 * base configuration) caching DTT entries. Each entry tags an entire
 * PMO VA range and records the domain id, the protection key the
 * domain currently maps to, a valid bit (domain presently holds a
 * key) and a dirty bit (key mapping changed since the DTT was
 * written).
 */

#ifndef PMODV_ARCH_DTTLB_HH
#define PMODV_ARCH_DTTLB_HH

#include <optional>
#include <string>
#include <vector>

#include "arch/domain_cam.hh"

namespace pmodv::arch
{

/** One DTTLB entry (VA-range tagged). */
struct DttlbEntry
{
    bool used = false;  ///< Slot occupied.
    Addr base = 0;      ///< VA range tag: base...
    Addr size = 0;      ///< ...and length of the whole PMO range.
    DomainId domain = kNullDomain;
    ProtKey key = kNullKey;
    bool valid = false; ///< Domain currently maps to `key`.
    bool dirty = false; ///< Mapping differs from the in-memory DTT.
};

/**
 * The DTTLB: a DomainCam that is also looked up by VA. The range tags
 * live in two packed rows beside the slots, kept in step by insert(),
 * invalidate() and flushAll(). lookupVa() compares every slot and ORs
 * the outcomes into one bit mask, so it never branches on where (or
 * whether) a slot matched.
 */
class Dttlb : public DomainCam<DttlbEntry>
{
  public:
    /** @p name distinguishes per-core instances ("dttlb_core1", ...). */
    Dttlb(stats::Group *parent, unsigned entries,
          std::string name = "dttlb");

    /**
     * Associative lookup by VA; returns the matching entry (touching
     * replacement state and hit/miss stats) or nullptr.
     */
    DttlbEntry *lookupVa(Addr va);

    std::optional<DttlbEntry> insert(const DttlbEntry &entry);
    bool invalidate(DomainId domain);
    void flushAll(std::vector<DttlbEntry> &dirty_out);

    /**
     * DomainCam::consistent(), plus: the range rows mirror the used
     * slots, free slots have size 0 and used ranges are disjoint.
     */
    bool consistent(std::string *why = nullptr) const;

  private:
    /**
     * Range tag per slot. A free slot has size 0, so the one unsigned
     * compare va - base < size can never match it. Used ranges are
     * disjoint (AddressSpace rejects overlapping maps), so at most one
     * slot contains a VA.
     */
    std::vector<Addr> base_;
    std::vector<Addr> size_;
};

} // namespace pmodv::arch

#endif // PMODV_ARCH_DTTLB_HH
