/**
 * @file
 * The Permission Table Lookaside Buffer (PTLB) of the hardware
 * domain-virtualization design: a small (16-entry) buffer caching the
 * current thread's domain permissions out of the OS-managed
 * Permission Table. Entries are {10-bit domain tag, 2-bit permission,
 * dirty bit}; dirty entries are written back on eviction and on
 * context switches.
 */

#ifndef PMODV_ARCH_PTLB_HH
#define PMODV_ARCH_PTLB_HH

#include <string>

#include "arch/domain_cam.hh"

namespace pmodv::arch
{

/** One PTLB entry. */
struct PtlbEntry
{
    bool used = false;
    DomainId domain = kNullDomain;
    Perm perm = Perm::None;
    bool dirty = false;
};

/** The PTLB: a DomainCam looked up by domain. */
class Ptlb : public DomainCam<PtlbEntry>
{
  public:
    /** @p name distinguishes per-core instances ("ptlb_core1", ...). */
    Ptlb(stats::Group *parent, unsigned entries,
         std::string name = "ptlb")
        : DomainCam(parent, entries, std::move(name), "PTLB")
    {
    }
};

} // namespace pmodv::arch

#endif // PMODV_ARCH_PTLB_HH
