/**
 * @file
 * A two-level cache hierarchy in front of the DRAM/NVM main memory,
 * matching the paper's Table II (32KB 8-way L1D @1 cycle, 1MB 16-way
 * L2 @8 cycles).
 */

#ifndef PMODV_MEM_HIERARCHY_HH
#define PMODV_MEM_HIERARCHY_HH

#include <memory>

#include "mem/cache.hh"
#include "mem/memory.hh"

namespace pmodv::mem
{

/** Static configuration of the whole data-memory hierarchy. */
struct HierarchyParams
{
    CacheParams l1{"l1d", 32 * 1024, 8, 64, 1};
    CacheParams l2{"l2", 1024 * 1024, 16, 64, 8};
    MemoryParams memory{};
};

/** Outcome of one hierarchy access (latency plus hit level). */
struct HierarchyResult
{
    Cycles latency = 0;
    /** 1 = L1 hit, 2 = L2 hit, 3 = main memory. */
    unsigned hitLevel = 0;
};

/**
 * L1 -> L2 -> main-memory lookup with additive latencies. Inclusive
 * allocation: a miss fills every level above the hit point.
 */
class CacheHierarchy : public stats::Group
{
  public:
    CacheHierarchy(stats::Group *parent, const HierarchyParams &params);

    /**
     * Access @p addr; @p cls selects DRAM vs NVM on a full miss. An L1
     * hit resolves inline; a miss takes missL1().
     */
    HierarchyResult
    access(Addr addr, AccessType type, MemClass cls)
    {
        if (l1_->access(addr, type).hit)
            return {params_.l1.hitLatency, 1};
        return missL1(addr, type, cls);
    }

    Cache &l1() { return *l1_; }
    Cache &l2() { return *l2_; }
    MainMemory &memory() { return *memory_; }

  private:
    /** The L2, else main memory, after @p addr missed the L1D. */
    HierarchyResult missL1(Addr addr, AccessType type, MemClass cls);

    HierarchyParams params_;
    std::unique_ptr<Cache> l1_;
    std::unique_ptr<Cache> l2_;
    std::unique_ptr<MainMemory> memory_;
};

} // namespace pmodv::mem

#endif // PMODV_MEM_HIERARCHY_HH
