#include "mem/hierarchy.hh"

namespace pmodv::mem
{

CacheHierarchy::CacheHierarchy(stats::Group *parent,
                               const HierarchyParams &params)
    : stats::Group(parent, "dcache"), params_(params)
{
    l1_ = std::make_unique<Cache>(this, params_.l1);
    l2_ = std::make_unique<Cache>(this, params_.l2);
    memory_ = std::make_unique<MainMemory>(this, params_.memory);
}

HierarchyResult
CacheHierarchy::missL1(Addr addr, AccessType type, MemClass cls)
{
    HierarchyResult res;
    res.latency = params_.l1.hitLatency + params_.l2.hitLatency;
    if (l2_->access(addr, type).hit) {
        res.hitLevel = 2;
        return res;
    }
    res.latency += memory_->access(cls, type);
    res.hitLevel = 3;
    return res;
}

} // namespace pmodv::mem
