#include "mem/memory.hh"

namespace pmodv::mem
{

MainMemory::MainMemory(stats::Group *parent, const MemoryParams &params)
    : stats::Group(parent, "mem"),
      dramReads(this, "dram_reads"),
      dramWrites(this, "dram_writes"),
      nvmReads(this, "nvm_reads"),
      nvmWrites(this, "nvm_writes"),
      params_(params)
{
}

Cycles
MainMemory::access(MemClass cls, AccessType type)
{
    if (cls == MemClass::Dram) {
        if (type == AccessType::Read)
            ++dramReads;
        else
            ++dramWrites;
        return params_.dramLatency;
    }
    if (type == AccessType::Read) {
        ++nvmReads;
        return params_.nvmLatency;
    }
    ++nvmWrites;
    return static_cast<Cycles>(static_cast<double>(params_.nvmLatency) *
                               params_.nvmWritePenalty);
}

} // namespace pmodv::mem
