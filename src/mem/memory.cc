#include "mem/memory.hh"

namespace pmodv::mem
{

MainMemory::MainMemory(stats::Group *parent, const MemoryParams &params)
    : stats::Group(parent, "mem"),
      dramReads(this, "dram_reads", "reads served by DRAM"),
      dramWrites(this, "dram_writes", "writes served by DRAM"),
      nvmReads(this, "nvm_reads", "reads served by NVM"),
      nvmWrites(this, "nvm_writes", "writes served by NVM"),
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
