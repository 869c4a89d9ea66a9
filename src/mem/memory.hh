/**
 * @file
 * Main-memory latency model for a hybrid DRAM + NVM system. PMO
 * accesses resolve to NVM latency (3x DRAM, per the Optane DC
 * characterization the paper cites); everything else to DRAM.
 */

#ifndef PMODV_MEM_MEMORY_HH
#define PMODV_MEM_MEMORY_HH

#include "common/types.hh"
#include "stats/stats.hh"

namespace pmodv::mem
{

/** Static configuration of the main-memory model. */
struct MemoryParams
{
    Cycles dramLatency = 120;
    Cycles nvmLatency = 360;
    /** Extra write latency multiplier for NVM writes (1.0 = none). */
    double nvmWritePenalty = 1.0;
};

/** The DRAM+NVM main-memory latency model. */
class MainMemory : public stats::Group
{
  public:
    MainMemory(stats::Group *parent, const MemoryParams &params);

    const MemoryParams &params() const { return params_; }

    /** Latency of one memory access of the given class and type. */
    Cycles access(MemClass cls, AccessType type);

    stats::Scalar dramReads;
    stats::Scalar dramWrites;
    stats::Scalar nvmReads;
    stats::Scalar nvmWrites;

  private:
    MemoryParams params_;
};

} // namespace pmodv::mem

#endif // PMODV_MEM_MEMORY_HH
