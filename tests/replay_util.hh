/**
 * @file
 * Test-side helper over core::System's one way in: replay a single
 * record as a one-record span. A System's results do not depend on
 * how its trace is split into batches, so a test may feed records
 * one at a time and read the machine between them.
 */

#ifndef PMODV_TESTS_REPLAY_UTIL_HH
#define PMODV_TESTS_REPLAY_UTIL_HH

#include "core/system.hh"
#include "trace/record.hh"

namespace pmodv::test
{

/** Replay @p rec through @p sys as a one-record batch. */
inline void
feed(core::System &sys, const trace::TraceRecord &rec)
{
    sys.replayBatch({&rec, 1});
}

} // namespace pmodv::test

#endif // PMODV_TESTS_REPLAY_UTIL_HH
