/**
 * @file
 * Bridges from replayed Systems to the report formats that need more
 * than aggregate counters:
 *
 *  - appendSystemTrack() renders one System as a Perfetto track: a
 *    whole-replay span, one labelled span per committed workload
 *    operation (the event ring's TxnCommit events carry the op's
 *    primary domain and duration), instant events for key evictions,
 *    shootdowns and PTLB/DTTLB refills, and one counter series per
 *    timeline track when epoch sampling was enabled.
 *
 *  - hotDomainsJson()/printHotDomains() render a scheme's ranked
 *    top-N "hot domains" (DomainProfile::topN) as a JSON array for
 *    suite reports or an aligned text table for pmodv-trace.
 *
 * These live in exp (not trace) because they depend on core::System;
 * trace::PerfettoExporter itself stays pure format.
 */

#ifndef PMODV_EXP_TRACE_EXPORT_HH
#define PMODV_EXP_TRACE_EXPORT_HH

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "arch/domain_profile.hh"
#include "core/system.hh"
#include "trace/perfetto.hh"

namespace pmodv::exp
{

/** Rows reported by the hot-domain table (reports and suite JSON). */
inline constexpr std::size_t kHotDomainsTopN = 8;

/**
 * Append @p sys as one track named @p label to @p exporter. Reads the
 * event ring non-destructively; call after the replay finished.
 */
void appendSystemTrack(trace::PerfettoExporter &exporter,
                       const core::System &sys,
                       const std::string &label);

/** A PerfettoExporter timed for @p config's core clock. */
trace::PerfettoExporter makeExporter(const core::SimConfig &config);

/** Pre-ranked hot-domain rows as a JSON array of objects. */
std::string hotDomainsJson(const std::vector<arch::HotDomain> &rows);

/** Aligned text table of pre-ranked hot-domain rows (header
 *  included); prints a placeholder line when @p rows is empty. */
void printHotDomains(std::ostream &os,
                     const std::vector<arch::HotDomain> &rows);

} // namespace pmodv::exp

#endif // PMODV_EXP_TRACE_EXPORT_HH
