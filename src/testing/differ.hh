/**
 * @file
 * The differential runner: replays one op sequence through one
 * core::System per scheme plus the ReferenceModel and checks the
 * equivalence oracles the paper's claims rest on —
 *
 *  - verdict:        every protected scheme returns the reference's
 *                    allow/deny for every access (stock `mpk` gets the
 *                    key-exhaustion carve-out);
 *  - effective-perm: after every SETPERM, each scheme's
 *                    effectivePerm() matches the reference;
 *  - cycle-order:    scheme-attributable cycles obey
 *                    none <= lowerbound <= each protected scheme;
 *  - bucket-sum:     the six Table VII buckets sum exactly to the
 *                    scheme-attributable cycles;
 *  - events:         the event ring carries only kinds the scheme can
 *                    legitimately post (domain_virt never records a
 *                    shootdown), eviction/shootdown counts match the
 *                    stats, and nothing was dropped;
 *  - tail-latency:   the cycle totals the KV server's latency
 *                    histograms are built from do not depend on how
 *                    the trace is batched — a second System per
 *                    scheme replays the episode's records through
 *                    replayBatch in spans cut at seeded random record
 *                    indices (inside ops too) and must match the
 *                    one-record path's total after every span, its
 *                    stats tree and its event ring.
 *
 * Every op becomes TraceRecords fed to System::replayBatch as
 * one-record spans, so the fuzz runs the machine the benchmarks
 * replay, and the oracles read the System's counters. After each
 * attach the
 * harness flushes the new range from every core's TLB (the mmap
 * shootdown a real kernel performs), so a translation cached while
 * the slot was still unmapped cannot masquerade as a scheme
 * divergence.
 */

#ifndef PMODV_TESTING_DIFFER_HH
#define PMODV_TESTING_DIFFER_HH

#include <string>
#include <vector>

#include "arch/params.hh"
#include "testing/ops.hh"

namespace pmodv::testing
{

/** Deliberate defects the harness can plant to prove it catches them. */
enum class BugInjection
{
    None,
    /** Stock mpk silently ignores SETPERM(None) — a dropped revoke. */
    MpkDropRevoke,
    /**
     * Every System's memAccesses counter restarts at 0 with each batch
     * it is handed — a counter lost at a batch boundary.
     */
    BatchResetStat,
};

/**
 * Parse "none" / "mpk-drop-revoke" / "batch-reset-stat"; fatal() on
 * anything else.
 */
BugInjection injectionFromName(const std::string &name);

/** One oracle violation. */
struct Violation
{
    std::string oracle; ///< "verdict", "effective-perm", ...
    std::string scheme; ///< Scheme label, or "" for cross-scheme.
    std::size_t opIndex = 0; ///< Op being executed (ops.size() = end).
    std::string detail;

    std::string toString() const;
};

/** Outcome of one differential run. */
struct DiffResult
{
    std::vector<Violation> violations;

    bool ok() const { return violations.empty(); }
    /** Oracle name of the first violation ("" when ok). */
    std::string firstOracle() const
    {
        return violations.empty() ? std::string{} : violations[0].oracle;
    }
    std::string summary() const;
};

/** Configuration of a differential run. */
struct DiffConfig
{
    /** Core count + invalidation cost of every scheme's System. */
    arch::CoreTopology topology;
    BugInjection inject = BugInjection::None;
};

/**
 * Replay @p ops through all six schemes, checking every oracle; the
 * run stops at the op that first violates one.
 */
DiffResult runDifferential(const std::vector<Op> &ops,
                           const DiffConfig &cfg = {});

} // namespace pmodv::testing

#endif // PMODV_TESTING_DIFFER_HH
