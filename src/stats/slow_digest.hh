/**
 * @file
 * A deterministic bounded top-K digest of the slowest tracked
 * requests — the statistics half of the tail-forensics layer.
 *
 * Each entry carries one request's complete blame record: the exact
 * 7-bucket cycle breakdown of its service time, its queueing delay and
 * (defensive) residue — which together provably partition the
 * arrival-to-completion latency — plus denormalized copies of every
 * EventRing event that landed inside the request's window (its causal
 * chain: the key evictions, shootdown IPIs and walk refills that
 * actually delayed it).
 *
 * The keeper is a sorted bounded vector (K is small): ordering is
 * latency-descending with a seeded splitmix64 tie-break on the request
 * id, so the retained set and its order are independent of insertion
 * order and identical across --jobs counts and batch splits. offer()
 * is O(K) worst case and only runs for requests admits() accepts: the
 * replay builds no entry (nor its causal chain) for the rest.
 */

#ifndef PMODV_STATS_SLOW_DIGEST_HH
#define PMODV_STATS_SLOW_DIGEST_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "stats/stats.hh"

namespace pmodv::stats
{

/** Number of cycle-attribution buckets in a request breakdown. */
inline constexpr unsigned kSlowDigestBuckets = 7;

/**
 * Canonical bucket names, index-aligned with a System's attribution
 * Scalars (cyc_issue .. cyc_ctx_switch). The single source of truth
 * for every exporter and for tools/check_stats_schema.py.
 */
extern const std::array<const char *, kSlowDigestBuckets>
    kSlowDigestBucketNames;

/** Default tie-break seed (any fixed odd constant works). */
inline constexpr std::uint64_t kSlowDigestDefaultSeed =
    0x9e3779b97f4a7c15ull;

/**
 * One blamed event: a denormalized copy of an EventRing entry that
 * landed inside the request's OpBegin..OpEnd window. Copied (not
 * referenced) so the blame survives the ring overwriting the slot.
 */
struct SlowBlamedEvent
{
    std::uint64_t id = 0;    ///< Ring-assigned monotone event id.
    std::string kind;        ///< trace::eventKindName() of the event.
    std::uint64_t cycle = 0; ///< Global cycle the event was posted at.
    std::uint64_t tid = 0;
    std::uint32_t arg = 0;
    std::uint64_t value = 0;
};

/** One slow request's complete blame record. */
struct SlowRequestEntry
{
    std::uint64_t id = 0;     ///< 1-based tracked-request sequence id.
    std::uint64_t tid = 0;    ///< Serving thread.
    std::uint64_t domain = 0; ///< Primary domain (OpBegin aux).
    std::uint64_t cls = 0;    ///< Tenant class (OpBegin value).
    std::uint64_t arrival = 0; ///< Virtual-clock arrival cycle.
    std::uint64_t latency = 0; ///< Arrival -> completion cycles.
    std::uint64_t queue = 0;   ///< Arrival -> service-start cycles.
    /** latency - queue - sum(buckets); 0 by the partition invariant,
     *  kept so a violation is visible rather than silently absorbed. */
    std::uint64_t residue = 0;
    std::uint64_t begin = 0;  ///< Global cycle count at OpBegin.
    std::uint64_t commit = 0; ///< Global cycle count at OpEnd.
    /** Service cycles by attribution bucket
     *  (kSlowDigestBucketNames order). */
    std::array<std::uint64_t, kSlowDigestBuckets> buckets{};
    std::vector<SlowBlamedEvent> events; ///< Causal chain, oldest first.
    /** In-window events beyond the per-entry cap (counted, not kept). */
    std::uint64_t eventsDropped = 0;
};

/** The bounded top-K keeper, exported through the stats visitors. */
class SlowRequestDigest : public StatBase
{
  public:
    SlowRequestDigest(Group *parent, std::string name, unsigned k,
                      std::uint64_t seed = kSlowDigestDefaultSeed);

    /** Consider @p entry for the top K; keeps at most K entries. */
    void offer(const SlowRequestEntry &entry);

    /**
     * True when offer() would retain a request of @p latency and
     * @p id right now. Depends only on those two and the current last
     * entry, so a caller can skip building an entry the digest would
     * drop (and count it with countRejected() instead).
     */
    bool admits(std::uint64_t latency, std::uint64_t id) const;

    /** Count an offer admits() refused, without building its entry. */
    void countRejected() { ++offered_; }

    /** Retained entries, slowest first (ties broken by seeded hash). */
    const std::vector<SlowRequestEntry> &entries() const
    {
        return entries_;
    }

    unsigned k() const { return k_; }
    std::uint64_t seed() const { return seed_; }
    /** Total requests offered (retained or not). */
    std::uint64_t offered() const { return offered_; }

    void accept(Visitor &visitor) const override
    {
        visitor.visitSlowDigest(*this);
    }

  private:
    /** True when request (@p lat_a, @p id_a) orders strictly before
     *  (is slower than) request (@p lat_b, @p id_b). */
    bool before(std::uint64_t lat_a, std::uint64_t id_a,
                std::uint64_t lat_b, std::uint64_t id_b) const;

    unsigned k_;
    std::uint64_t seed_;
    std::uint64_t offered_ = 0;
    std::vector<SlowRequestEntry> entries_;
};

} // namespace pmodv::stats

#endif // PMODV_STATS_SLOW_DIGEST_HH
