/**
 * @file
 * A bounded ring buffer of typed simulation events — the protection
 * layer's flight recorder. Schemes post the rare-but-decisive events
 * (key evictions, TLB shootdowns, PTLB/DTTLB refills) and the System
 * posts transaction commits; the ring keeps the most recent
 * `capacity` of them with their cycle timestamps, giving a replayable
 * timeline for debugging divergences between schemes.
 *
 * The ring is single-writer by construction (each replay pipeline
 * owns its System, which owns its ring) and uses no locks or atomics:
 * posting is one store plus two index bumps, cheap enough to leave on
 * in every run. When full, the oldest event is overwritten and
 * `dropped` counts it — the ring never grows and never blocks.
 *
 * The ring is also a stats::Group, so `recorded`/`dropped` appear in
 * the owning System's stats tree (and therefore in --json reports).
 */

#ifndef PMODV_TRACE_EVENT_RING_HH
#define PMODV_TRACE_EVENT_RING_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "stats/stats.hh"

namespace pmodv::trace
{

/** Kinds of events the ring records. */
enum class EventKind : std::uint8_t
{
    KeyEviction = 0, ///< A victim domain lost its protection key.
    Shootdown = 1,   ///< A ranged TLB invalidation was issued.
    PtlbRefill = 2,  ///< A PTLB miss was refilled from the PT.
    DttlbRefill = 3, ///< A DTTLB miss was refilled from the DTT.
    /**
     * A workload operation completed (OpEnd). `arg` carries the op's
     * identity — workloads stamp the primary domain of the operation
     * into the OpBegin/OpEnd aux field — and `value` the op's duration
     * in cycles, so exporters can render labelled transaction spans
     * (trace::PerfettoExporter).
     */
    TxnCommit = 4,
    /**
     * A remote core answered a shootdown broadcast and invalidated
     * stale entries (multi-core replay only). `arg` is the responding
     * core id, `value` the number of pages it flushed; `tid` is the
     * thread whose eviction initiated the broadcast.
     */
    Ipi = 5,
};

/** Stable snake_case name of @p kind (used in JSON reports). */
const char *eventKindName(EventKind kind);

/** One recorded event. */
struct Event
{
    Cycles cycle = 0;   ///< Owner's cycle count when posted.
    std::uint64_t value = 0; ///< Kind-specific payload (pages, cycles).
    /**
     * Monotone 1-based sequence number assigned by the owning ring:
     * the id equals the ring's `recorded` count at post time, so an id
     * always resolves to exactly one posted event even after the ring
     * overwrote the slot. Identity, not payload — equality below
     * deliberately ignores it.
     */
    std::uint64_t id = 0;
    /**
     * Request id of the in-flight tracked op when the event was
     * posted (0 = no request open). Set by the owning System via
     * EventRing::setCurrentRequest(); the blame layer uses it to hang
     * causal event chains off slow requests.
     */
    std::uint64_t req = 0;
    std::uint32_t arg = 0;   ///< Kind-specific id (domain, key).
    ThreadId tid = 0;
    EventKind kind = EventKind::KeyEviction;

    bool
    operator==(const Event &o) const
    {
        // Payload equality only: id/req are bookkeeping identities
        // (monotone counters), not part of what two replays must agree
        // on record-for-record.
        return cycle == o.cycle && value == o.value && arg == o.arg &&
               tid == o.tid && kind == o.kind;
    }
};

/** The bounded, overwrite-oldest event ring. */
class EventRing : public stats::Group
{
  public:
    EventRing(stats::Group *parent, std::string name = "events",
              std::size_t capacity = 256);

    /**
     * Timestamps come from @p clock (not owned; typically the owning
     * System's cycle counter). Unbound rings stamp 0.
     */
    void bindClock(const Cycles *clock) { clock_ = clock; }

    /** Record one event, overwriting the oldest when full. */
    void post(EventKind kind, ThreadId tid, std::uint32_t arg = 0,
              std::uint64_t value = 0);

    /**
     * Tag every subsequently posted event with request id @p req
     * (0 clears the tag). The owning System brackets each tracked
     * op's window with this so in-window events carry their request.
     */
    void setCurrentRequest(std::uint64_t req) { curReq_ = req; }

    /** The id handed to the most recently posted event (0 if none). */
    std::uint64_t lastId() const { return nextId_; }

    std::size_t capacity() const { return ring_.size(); }
    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }

    /** The @p i-th buffered event, oldest first (i < size()). */
    const Event &at(std::size_t i) const { return ring_[slotOf(i)]; }

    /** The buffered events, oldest first. */
    std::vector<Event> snapshot() const;

    /** snapshot(), then empty the ring (stats are kept). */
    std::vector<Event> drain();

    stats::Scalar recorded; ///< Events posted (including overwritten).
    stats::Scalar dropped;  ///< Events overwritten before being read.

  private:
    /** Ring index of the @p i-th oldest slot (i < capacity()): one
     *  compare-and-wrap, since head_ + i < 2 * capacity(). */
    std::size_t slotOf(std::size_t i) const
    {
        const std::size_t j = head_ + i;
        return j < ring_.size() ? j : j - ring_.size();
    }

    std::vector<Event> ring_;
    std::size_t head_ = 0; ///< Index of the oldest buffered event.
    std::size_t count_ = 0;
    const Cycles *clock_ = nullptr;
    std::uint64_t nextId_ = 0; ///< Last assigned event id (1-based).
    std::uint64_t curReq_ = 0; ///< Request tag for posted events.
};

} // namespace pmodv::trace

#endif // PMODV_TRACE_EVENT_RING_HH
