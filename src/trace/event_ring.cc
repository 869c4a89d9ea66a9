#include "trace/event_ring.hh"

#include "common/logging.hh"

namespace pmodv::trace
{

const char *
eventKindName(EventKind kind)
{
    switch (kind) {
      case EventKind::KeyEviction:
        return "key_eviction";
      case EventKind::Shootdown:
        return "shootdown";
      case EventKind::PtlbRefill:
        return "ptlb_refill";
      case EventKind::DttlbRefill:
        return "dttlb_refill";
      case EventKind::TxnCommit:
        return "txn_commit";
      case EventKind::Ipi:
        return "ipi";
    }
    return "unknown";
}

EventRing::EventRing(stats::Group *parent, std::string name,
                     std::size_t capacity)
    : stats::Group(parent, std::move(name)),
      recorded(this, "recorded"),
      dropped(this, "dropped"),
      ring_(capacity)
{
    fatal_if(capacity == 0, "event ring needs a non-zero capacity");
}

void
EventRing::post(EventKind kind, ThreadId tid, std::uint32_t arg,
                std::uint64_t value)
{
    Event ev;
    ev.cycle = clock_ ? *clock_ : 0;
    ev.value = value;
    ev.id = ++nextId_;
    ev.req = curReq_;
    ev.arg = arg;
    ev.tid = tid;
    ev.kind = kind;

    ++recorded;
    if (count_ == ring_.size()) {
        // Full: overwrite the oldest slot and advance the head.
        ring_[head_] = ev;
        head_ = slotOf(1);
        ++dropped;
        return;
    }
    ring_[slotOf(count_)] = ev;
    ++count_;
}

std::vector<Event>
EventRing::snapshot() const
{
    std::vector<Event> out;
    out.reserve(count_);
    for (std::size_t i = 0; i < count_; ++i)
        out.push_back(at(i));
    return out;
}

std::vector<Event>
EventRing::drain()
{
    std::vector<Event> out = snapshot();
    head_ = 0;
    count_ = 0;
    return out;
}

} // namespace pmodv::trace
