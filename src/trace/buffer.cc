#include "trace/buffer.hh"

#include <cerrno>
#include <cstring>
#include <utility>

#include <sys/mman.h>

#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

namespace pmodv::trace
{

namespace
{

/** A RecordStore's first mapping; it doubles from here. */
constexpr std::size_t kInitialStoreBytes = std::size_t{2} << 20;

#if defined(__SANITIZE_THREAD__)
/**
 * The sync object that orders every store's growth under TSan. The
 * gcc-12 TSan runtime does not intercept mremap, so a mapping that
 * mremap moves onto a range another thread's mremap just vacated
 * keeps that thread's shadow, and the first write to it reads as a
 * race. Releasing before the map call and acquiring after it orders
 * the growth events of all stores. It only orders the growth of
 * stores that each have a single owner; it does not make one store
 * safe to share between threads.
 */
char growthSync;
#endif

} // namespace

std::uint64_t
TraceSummary::totalRecords() const
{
    std::uint64_t total = 0;
    for (std::uint64_t c : counts)
        total += c;
    return total;
}

bool
TraceSummary::matches(const TraceSummary &other) const
{
    if (instBlockInsts != other.instBlockInsts ||
        pmoAccesses != other.pmoAccesses)
        return false;
    for (std::size_t i = 0; i < kNumRecordTypes; ++i) {
        if (counts[i] != other.counts[i])
            return false;
    }
    return true;
}

RecordStore::~RecordStore()
{
    if (records_)
        ::munmap(records_, mapBytes_);
}

RecordStore::RecordStore(RecordStore &&other) noexcept
{
    *this = std::move(other);
}

RecordStore &
RecordStore::operator=(RecordStore &&other) noexcept
{
    if (this != &other) {
        if (records_)
            ::munmap(records_, mapBytes_);
        records_ = std::exchange(other.records_, nullptr);
        count_ = std::exchange(other.count_, 0);
        capacity_ = std::exchange(other.capacity_, 0);
        mapBytes_ = std::exchange(other.mapBytes_, 0);
        summary_ = std::exchange(other.summary_, {});
    }
    return *this;
}

void
RecordStore::makeRoom(std::size_t n)
{
    if (capacity_ - count_ >= n)
        return;
    std::size_t bytes = mapBytes_ ? mapBytes_ : kInitialStoreBytes;
    while (bytes / sizeof(TraceRecord) - count_ < n)
        bytes *= 2;
#if defined(__SANITIZE_THREAD__)
    __tsan_release(&growthSync);
#endif
    void *map = records_
        ? ::mremap(records_, mapBytes_, bytes, MREMAP_MAYMOVE)
        : ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
#if defined(__SANITIZE_THREAD__)
    __tsan_acquire(&growthSync);
#endif
    fatal_if(map == MAP_FAILED,
             "cannot grow the trace record store to %zu bytes: %s", bytes,
             std::strerror(errno));
    // A hint, not a knob: huge pages cut the page faults of writing a
    // large capture, and a kernel without them just ignores it.
    ::madvise(map, bytes, MADV_HUGEPAGE);
    records_ = static_cast<TraceRecord *>(map);
    mapBytes_ = bytes;
    capacity_ = bytes / sizeof(TraceRecord);
}

TraceBuffer::~TraceBuffer()
{
    if (records_)
        ::munmap(records_, mapBytes_);
}

std::shared_ptr<const TraceBuffer>
TraceBuffer::copyOf(std::span<const TraceRecord> records)
{
    RecordStore store;
    const std::size_t kept = store.appendInPlace(
        records.size(), [&](TraceRecord *dst) {
            if (!records.empty())
                std::memcpy(dst, records.data(), records.size_bytes());
        });
    panic_if(kept != records.size(),
             "record %zu copied into a trace buffer has unknown type %u",
             kept, static_cast<unsigned>(records[kept].type));
    return fromRecords(std::move(store));
}

std::shared_ptr<const TraceBuffer>
TraceBuffer::fromRecords(RecordStore records)
{
    auto buf = std::shared_ptr<TraceBuffer>(new TraceBuffer);
    buf->records_ = std::exchange(records.records_, nullptr);
    buf->mapBytes_ = records.mapBytes_;
    buf->count_ = records.count_;
    buf->summary_ = records.summary_;
    return buf;
}

} // namespace pmodv::trace
