#include "trace/trace_file.hh"

#include <cerrno>
#include <cstring>

#include <sys/mman.h>
#include <sys/stat.h>

#include "common/logging.hh"

namespace pmodv::trace
{

namespace
{

/**
 * Fold @p rec's bytes into FNV-1a @p hash. TraceRecord is trivially
 * copyable and padding-free (static_assert'ed to 24 bytes), so hashing
 * the object representation is deterministic.
 */
std::uint64_t
fnv1a(std::uint64_t hash, const TraceRecord &rec)
{
    const auto *p = reinterpret_cast<const unsigned char *>(&rec);
    for (std::size_t i = 0; i < sizeof(TraceRecord); ++i) {
        hash ^= p[i];
        hash *= kFnvPrime;
    }
    return hash;
}

/** The legacy v1 on-disk header. */
struct FileHeaderV1
{
    std::uint32_t magic;
    std::uint32_t version;
    std::uint64_t count;
};

static_assert(sizeof(FileHeaderV1) == kTraceHeaderBytesV1,
              "v1 trace header must stay 16 bytes");

/**
 * The v2 on-disk header. 128 bytes so the record body starts
 * 64-byte-aligned both on disk and in a page-aligned mmap. Embeds the
 * trace's full TraceSummary so `pmodv-trace info` and replay counters
 * never need to scan the body, and so view() can verify integrity.
 */
struct FileHeaderV2
{
    std::uint32_t magic;
    std::uint32_t version;
    std::uint64_t count;
    std::uint64_t checksum;
    std::uint64_t typeCounts[kNumRecordTypes];
    std::uint64_t instBlockInsts;
    std::uint64_t pmoAccesses;
    std::uint8_t pad[8];
};

static_assert(sizeof(FileHeaderV2) == kTraceHeaderBytesV2,
              "v2 trace header must stay 128 bytes");
static_assert(kTraceHeaderBytesV2 % kTraceBufferAlign == 0,
              "v2 record body must start cache-line aligned");

FileHeaderV2
makeHeader(const TraceSummary &summary, std::uint64_t checksum)
{
    FileHeaderV2 hdr{};
    hdr.magic = kTraceMagic;
    hdr.version = kTraceVersion;
    hdr.count = summary.totalRecords();
    hdr.checksum = checksum;
    for (std::size_t i = 0; i < kNumRecordTypes; ++i)
        hdr.typeCounts[i] = summary.counts[i];
    hdr.instBlockInsts = summary.instBlockInsts;
    hdr.pmoAccesses = summary.pmoAccesses;
    return hdr;
}

TraceSummary
summaryOfHeader(const FileHeaderV2 &hdr)
{
    TraceSummary summary;
    for (std::size_t i = 0; i < kNumRecordTypes; ++i)
        summary.counts[i] = hdr.typeCounts[i];
    summary.instBlockInsts = hdr.instBlockInsts;
    summary.pmoAccesses = hdr.pmoAccesses;
    return summary;
}

/** Size of the open file in bytes (fatal on stat failure). */
std::uint64_t
fileSize(std::FILE *file, const std::string &path)
{
    struct stat st{};
    fatal_if(::fstat(::fileno(file), &st) != 0,
             "cannot stat trace file '%s': %s", path.c_str(),
             std::strerror(errno));
    return static_cast<std::uint64_t>(st.st_size);
}

} // namespace

TraceFileWriter::TraceFileWriter(const std::string &path) : path_(path)
{
    file_ = std::fopen(path.c_str(), "wb");
    fatal_if(!file_, "cannot open trace file '%s' for writing",
             path.c_str());
    // Placeholder header; finish() rewrites it with the real counts
    // and checksum.
    FileHeaderV2 hdr{};
    hdr.magic = kTraceMagic;
    hdr.version = kTraceVersion;
    fatal_if(std::fwrite(&hdr, sizeof(hdr), 1, file_) != 1,
             "cannot write trace header to '%s'", path.c_str());
}

TraceFileWriter::~TraceFileWriter()
{
    if (!finished_)
        finish();
}

void
TraceFileWriter::put(const TraceRecord &rec)
{
    fatal_if(finished_, "put() after finish() on trace writer '%s'",
             path_.c_str());
    fatal_if(std::fwrite(&rec, sizeof(rec), 1, file_) != 1,
             "short write to trace file '%s': %s", path_.c_str(),
             std::strerror(errno));
    panic_if(!summary_.add(rec),
             "record %llu written to '%s' has unknown type %u",
             static_cast<unsigned long long>(summary_.totalRecords()),
             path_.c_str(), static_cast<unsigned>(rec.type));
    checksum_ = fnv1a(checksum_, rec);
}

void
TraceFileWriter::finish()
{
    if (finished_)
        return;
    finished_ = true;
    FileHeaderV2 hdr = makeHeader(summary_, checksum_);
    fatal_if(std::fseek(file_, 0, SEEK_SET) != 0,
             "cannot seek to trace header in '%s': %s", path_.c_str(),
             std::strerror(errno));
    fatal_if(std::fwrite(&hdr, sizeof(hdr), 1, file_) != 1,
             "cannot patch trace header in '%s': %s", path_.c_str(),
             std::strerror(errno));
    fatal_if(std::fflush(file_) != 0,
             "cannot flush trace file '%s': %s", path_.c_str(),
             std::strerror(errno));
    fatal_if(std::fclose(file_) != 0,
             "cannot close trace file '%s': %s", path_.c_str(),
             std::strerror(errno));
    file_ = nullptr;
}

TraceFileReader::TraceFileReader(const std::string &path) : path_(path)
{
    file_ = std::fopen(path.c_str(), "rb");
    fatal_if(!file_, "cannot open trace file '%s'", path.c_str());

    // Both formats share the first 16 bytes {magic, version, count}.
    FileHeaderV1 base{};
    fatal_if(std::fread(&base, sizeof(base), 1, file_) != 1,
             "cannot read trace header from '%s'", path.c_str());
    fatal_if(base.magic != kTraceMagic,
             "'%s' is not a pmodv trace file (bad magic)", path.c_str());

    version_ = base.version;
    count_ = base.count;
    if (version_ == kTraceVersion) {
        headerBytes_ = kTraceHeaderBytesV2;
        FileHeaderV2 hdr{};
        std::memcpy(&hdr, &base, sizeof(base));
        fatal_if(std::fread(reinterpret_cast<char *>(&hdr) + sizeof(base),
                            sizeof(hdr) - sizeof(base), 1, file_) != 1,
                 "truncated v2 trace header in '%s'", path.c_str());
        headerSummary_ = summaryOfHeader(hdr);
        headerChecksum_ = hdr.checksum;
        fatal_if(headerSummary_.totalRecords() != count_,
                 "corrupt trace header in '%s': record count %llu "
                 "disagrees with per-type counts (%llu)",
                 path.c_str(),
                 static_cast<unsigned long long>(count_),
                 static_cast<unsigned long long>(
                     headerSummary_.totalRecords()));
    } else if (version_ == kTraceVersionLegacy) {
        headerBytes_ = kTraceHeaderBytesV1;
    } else {
        fatal("trace file '%s' has unsupported version %u", path.c_str(),
              version_);
    }

    // Compare record counts, not byte sizes: a crafted count's byte
    // size can wrap u64 and pass a size comparison.
    const std::uint64_t have = fileSize(file_, path_);
    fatal_if(have < headerBytes_ ||
                 count_ > (have - headerBytes_) / sizeof(TraceRecord),
             "truncated trace file '%s': header promises %llu records "
             "but only %llu bytes are present",
             path.c_str(), static_cast<unsigned long long>(count_),
             static_cast<unsigned long long>(have));
}

TraceFileReader::~TraceFileReader()
{
    if (file_)
        std::fclose(file_);
}

void
TraceFileReader::unknownType(std::size_t index, RecordType type) const
{
    fatal("trace file '%s' is corrupt: record %zu has unknown type %u",
          path_.c_str(), index, static_cast<unsigned>(type));
}

std::shared_ptr<const TraceBuffer>
TraceFileReader::loadIntoStore()
{
    // Decode-on-load: fread the body straight into a RecordStore.
    // Used for v1 files and as the fallback when mmap fails.
    RecordStore store;
    if (count_ != 0) {
        fatal_if(std::fseek(file_, static_cast<long>(headerBytes_),
                            SEEK_SET) != 0,
                 "cannot seek in trace file '%s'", path_.c_str());
        const std::size_t kept =
            store.appendInPlace(count_, [&](TraceRecord *dst) {
                fatal_if(std::fread(dst, sizeof(TraceRecord), count_,
                                    file_) != count_,
                         "truncated trace file '%s'", path_.c_str());
            });
        if (kept != count_)
            unknownType(kept, store.data()[kept].type);
        fatal_if(std::fseek(file_,
                            static_cast<long>(
                                headerBytes_ +
                                readSoFar_ * sizeof(TraceRecord)),
                            SEEK_SET) != 0,
                 "cannot seek in trace file '%s'", path_.c_str());
    }
    return TraceBuffer::fromRecords(std::move(store));
}

std::shared_ptr<const TraceBuffer>
TraceFileReader::view()
{
    std::shared_ptr<const TraceBuffer> buf;
    if (version_ == kTraceVersion) {
        const std::size_t map_bytes =
            headerBytes_ + count_ * sizeof(TraceRecord);
        void *map = ::mmap(nullptr, map_bytes, PROT_READ, MAP_PRIVATE,
                           ::fileno(file_), 0);
        if (map != MAP_FAILED) {
            const auto *records = reinterpret_cast<const TraceRecord *>(
                static_cast<const char *>(map) + headerBytes_);
            buf = TraceBuffer::adoptMapping(map, map_bytes, records,
                                            count_, headerSummary_);
        }
    }
    if (!buf)
        buf = loadIntoStore();
    // Check the body before anyone replays from it: every record type
    // is known and every domain lies below kMaxDomains. For v2 files a
    // full recompute also verifies the body against the header,
    // covering the RecordStore fallback too.
    TraceSummary actual;
    std::uint64_t checksum = kFnvOffsetBasis;
    const auto body = buf->records();
    for (std::size_t i = 0; i < body.size(); ++i) {
        const TraceRecord &rec = body[i];
        if (!actual.add(rec))
            unknownType(i, rec.type);
        fatal_if(rec.namesDomain() && rec.aux >= kMaxDomains,
                 "trace file '%s' is corrupt: record %zu names domain "
                 "%u, beyond the bound of %u domains",
                 path_.c_str(), i, rec.aux, kMaxDomains);
        checksum = fnv1a(checksum, rec);
    }
    if (version_ != kTraceVersion)
        return buf;
    fatal_if(checksum != headerChecksum_,
             "trace file '%s' failed checksum verification "
             "(header %016llx, body %016llx)",
             path_.c_str(),
             static_cast<unsigned long long>(headerChecksum_),
             static_cast<unsigned long long>(checksum));
    fatal_if(!actual.matches(headerSummary_),
             "trace file '%s' is corrupt: body statistics disagree "
             "with the header summary", path_.c_str());
    return buf;
}

bool
TraceFileReader::next(TraceRecord &rec)
{
    if (readSoFar_ >= count_)
        return false;
    if (std::fread(&rec, sizeof(rec), 1, file_) != 1)
        return false;
    ++readSoFar_;
    return true;
}

} // namespace pmodv::trace
