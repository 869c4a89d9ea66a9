#include "trace/trace_file.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "common/logging.hh"

namespace pmodv::trace
{

namespace
{

/**
 * A record as it sits on disk, in both formats: the 24-byte layout
 * with the second payload word spelled out. Only Attach (byte size)
 * and arrival-stamped OpBegin (latency class) use @c value; every
 * other type writes 0 there. In memory a TraceRecord packs these two
 * payloads into 16 bytes, so encode() widens on the way out and
 * decode() narrows, checks and rejects on the way in.
 */
struct FileRecord
{
    RecordType type;
    std::uint8_t flags;
    std::uint16_t tid;
    std::uint32_t aux;
    std::uint64_t addr;
    std::uint64_t value;
};

static_assert(sizeof(FileRecord) == kTraceFileRecordBytes,
              "on-disk trace records must stay 24 bytes");

/** @p rec in its on-disk layout. */
FileRecord
encode(const TraceRecord &rec)
{
    if (rec.type == RecordType::Attach)
        return {rec.type, rec.flags, rec.tid, rec.aux, rec.attachBase(),
                rec.attachSize()};
    if (rec.hasArrival())
        return {rec.type, rec.flags, rec.tid, rec.aux, rec.arrival(),
                rec.opClass()};
    return {rec.type, rec.flags, rec.tid, rec.aux, rec.addr, 0};
}

/**
 * Record @p index of trace file @p path, narrowed to a TraceRecord.
 * fatal() on a record of unknown type, one naming a domain at or
 * above kMaxDomains, a Wrpkru of a key at or above kNumProtKeys, one
 * whose payload a 16-byte record cannot hold
 * (see TraceRecord), and an Attach of a domain that is still
 * attached. @p attached holds, per domain, whether the records before
 * this one left it attached; an Attach sets its bit and a Detach
 * clears it. A Detach of a domain that is not attached passes.
 */
TraceRecord
decode(const FileRecord &f, const std::string &path, std::uint64_t index,
       std::vector<bool> &attached)
{
    const auto idx = static_cast<unsigned long long>(index);
    fatal_if(static_cast<std::size_t>(f.type) >= kNumRecordTypes,
             "trace file '%s' is corrupt: record %llu has unknown type %u",
             path.c_str(), idx, static_cast<unsigned>(f.type));
    TraceRecord rec{f.type, f.flags, f.tid, f.aux, f.addr};
    fatal_if(rec.namesDomain() && rec.aux >= kMaxDomains,
             "trace file '%s' is corrupt: record %llu names domain %u, "
             "beyond the bound of %u domains",
             path.c_str(), idx, rec.aux, kMaxDomains);
    fatal_if(rec.type == RecordType::Wrpkru && rec.aux >= kNumProtKeys,
             "trace file '%s' is corrupt: record %llu writes PKRU key "
             "%u, beyond the %u protection keys",
             path.c_str(), idx, rec.aux, kNumProtKeys);
    const char *why = nullptr;
    if (rec.type == RecordType::Attach) {
        why = attachUnencodable(f.addr, f.value);
        if (!why)
            rec = TraceRecord::attach(f.tid, f.aux, f.addr, f.value,
                                      Perm::None);
    } else if (rec.hasArrival()) {
        why = arrivalUnencodable(f.addr, f.value);
        if (!why)
            rec = TraceRecord::opBeginAt(f.tid, f.aux, f.addr,
                                         static_cast<std::uint32_t>(
                                             f.value));
    } else if (f.value != 0) {
        why = "its type carries no value word, but the word is not 0";
    }
    fatal_if(why,
             "trace file '%s' is corrupt: record %llu (%s, addr %#llx, "
             "value %#llx) does not fit a 16-byte record: %s",
             path.c_str(), idx, recordTypeName(f.type).c_str(),
             static_cast<unsigned long long>(f.addr),
             static_cast<unsigned long long>(f.value), why);
    if (rec.type == RecordType::Attach) {
        if (rec.aux >= attached.size())
            attached.resize(rec.aux + 1);
        fatal_if(attached[rec.aux],
                 "trace file '%s' is corrupt: record %llu attaches "
                 "domain %u, which is already attached",
                 path.c_str(), idx, rec.aux);
        attached[rec.aux] = true;
    } else if (rec.type == RecordType::Detach &&
               rec.aux < attached.size()) {
        attached[rec.aux] = false;
    }
    rec.flags = f.flags;
    return rec;
}

/**
 * Fold @p rec's bytes into FNV-1a @p hash. FileRecord is trivially
 * copyable and padding-free (static_assert'ed to 24 bytes), so hashing
 * the object representation is deterministic.
 */
std::uint64_t
fnv1a(std::uint64_t hash, const FileRecord &rec)
{
    const auto *p = reinterpret_cast<const unsigned char *>(&rec);
    for (std::size_t i = 0; i < sizeof(FileRecord); ++i) {
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
    panic_if(!summary_.add(rec),
             "record %llu written to '%s' has unknown type %u",
             static_cast<unsigned long long>(summary_.totalRecords()),
             path_.c_str(), static_cast<unsigned>(rec.type));
    const FileRecord f = encode(rec);
    fatal_if(std::fwrite(&f, sizeof(f), 1, file_) != 1,
             "short write to trace file '%s': %s", path_.c_str(),
             std::strerror(errno));
    checksum_ = fnv1a(checksum_, f);
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
                 count_ > (have - headerBytes_) / sizeof(FileRecord),
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

std::shared_ptr<const TraceBuffer>
TraceFileReader::view()
{
    // One pass over the body, v1 and v2 alike: every record is
    // checked and narrowed into the store, which folds the summary,
    // while the checksum folds the bytes as they sit on disk. pread
    // leaves the next() cursor where it is.
    constexpr std::uint64_t kChunkRecords = 4096;
    std::vector<FileRecord> chunk(std::min(count_, kChunkRecords));
    RecordStore store;
    std::uint64_t checksum = kFnvOffsetBasis;
    std::vector<bool> attached;
    for (std::uint64_t done = 0; done < count_;) {
        const std::uint64_t n = std::min(count_ - done, kChunkRecords);
        const std::size_t bytes = n * sizeof(FileRecord);
        const auto offset =
            static_cast<off_t>(headerBytes_ + done * sizeof(FileRecord));
        fatal_if(::pread(::fileno(file_), chunk.data(), bytes, offset) !=
                     static_cast<ssize_t>(bytes),
                 "cannot read the body of trace file '%s'",
                 path_.c_str());
        for (std::uint64_t i = 0; i < n; ++i) {
            checksum = fnv1a(checksum, chunk[i]);
            store.push(decode(chunk[i], path_, done + i, attached));
        }
        done += n;
    }
    verifyBody(checksum, store.summary());
    return TraceBuffer::fromRecords(std::move(store));
}

bool
TraceFileReader::next(TraceRecord &rec)
{
    if (readSoFar_ >= count_) {
        verifyBody(streamChecksum_, streamSummary_);
        return false;
    }
    FileRecord f;
    fatal_if(std::fread(&f, sizeof(f), 1, file_) != 1,
             "cannot read record %llu of trace file '%s'",
             static_cast<unsigned long long>(readSoFar_), path_.c_str());
    streamChecksum_ = fnv1a(streamChecksum_, f);
    rec = decode(f, path_, readSoFar_++, streamAttached_);
    // decode() has rejected unknown types, so add() cannot fail.
    (void)streamSummary_.add(rec);
    return true;
}

void
TraceFileReader::verifyBody(std::uint64_t checksum,
                            const TraceSummary &summary) const
{
    if (version_ != kTraceVersion)
        return;
    fatal_if(checksum != headerChecksum_,
             "trace file '%s' failed checksum verification "
             "(header %016llx, body %016llx)",
             path_.c_str(), static_cast<unsigned long long>(headerChecksum_),
             static_cast<unsigned long long>(checksum));
    fatal_if(!summary.matches(headerSummary_),
             "trace file '%s' is corrupt: body statistics disagree "
             "with the header summary", path_.c_str());
}

} // namespace pmodv::trace
