/**
 * @file
 * Unit tests for the trace substrate: records, sinks, the capture
 * RecordStore, the immutable TraceBuffer and v1/v2 file I/O
 * (round-trips, zero-copy views, backward compatibility and
 * corruption detection).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "trace/buffer.hh"
#include "trace/record.hh"
#include "trace/sinks.hh"
#include "trace/trace_file.hh"

namespace pmodv::trace
{
namespace
{

TEST(Record, SizeIsStable)
{
    EXPECT_EQ(sizeof(TraceRecord), 16u);
}

TEST(Record, LoadStoreBuilders)
{
    auto ld = TraceRecord::load(3, 0x1000, 8, true);
    EXPECT_EQ(ld.type, RecordType::Load);
    EXPECT_EQ(ld.tid, 3);
    EXPECT_EQ(ld.addr, 0x1000u);
    EXPECT_EQ(ld.aux, 8u);
    EXPECT_TRUE(ld.isPmoAccess());
    EXPECT_TRUE(ld.isMemAccess());

    auto st = TraceRecord::store(1, 0x2000, 64, false);
    EXPECT_EQ(st.type, RecordType::Store);
    EXPECT_FALSE(st.isPmoAccess());
    EXPECT_TRUE(st.isMemAccess());
}

TEST(Record, PermFlagsRoundTrip)
{
    for (Perm p :
         {Perm::None, Perm::Read, Perm::Write, Perm::ReadWrite}) {
        auto rec = TraceRecord::setPerm(0, 7, p);
        EXPECT_EQ(rec.perm(), p);
        EXPECT_EQ(rec.aux, 7u);
    }
}

TEST(Record, AttachPageSizeRoundTrip)
{
    for (PageSize ps : {PageSize::Size4K, PageSize::Size2M,
                        PageSize::Size1G}) {
        auto rec = TraceRecord::attach(0, 3, Addr{1} << 30,
                                       Addr{1} << 21, Perm::Read, ps);
        EXPECT_EQ(rec.pageSize(), ps);
        EXPECT_EQ(rec.perm(), Perm::Read); // Flags coexist.
    }
    // Default is 4KB.
    EXPECT_EQ(TraceRecord::attach(0, 1, 0x1000, 0x1000,
                                  Perm::ReadWrite)
                  .pageSize(),
              PageSize::Size4K);
}

TEST(Record, AttachCarriesGeometry)
{
    auto rec = TraceRecord::attach(2, 9, 0x10000, 0x8000, Perm::Read);
    EXPECT_EQ(rec.type, RecordType::Attach);
    EXPECT_EQ(rec.aux, 9u);
    EXPECT_EQ(rec.attachBase(), 0x10000u);
    EXPECT_EQ(rec.attachSize(), 0x8000u);
    EXPECT_EQ(rec.perm(), Perm::Read);
}

TEST(Record, PackedPayloadsHoldTheirLimits)
{
    // The largest attach the packing holds: a base just below 2^48
    // with the size reaching it exactly, and a size of 2^28 - 1 pages
    // (every bit of both size fields set).
    const Addr top = kAttachVaLimit - 4096;
    auto last_page = TraceRecord::attach(0, 1, top, 4096, Perm::Read);
    EXPECT_EQ(last_page.attachBase(), top);
    EXPECT_EQ(last_page.attachSize(), 4096u);
    const Addr huge = kAttachSizeLimit - 4096;
    auto widest = TraceRecord::attach(0, 1, 0x1000, huge, Perm::Read);
    EXPECT_EQ(widest.attachBase(), 0x1000u);
    EXPECT_EQ(widest.attachSize(), huge);
    auto smallest = TraceRecord::attach(0, 1, 0x2000, 4096, Perm::Read);
    EXPECT_EQ(smallest.attachBase(), 0x2000u);
    EXPECT_EQ(smallest.attachSize(), 4096u);

    auto stamped = TraceRecord::opBeginAt(1, 7, kArrivalLimit - 1, 255);
    EXPECT_TRUE(stamped.hasArrival());
    EXPECT_EQ(stamped.aux, 7u);
    EXPECT_EQ(stamped.arrival(), kArrivalLimit - 1);
    EXPECT_EQ(stamped.opClass(), 255u);
    auto zero = TraceRecord::opBeginAt(1, 7, 0, 0);
    EXPECT_EQ(zero.arrival(), 0u);
    EXPECT_EQ(zero.opClass(), 0u);
}

TEST(RecordDeathTest, FactoriesRejectWhatThePackingCannotHold)
{
    EXPECT_DEATH(TraceRecord::attach(0, 1, 0x1001, 4096, Perm::Read),
                 "base is not 4 KB aligned");
    EXPECT_DEATH(TraceRecord::attach(0, 1, 0x1000, 100, Perm::Read),
                 "not a multiple of 4 KB");
    EXPECT_DEATH(TraceRecord::attach(0, 1, 0x1000, kAttachSizeLimit,
                                     Perm::Read),
                 "not below 1 TB");
    EXPECT_DEATH(TraceRecord::attach(0, 1, kAttachVaLimit - 4096, 8192,
                                     Perm::Read),
                 "past 2\\^48");
    EXPECT_DEATH(TraceRecord::attach(0, 1, kAttachVaLimit, 0, Perm::Read),
                 "past 2\\^48");
    EXPECT_DEATH(TraceRecord::attach(0, 1, 0x10000000, 0, Perm::Read),
                 "size is 0");
    EXPECT_DEATH(TraceRecord::opBeginAt(0, 1, kArrivalLimit, 0),
                 "arrival is not below 2\\^56");
    EXPECT_DEATH(TraceRecord::opBeginAt(0, 1, 0, 256),
                 "class is above 255");
}

TEST(Record, ToStringMentionsFields)
{
    auto rec = TraceRecord::setPerm(1, 42, Perm::ReadWrite);
    const std::string s = toString(rec);
    EXPECT_NE(s.find("setperm"), std::string::npos);
    EXPECT_NE(s.find("42"), std::string::npos);
    EXPECT_NE(s.find("RW"), std::string::npos);
}

TEST(Record, TypeNamesDistinct)
{
    EXPECT_EQ(recordTypeName(RecordType::Load), "load");
    EXPECT_EQ(recordTypeName(RecordType::ThreadSwitch),
              "thread_switch");
    EXPECT_NE(recordTypeName(RecordType::OpBegin),
              recordTypeName(RecordType::OpEnd));
}

TEST(VectorSink, BuffersInOrder)
{
    VectorSink sink;
    sink.put(TraceRecord::instBlock(0, 10));
    sink.put(TraceRecord::load(0, 0x100, 8, false));
    ASSERT_EQ(sink.records().size(), 2u);
    EXPECT_EQ(sink.records()[0].type, RecordType::InstBlock);
    EXPECT_EQ(sink.records()[1].type, RecordType::Load);
    auto taken = sink.take();
    EXPECT_EQ(taken.size(), 2u);
}

TEST(VectorSink, TakeLeavesSinkEmptyAndReusable)
{
    VectorSink sink;
    sink.put(TraceRecord::opBegin(0));
    const RecordStore first = sink.take();
    EXPECT_TRUE(sink.records().empty());
    EXPECT_EQ(sink.take().summary().totalRecords(), 0u);

    sink.put(TraceRecord::load(0, 0x40, 8, true));
    const RecordStore second = sink.take();
    ASSERT_EQ(second.size(), 1u);
    EXPECT_EQ(second[0].type, RecordType::Load);
    EXPECT_EQ(second.summary().totalRecords(), 1u);
    EXPECT_EQ(second.summary().pmoAccesses, 1u);
    ASSERT_EQ(first.size(), 1u); // The first hand-over is untouched.
    EXPECT_EQ(first[0].type, RecordType::OpBegin);
}

/** Record @p i of a type-diverse synthetic stream. */
TraceRecord
syntheticRecord(std::uint64_t i)
{
    switch (i % 4) {
      case 0:
        return TraceRecord::instBlock(0, static_cast<std::uint32_t>(i));
      case 1:
        return TraceRecord::load(1, i * 8, 8, i % 3 == 0);
      case 2:
        return TraceRecord::store(2, i * 8, 8, true);
      default:
        return TraceRecord::setPerm(3, static_cast<std::uint32_t>(i),
                                    Perm::Read);
    }
}

TEST(RecordStore, GrowthAcrossRemapsKeepsEveryRecordAndCount)
{
    // 600k records are 9.6 MB: the 2 MB first mapping is remapped to
    // 4, 8 and 16 MB on the way.
    constexpr std::uint64_t kRecords = 600'000;
    static_assert(kRecords * sizeof(TraceRecord) > (std::size_t{8} << 20));
    RecordStore store;
    TraceSummary expected;
    for (std::uint64_t i = 0; i < kRecords; ++i) {
        const TraceRecord rec = syntheticRecord(i);
        store.push(rec);
        ASSERT_TRUE(expected.add(rec));
    }
    ASSERT_EQ(store.size(), kRecords);
    for (std::uint64_t i = 0; i < kRecords; ++i)
        ASSERT_EQ(store[i], syntheticRecord(i)) << "record " << i;
    EXPECT_TRUE(store.summary().matches(expected));
    EXPECT_EQ(store.summary().count(RecordType::Load), kRecords / 4);
    EXPECT_EQ(std::distance(store.begin(), store.end()),
              static_cast<std::ptrdiff_t>(kRecords));
}

TEST(RecordStore, UnknownTypeIsABug)
{
    TraceRecord rec = TraceRecord::opBegin(0);
    rec.type = static_cast<RecordType>(0xff);
    EXPECT_DEATH(
        {
            RecordStore store;
            store.push(rec);
        },
        "unknown type 255");
}

TEST(TraceSummary, CountsByType)
{
    VectorSink sink;
    sink.put(TraceRecord::instBlock(0, 100));
    sink.put(TraceRecord::load(0, 0x1, 8, true));
    sink.put(TraceRecord::store(0, 0x2, 8, false));
    sink.put(TraceRecord::setPerm(0, 1, Perm::Read));
    sink.put(TraceRecord::wrpkru(0, 1, Perm::Read));
    sink.put(TraceRecord::opBegin(0));
    sink.put(TraceRecord::opEnd(0));
    const RecordStore store = sink.take();
    const TraceSummary &summary = store.summary();

    EXPECT_EQ(summary.memAccesses(), 2u);
    EXPECT_EQ(summary.pmoAccesses, 1u);
    EXPECT_EQ(summary.permissionSwitches(), 2u);
    EXPECT_EQ(summary.operations(), 1u);
    // 100 block insts + 2 mem + 2 switches.
    EXPECT_EQ(summary.totalInstructions(), 104u);
    EXPECT_EQ(TraceSummary{}.totalInstructions(), 0u);
}

TEST(TraceBuffer, CopyIsAlignedAndSummarized)
{
    std::vector<TraceRecord> records{
        TraceRecord::instBlock(0, 50),
        TraceRecord::load(0, 0x1000, 8, true),
        TraceRecord::store(0, 0x2000, 8, false),
    };
    const auto buf = TraceBuffer::copyOf(records);
    ASSERT_EQ(buf->size(), records.size());
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf->data()) %
                  kTraceBufferAlign,
              0u);
    EXPECT_TRUE(std::ranges::equal(buf->records(), records));
    const TraceSummary &s = buf->summary();
    EXPECT_EQ(s.totalRecords(), 3u);
    EXPECT_EQ(s.count(RecordType::InstBlock), 1u);
    EXPECT_EQ(s.count(RecordType::Load), 1u);
    EXPECT_EQ(s.count(RecordType::Store), 1u);
    EXPECT_EQ(s.instBlockInsts, 50u);
    EXPECT_EQ(s.pmoAccesses, 1u);
}

TEST(TraceBuffer, EmptyBufferIsValid)
{
    const auto buf = TraceBuffer::fromRecords({});
    EXPECT_TRUE(buf->empty());
    EXPECT_EQ(buf->summary().totalRecords(), 0u);
}

TEST(TraceBuffer, EmptyStoreAdoptsCleanly)
{
    VectorSink sink;
    const auto buf = TraceBuffer::fromRecords(sink.take());
    EXPECT_TRUE(buf->empty());
    EXPECT_TRUE(buf->records().empty());
    EXPECT_EQ(buf->summary().totalRecords(), 0u);
}

TEST(TraceBuffer, FromRecordsAdoptsTheCaptureWithoutACopy)
{
    VectorSink sink;
    for (std::uint64_t i = 0; i < 100'000; ++i)
        sink.put(syntheticRecord(i));
    const TraceRecord *captured = sink.records().data();
    TraceSummary expected;
    for (const TraceRecord &rec : sink.records())
        ASSERT_TRUE(expected.add(rec));

    const auto buf = TraceBuffer::fromRecords(sink.take());
    // Same address: the buffer owns the very pages the capture wrote,
    // and its counts are the ones folded in during capture.
    EXPECT_EQ(buf->data(), captured);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf->data()) %
                  kTraceBufferAlign,
              0u);
    ASSERT_EQ(buf->size(), 100'000u);
    EXPECT_EQ(buf->records()[99'999], syntheticRecord(99'999));
    EXPECT_TRUE(buf->summary().matches(expected));
}

/**
 * A record in the 24-byte on-disk layout of both file formats, spelled
 * out here so these tests pin the format independently of the file
 * layer's own copy.
 */
struct DiskRecord
{
    RecordType type;
    std::uint8_t flags;
    std::uint16_t tid;
    std::uint32_t aux;
    std::uint64_t addr;
    std::uint64_t value;
};

static_assert(sizeof(DiskRecord) == kTraceFileRecordBytes);

/** @p rec as a trace file holds it: both payload words unpacked. */
DiskRecord
onDisk(const TraceRecord &rec)
{
    DiskRecord d{rec.type, rec.flags, rec.tid, rec.aux, rec.addr, 0};
    if (rec.type == RecordType::Attach) {
        d.addr = rec.attachBase();
        d.value = rec.attachSize();
    } else if (rec.hasArrival()) {
        d.addr = rec.arrival();
        d.value = rec.opClass();
    }
    return d;
}

/** FNV-1a 64 over @p n bytes, from its published constants. */
std::uint64_t
fnv1aOf(const void *data, std::size_t n,
        std::uint64_t hash = 0xcbf29ce484222325ull)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ull;
    }
    return hash;
}

class TraceFileTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        path_ = std::filesystem::temp_directory_path() /
                ("pmodv_trace_test_" +
                 std::to_string(::getpid()) + ".trc");
    }

    void TearDown() override { std::filesystem::remove(path_); }

    /** A small but type-diverse record sequence. */
    static std::vector<TraceRecord>
    sampleRecords()
    {
        return {
            TraceRecord::attach(0, 1, 0x10000, 0x4000,
                                Perm::ReadWrite),
            TraceRecord::setPerm(0, 1, Perm::ReadWrite),
            TraceRecord::load(0, 0x10010, 8, true),
            TraceRecord::store(0, 0x10018, 64, true),
            TraceRecord::instBlock(0, 999),
            TraceRecord::detach(0, 1),
        };
    }

    /** Write @p records as a version-1 file (16-byte header). */
    void
    writeV1Disk(const std::vector<DiskRecord> &records)
    {
        std::FILE *f = std::fopen(path_.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        const std::uint32_t magic = kTraceMagic;
        const std::uint32_t version = kTraceVersionLegacy;
        const std::uint64_t count = records.size();
        std::fwrite(&magic, sizeof(magic), 1, f);
        std::fwrite(&version, sizeof(version), 1, f);
        std::fwrite(&count, sizeof(count), 1, f);
        std::fwrite(records.data(), sizeof(DiskRecord), records.size(),
                    f);
        std::fclose(f);
    }

    void
    writeV1(const std::vector<TraceRecord> &records)
    {
        std::vector<DiskRecord> disk;
        for (const TraceRecord &rec : records)
            disk.push_back(onDisk(rec));
        writeV1Disk(disk);
    }

    /**
     * Write @p records as a version-2 file, then overwrite record
     * @p index with @p bad and patch the header checksum to match, so
     * @p bad is the file's only fault.
     */
    void
    writeV2With(const std::vector<TraceRecord> &records,
                std::size_t index, const DiskRecord &bad)
    {
        {
            TraceFileWriter writer(path_.string());
            for (const TraceRecord &rec : records)
                writer.put(rec);
        }
        std::vector<DiskRecord> body(records.size());
        std::FILE *f = std::fopen(path_.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        std::fseek(f, kTraceHeaderBytesV2, SEEK_SET);
        ASSERT_EQ(std::fread(body.data(), sizeof(DiskRecord), body.size(),
                             f),
                  body.size());
        body[index] = bad;
        const std::uint64_t checksum =
            fnv1aOf(body.data(), body.size() * sizeof(DiskRecord));
        std::fseek(f, kTraceHeaderBytesV2, SEEK_SET);
        std::fwrite(body.data(), sizeof(DiskRecord), body.size(), f);
        // Layout: magic+version (8) + count (8), then the checksum.
        std::fseek(f, 16, SEEK_SET);
        std::fwrite(&checksum, sizeof(checksum), 1, f);
        std::fclose(f);
    }

    std::filesystem::path path_;
};

TEST_F(TraceFileTest, RoundTripThroughView)
{
    const auto records = sampleRecords();
    {
        TraceFileWriter writer(path_.string());
        for (const auto &rec : records)
            writer.put(rec);
        writer.finish();
        EXPECT_EQ(writer.recordsWritten(), records.size());
    }
    TraceFileReader reader(path_.string());
    EXPECT_EQ(reader.version(), kTraceVersion);
    EXPECT_EQ(reader.recordCount(), records.size());
    ASSERT_NE(reader.headerSummary(), nullptr);
    const auto buf = reader.view();
    ASSERT_EQ(buf->size(), records.size());
    EXPECT_TRUE(std::equal(records.begin(), records.end(),
                           buf->records().begin()));
    EXPECT_TRUE(buf->summary().matches(*reader.headerSummary()));
}

TEST_F(TraceFileTest, ViewIsCacheLineAligned)
{
    {
        TraceFileWriter writer(path_.string());
        for (int i = 0; i < 100; ++i)
            writer.put(TraceRecord::load(0, 0x1000 + i * 8, 8, true));
    }
    TraceFileReader reader(path_.string());
    const auto buf = reader.view();
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf->data()) %
                  kTraceBufferAlign,
              0u);
    EXPECT_EQ(buf->size(), 100u);
}

TEST_F(TraceFileTest, ViewOutlivesReader)
{
    {
        TraceFileWriter writer(path_.string());
        for (int i = 0; i < 8; ++i)
            writer.put(TraceRecord::opBegin(0));
    }
    std::shared_ptr<const TraceBuffer> buf;
    {
        TraceFileReader reader(path_.string());
        buf = reader.view();
    } // Reader (and its FILE*) gone; the mapping must survive.
    ASSERT_EQ(buf->size(), 8u);
    EXPECT_EQ(buf->records()[7].type, RecordType::OpBegin);
}

TEST_F(TraceFileTest, V1FileReadableViaFallback)
{
    const auto records = sampleRecords();
    writeV1(records);
    TraceFileReader reader(path_.string());
    EXPECT_EQ(reader.version(), kTraceVersionLegacy);
    EXPECT_EQ(reader.headerSummary(), nullptr); // v1 has no summary.
    const auto buf = reader.view();
    ASSERT_EQ(buf->size(), records.size());
    EXPECT_TRUE(std::equal(records.begin(), records.end(),
                           buf->records().begin()));
    // The recomputed summary is identical to what a v2 writer would
    // have put in the header.
    EXPECT_EQ(buf->summary().totalRecords(), records.size());
    EXPECT_EQ(buf->summary().instBlockInsts, 999u);
}

TEST_F(TraceFileTest, V1ToV2ConversionPreservesRecords)
{
    const auto records = sampleRecords();
    writeV1(records);
    const auto v2path = path_.string() + ".v2";
    {
        TraceFileReader reader(path_.string());
        const auto buf = reader.view();
        TraceFileWriter writer(v2path);
        for (const TraceRecord &rec : buf->records())
            writer.put(rec);
        writer.finish();
    }
    TraceFileReader reader(v2path);
    EXPECT_EQ(reader.version(), kTraceVersion);
    const auto buf = reader.view();
    EXPECT_TRUE(std::equal(records.begin(), records.end(),
                           buf->records().begin()));
    std::filesystem::remove(v2path);
}

TEST_F(TraceFileTest, ViewFeedsSinkBatch)
{
    {
        TraceFileWriter writer(path_.string());
        for (int i = 0; i < 10; ++i)
            writer.put(TraceRecord::load(0, 0x1000 + i * 8, 8, true));
    } // Destructor finishes the file.
    TraceFileReader reader(path_.string());
    const auto buf = reader.view();
    ASSERT_EQ(buf->size(), 10u);
    EXPECT_EQ(buf->summary().memAccesses(), 10u);
}

TEST_F(TraceFileTest, ViewMatchesWrittenRecords)
{
    const auto records = sampleRecords();
    {
        TraceFileWriter writer(path_.string());
        for (const auto &rec : records)
            writer.put(rec);
    }
    TraceFileReader reader(path_.string());
    const auto buf = reader.view();
    ASSERT_EQ(buf->size(), records.size());
    EXPECT_TRUE(std::equal(records.begin(), records.end(),
                           buf->records().begin()));
}

TEST_F(TraceFileTest, IterativeNext)
{
    {
        TraceFileWriter writer(path_.string());
        writer.put(TraceRecord::opBegin(0, 5));
        writer.put(TraceRecord::opEnd(0, 5));
    }
    TraceFileReader reader(path_.string());
    TraceRecord rec;
    ASSERT_TRUE(reader.next(rec));
    EXPECT_EQ(rec.type, RecordType::OpBegin);
    ASSERT_TRUE(reader.next(rec));
    EXPECT_EQ(rec.type, RecordType::OpEnd);
    EXPECT_FALSE(reader.next(rec));
}

TEST_F(TraceFileTest, EmptyTraceIsValid)
{
    {
        TraceFileWriter writer(path_.string());
        writer.finish();
    }
    TraceFileReader reader(path_.string());
    EXPECT_EQ(reader.recordCount(), 0u);
    TraceRecord rec;
    EXPECT_FALSE(reader.next(rec));
}

TEST_F(TraceFileTest, RejectsGarbageMagic)
{
    {
        std::FILE *f = std::fopen(path_.c_str(), "wb");
        const char garbage[32] = "this is not a trace file";
        std::fwrite(garbage, 1, sizeof(garbage), f);
        std::fclose(f);
    }
    EXPECT_EXIT(TraceFileReader reader(path_.string()),
                ::testing::ExitedWithCode(1), "magic");
}

TEST_F(TraceFileTest, RejectsUnsupportedVersion)
{
    {
        std::FILE *f = std::fopen(path_.c_str(), "wb");
        const std::uint32_t magic = kTraceMagic;
        const std::uint32_t version = 99;
        const std::uint64_t count = 0;
        std::fwrite(&magic, sizeof(magic), 1, f);
        std::fwrite(&version, sizeof(version), 1, f);
        std::fwrite(&count, sizeof(count), 1, f);
        std::fclose(f);
    }
    EXPECT_EXIT(TraceFileReader reader(path_.string()),
                ::testing::ExitedWithCode(1), "unsupported version");
}

TEST_F(TraceFileTest, RejectsTruncatedBody)
{
    {
        TraceFileWriter writer(path_.string());
        for (int i = 0; i < 16; ++i)
            writer.put(TraceRecord::load(0, 0x1000 + i * 8, 8, true));
    }
    // Chop half a record off the end.
    std::filesystem::resize_file(
        path_, std::filesystem::file_size(path_) - 12);
    EXPECT_EXIT(TraceFileReader reader(path_.string()),
                ::testing::ExitedWithCode(1), "truncated");
}

TEST_F(TraceFileTest, RejectsChecksumMismatch)
{
    {
        TraceFileWriter writer(path_.string());
        for (int i = 0; i < 16; ++i)
            writer.put(TraceRecord::load(0, 0x1000 + i * 8, 8, true));
    }
    // Flip one byte inside a record's addr field: the per-type counts
    // still match, so only the checksum can catch it.
    {
        std::FILE *f = std::fopen(path_.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        std::fseek(f, static_cast<long>(kTraceHeaderBytesV2) + 8, SEEK_SET);
        const char byte = 0x5a;
        std::fwrite(&byte, 1, 1, f);
        std::fclose(f);
    }
    EXPECT_EXIT(
        {
            TraceFileReader reader(path_.string());
            reader.view();
        },
        ::testing::ExitedWithCode(1), "checksum");
    // Streaming reads every record, then fails at the end of the trace.
    EXPECT_EXIT(
        {
            TraceFileReader reader(path_.string());
            TraceRecord rec;
            std::uint64_t n = 0;
            while (reader.next(rec))
                ++n;
            std::fprintf(stderr, "streamed %llu records cleanly\n",
                         static_cast<unsigned long long>(n));
        },
        ::testing::ExitedWithCode(1), "checksum");
}

TEST_F(TraceFileTest, RejectsSummaryMismatch)
{
    // Record 4 (an InstBlock) becomes a Load, with the checksum patched
    // to match: only the per-type counts can catch it.
    writeV2With(sampleRecords(), 4,
                onDisk(TraceRecord::load(0, 0x10020, 8, true)));
    EXPECT_EXIT(TraceFileReader(path_.string()).view(),
                ::testing::ExitedWithCode(1), "header summary");
    EXPECT_EXIT(
        {
            TraceFileReader reader(path_.string());
            TraceRecord rec;
            while (reader.next(rec)) {
            }
        },
        ::testing::ExitedWithCode(1), "header summary");
}

TEST_F(TraceFileTest, HeaderChecksumIsFnv1aOfTheBody)
{
    const std::vector<TraceRecord> records{
        TraceRecord::attach(0, 1, 0x10000, 0x4000, Perm::ReadWrite),
        TraceRecord::load(0, 0x10010, 8, true),
        TraceRecord::instBlock(0, 7),
    };
    {
        TraceFileWriter writer(path_.string());
        for (const auto &rec : records)
            writer.put(rec);
    }
    // FNV-1a 64 over the 72 body bytes in their 24-byte disk layout.
    std::vector<DiskRecord> disk;
    for (const TraceRecord &rec : records)
        disk.push_back(onDisk(rec));
    const std::uint64_t expected =
        fnv1aOf(disk.data(), disk.size() * sizeof(DiskRecord));
    // Layout: magic+version (8) + count (8), then the checksum.
    std::uint64_t stored = 0;
    std::FILE *f = std::fopen(path_.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 16, SEEK_SET);
    ASSERT_EQ(std::fread(&stored, sizeof(stored), 1, f), 1u);
    std::fclose(f);
    EXPECT_EQ(stored, expected);
}

/** Overwrite the type byte of record @p index in the file body. */
void
corruptType(const std::filesystem::path &path, std::size_t header_bytes,
            std::size_t index)
{
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f,
               static_cast<long>(header_bytes + index * sizeof(DiskRecord)),
               SEEK_SET);
    const unsigned char bad = 0xff;
    std::fwrite(&bad, 1, 1, f);
    std::fclose(f);
}

TEST_F(TraceFileTest, RejectsUnknownRecordTypeInV2Body)
{
    {
        TraceFileWriter writer(path_.string());
        for (const auto &rec : sampleRecords())
            writer.put(rec);
    }
    corruptType(path_, kTraceHeaderBytesV2, 3);
    EXPECT_EXIT(
        {
            TraceFileReader reader(path_.string());
            reader.view();
        },
        ::testing::ExitedWithCode(1), "record 3 has unknown type 255");
}

TEST_F(TraceFileTest, RejectsUnknownRecordTypeInV1Body)
{
    writeV1(sampleRecords());
    corruptType(path_, kTraceHeaderBytesV1, 4);
    EXPECT_EXIT(
        {
            TraceFileReader reader(path_.string());
            reader.view();
        },
        ::testing::ExitedWithCode(1), "record 4 has unknown type 255");
}

TEST_F(TraceFileTest, RejectsDomainsAtOrAboveTheRegistryBound)
{
    // The last domain below the bound loads; record 2 names 2^32 - 1,
    // which would size every DomainId-indexed table to 2^32 rows.
    {
        TraceFileWriter writer(path_.string());
        writer.put(TraceRecord::attach(0, kMaxDomains - 1, 0x10000,
                                       0x4000, Perm::ReadWrite));
        writer.put(TraceRecord::instBlock(0, 3));
        writer.put(TraceRecord::attach(0, 0xffffffffu, 0x20000, 0x4000,
                                       Perm::ReadWrite));
    }
    EXPECT_EXIT(
        {
            TraceFileReader reader(path_.string());
            reader.view();
        },
        ::testing::ExitedWithCode(1), "record 2 names domain 4294967295");

    // SETPERM and detach name domains too, in v1 files as in v2.
    for (const TraceRecord &bad :
         {TraceRecord::setPerm(0, kMaxDomains, Perm::Read),
          TraceRecord::detach(0, kMaxDomains)}) {
        writeV1({TraceRecord::instBlock(0, 1), bad});
        EXPECT_EXIT(
            {
                TraceFileReader reader(path_.string());
                reader.view();
            },
            ::testing::ExitedWithCode(1), "record 1 names domain 1048576");
    }
}

TEST_F(TraceFileTest, EveryFactoryRoundTripsThroughTheFile)
{
    // Each factory, with the packed payloads at their limits: the
    // writer must widen each to the 24-byte layout and both readers
    // must narrow it back to the identical record.
    const std::vector<TraceRecord> records{
        TraceRecord::instBlock(1, 0xffffffffu),
        TraceRecord::load(2, 0xffffffffffffffffull, 8, true),
        TraceRecord::store(3, 0x40, 64, false),
        TraceRecord::setPerm(4, kMaxDomains - 1, Perm::Write),
        TraceRecord::wrpkru(5, 15, Perm::Read),
        TraceRecord::attach(6, 2, 0x10000, 0x4000, Perm::ReadWrite),
        TraceRecord::attach(7, 3, Addr{1} << 30, Addr{1} << 21,
                            Perm::Read, PageSize::Size2M),
        TraceRecord::attach(8, 4, 0x1000, kAttachSizeLimit - 4096,
                            Perm::None, PageSize::Size1G),
        TraceRecord::attach(9, 5, kAttachVaLimit - 4096, 4096,
                            Perm::Write),
        TraceRecord::attach(10, 6, 0x2000, 4096, Perm::Read),
        TraceRecord::detach(11, 6),
        TraceRecord::threadSwitch(0xffff),
        TraceRecord::opBegin(12, 77),
        TraceRecord::opBeginAt(13, 5, 123456789, 3),
        TraceRecord::opBeginAt(14, 0xffffffffu, kArrivalLimit - 1, 255),
        TraceRecord::opEnd(15, 77),
    };
    {
        TraceFileWriter writer(path_.string());
        for (const TraceRecord &rec : records)
            writer.put(rec);
    }
    // The body is exactly the widened records.
    std::vector<DiskRecord> body(records.size());
    {
        std::FILE *f = std::fopen(path_.c_str(), "rb");
        ASSERT_NE(f, nullptr);
        std::fseek(f, kTraceHeaderBytesV2, SEEK_SET);
        ASSERT_EQ(std::fread(body.data(), sizeof(DiskRecord), body.size(),
                             f),
                  body.size());
        std::fclose(f);
    }
    for (std::size_t i = 0; i < records.size(); ++i) {
        const DiskRecord want = onDisk(records[i]);
        EXPECT_EQ(std::memcmp(&body[i], &want, sizeof(want)), 0)
            << "record " << i << ": " << toString(records[i]);
    }
    TraceFileReader reader(path_.string());
    const auto buf = reader.view();
    EXPECT_TRUE(std::ranges::equal(buf->records(), records));
    TraceRecord rec;
    for (std::size_t i = 0; i < records.size(); ++i) {
        ASSERT_TRUE(reader.next(rec));
        EXPECT_EQ(rec, records[i]) << "record " << i;
    }
    EXPECT_FALSE(reader.next(rec));

    // A v1 file of the same records reads back identically too.
    writeV1(records);
    TraceFileReader v1(path_.string());
    EXPECT_TRUE(std::ranges::equal(v1.view()->records(), records));
}

/** A record that a 16-byte TraceRecord cannot hold, and why. */
struct Unencodable
{
    const char *name;
    DiskRecord rec;
    const char *why; ///< Part of the reader's message.
};

const Unencodable kUnencodable[] = {
    {"unaligned attach base",
     {RecordType::Attach, 0, 0, 1, 0x10800, 0x4000},
     "base is not 4 KB aligned"},
    {"attach of 1 TB",
     {RecordType::Attach, 0, 0, 1, 0x10000, Addr{1} << 40},
     "size is not below 1 TB"},
    {"attach of 0 bytes",
     {RecordType::Attach, 0, 0, 1, 0x10000000, 0},
     "size is 0"},
    {"arrival at 2^56",
     {RecordType::OpBegin, kFlagOpArrival, 0, 1, std::uint64_t{1} << 56,
      0},
     "arrival is not below"},
    {"latency class 256",
     {RecordType::OpBegin, kFlagOpArrival, 0, 1, 5, 256},
     "class is above 255"},
    {"value word on a load",
     {RecordType::Load, kFlagPmo, 0, 8, 0x10010, 1},
     "carries no value word"},
};

/** The regex a rejection of record 2 for @p c must match. */
std::string
rejection(const Unencodable &c)
{
    return std::string("record 2 .*") + c.why;
}

TEST_F(TraceFileTest, RejectsRecordsThatDoNotFitSixteenBytes)
{
    for (const Unencodable &c : kUnencodable) {
        SCOPED_TRACE(c.name);
        std::vector<DiskRecord> v1;
        for (const TraceRecord &rec : sampleRecords())
            v1.push_back(onDisk(rec));
        v1[2] = c.rec;
        writeV1Disk(v1);
        EXPECT_EXIT(TraceFileReader(path_.string()).view(),
                    ::testing::ExitedWithCode(1), rejection(c));
        const auto read_all = [this] {
            TraceFileReader reader(path_.string());
            TraceRecord rec;
            while (reader.next(rec)) {
            }
        };
        EXPECT_EXIT(read_all(), ::testing::ExitedWithCode(1),
                    rejection(c));

        // In v2, with the header checksum patched to match, so the
        // record is the file's only fault.
        writeV2With(sampleRecords(), 2, c.rec);
        EXPECT_EXIT(TraceFileReader(path_.string()).view(),
                    ::testing::ExitedWithCode(1), rejection(c));
        EXPECT_EXIT(read_all(), ::testing::ExitedWithCode(1),
                    rejection(c));
    }
}

/** Domain 1 attached at two bases with no Detach between, then a
 *  load: a trace no scheme can replay. */
const std::vector<DiskRecord> kDoubleAttach = {
    {RecordType::Attach, 0, 0, 1, 0x10000000, 0x100000},
    {RecordType::Attach, 0, 0, 1, 0x20000000, 0x100000},
    {RecordType::Load, kFlagPmo, 0, 8, 0x10000000, 0},
};

constexpr const char *kDoubleAttachWhy =
    "record 1 attaches domain 1, which is already attached";

TEST_F(TraceFileTest, RejectsAttachOfAttachedDomain)
{
    writeV1Disk(kDoubleAttach);
    EXPECT_EXIT(TraceFileReader(path_.string()).view(),
                ::testing::ExitedWithCode(1), kDoubleAttachWhy);
    const auto read_all = [this] {
        TraceFileReader reader(path_.string());
        TraceRecord rec;
        while (reader.next(rec)) {
        }
    };
    EXPECT_EXIT(read_all(), ::testing::ExitedWithCode(1),
                kDoubleAttachWhy);

    // A Detach between the two makes the second Attach legal.
    writeV1Disk({kDoubleAttach[0],
                 {RecordType::Detach, 0, 0, 1, 0, 0},
                 kDoubleAttach[1],
                 kDoubleAttach[2]});
    TraceFileReader reader(path_.string());
    EXPECT_EQ(reader.view()->size(), 4u);
    TraceRecord rec;
    std::size_t streamed = 0;
    while (reader.next(rec))
        ++streamed;
    EXPECT_EQ(streamed, 4u);
}

TEST_F(TraceFileTest, RejectsWrpkruKeyOutOfRange)
{
    // A one-record file writing PKRU key 20 (RW): the key is rejected
    // with its record index on load, in either format, instead of
    // reaching a scheme's PKRU.
    const DiskRecord bad{RecordType::Wrpkru, 3, 0, 20, 0, 0};
    const char *why =
        "record 0 writes PKRU key 20, beyond the 16 protection keys";
    const auto read_all = [this] {
        TraceFileReader reader(path_.string());
        TraceRecord rec;
        while (reader.next(rec)) {
        }
    };
    writeV1Disk({bad});
    EXPECT_EXIT(TraceFileReader(path_.string()).view(),
                ::testing::ExitedWithCode(1), why);
    EXPECT_EXIT(read_all(), ::testing::ExitedWithCode(1), why);
    writeV2With({TraceRecord::wrpkru(0, 1, Perm::ReadWrite)}, 0, bad);
    EXPECT_EXIT(TraceFileReader(path_.string()).view(),
                ::testing::ExitedWithCode(1), why);
    EXPECT_EXIT(read_all(), ::testing::ExitedWithCode(1), why);

    // Key 15, the last one, still loads.
    writeV1Disk({{RecordType::Wrpkru, 3, 0, 15, 0, 0}});
    const auto buf = TraceFileReader(path_.string()).view();
    ASSERT_EQ(buf->size(), 1u);
    EXPECT_EQ(buf->records()[0].aux, 15u);
}

#ifdef PMODV_TRACE_TOOL
/**
 * Run `pmodv-trace` with @p args; return its exit status and leave
 * its stderr in @p err.
 */
int
runTool(const std::string &args, std::string &err)
{
    const std::string err_path =
        (std::filesystem::temp_directory_path() /
         ("pmodv_trace_tool_" + std::to_string(::getpid()) + ".err"))
            .string();
    const int status = std::system((std::string(PMODV_TRACE_TOOL) + " " +
                                    args + " >/dev/null 2>" + err_path)
                                       .c_str());
    std::ifstream in(err_path);
    err.assign(std::istreambuf_iterator<char>(in), {});
    std::filesystem::remove(err_path);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST_F(TraceFileTest, ToolRejectsRecordsThatDoNotFitSixteenBytes)
{
    const std::string out = path_.string() + ".out";
    for (const Unencodable &c : kUnencodable) {
        for (const bool v2 : {false, true}) {
            SCOPED_TRACE(std::string(c.name) + (v2 ? " (v2)" : " (v1)"));
            if (v2) {
                writeV2With(sampleRecords(), 2, c.rec);
            } else {
                std::vector<DiskRecord> v1;
                for (const TraceRecord &rec : sampleRecords())
                    v1.push_back(onDisk(rec));
                v1[2] = c.rec;
                writeV1Disk(v1);
            }
            for (const std::string cmd : {"info", "convert"}) {
                std::string err;
                std::string args = cmd + " " + path_.string();
                if (cmd == "convert")
                    args += " " + out;
                EXPECT_EQ(runTool(args, err), 1) << cmd << ": " << err;
                EXPECT_NE(err.find("record 2 "), std::string::npos)
                    << cmd << ": " << err;
                EXPECT_NE(err.find(c.why), std::string::npos)
                    << cmd << ": " << err;
            }
        }
    }
    std::filesystem::remove(out);
}

TEST_F(TraceFileTest, ToolRejectsAttachOfAttachedDomain)
{
    writeV1Disk(kDoubleAttach);
    std::vector<std::string> runs{"info " + path_.string(),
                                  "dump " + path_.string()};
    for (const char *scheme : {"none", "lowerbound", "mpk", "libmpk",
                               "mpk_virt", "domain_virt"}) {
        runs.push_back("replay " + path_.string() + " --scheme " +
                       scheme);
    }
    for (const std::string &args : runs) {
        std::string err;
        EXPECT_EQ(runTool(args, err), 1) << args << ": " << err;
        EXPECT_NE(err.find(kDoubleAttachWhy), std::string::npos)
            << args << ": " << err;
    }
}

TEST_F(TraceFileTest, ToolRejectsChecksumMismatch)
{
    {
        TraceFileWriter writer(path_.string());
        for (const TraceRecord &rec : sampleRecords())
            writer.put(rec);
    }
    // Flip a bit of record 2's addr: the record still decodes, and
    // only the checksum tells.
    {
        std::FILE *f = std::fopen(path_.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        const long at = static_cast<long>(kTraceHeaderBytesV2 +
                                          2 * kTraceFileRecordBytes + 8);
        std::fseek(f, at, SEEK_SET);
        unsigned char byte = 0;
        ASSERT_EQ(std::fread(&byte, 1, 1, f), 1u);
        byte ^= 0x40;
        std::fseek(f, at, SEEK_SET);
        std::fwrite(&byte, 1, 1, f);
        std::fclose(f);
    }
    const std::string out = path_.string() + ".out";
    for (const std::string &args :
         {"info " + path_.string(), "dump " + path_.string(),
          "dump " + path_.string() + " --limit 1",
          "convert " + path_.string() + " " + out}) {
        std::string err;
        EXPECT_EQ(runTool(args, err), 1) << args << ": " << err;
        EXPECT_NE(err.find("checksum"), std::string::npos)
            << args << ": " << err;
    }
    // What convert left behind does not pass as a trace either.
    std::string err;
    EXPECT_EQ(runTool("info " + out, err), 1) << err;
    std::filesystem::remove(out);
}
#endif

TEST_F(TraceFileTest, RejectsHeaderCountDisagreement)
{
    {
        TraceFileWriter writer(path_.string());
        for (int i = 0; i < 4; ++i)
            writer.put(TraceRecord::opBegin(0));
    }
    // Corrupt the per-type count table (OpBegin count at index 8) so
    // it no longer sums to the header's record count.
    {
        std::FILE *f = std::fopen(path_.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        const std::uint64_t bogus = 7;
        // Layout: magic+version (8) + count (8) + checksum (8), then
        // typeCounts[10].
        std::fseek(f, 24 + 8 * 8, SEEK_SET);
        std::fwrite(&bogus, sizeof(bogus), 1, f);
        std::fclose(f);
    }
    EXPECT_EXIT(TraceFileReader reader(path_.string()),
                ::testing::ExitedWithCode(1), "corrupt trace header");
}

/**
 * A record count whose byte size wraps u64 back to exactly that of
 * @p records records: records + 2^64 / (the largest power of two
 * dividing the on-disk record size).
 */
constexpr std::uint64_t
wrappingCount(std::uint64_t records)
{
    constexpr std::uint64_t size = kTraceFileRecordBytes;
    constexpr std::uint64_t low_bit = size & (~size + 1);
    return records + (~std::uint64_t{0} / low_bit + 1);
}

TEST_F(TraceFileTest, RejectsV1CountWhoseSizeWraps)
{
    const auto records = sampleRecords();
    writeV1(records);
    {
        std::FILE *f = std::fopen(path_.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        const std::uint64_t count = wrappingCount(records.size());
        std::fseek(f, 8, SEEK_SET);
        std::fwrite(&count, sizeof(count), 1, f);
        std::fclose(f);
    }
    EXPECT_EXIT(
        {
            TraceFileReader reader(path_.string());
            reader.view();
        },
        ::testing::ExitedWithCode(1), "truncated");
}

TEST_F(TraceFileTest, RejectsV2CountWhoseSizeWraps)
{
    {
        TraceFileWriter writer(path_.string());
        for (int i = 0; i < 4; ++i)
            writer.put(TraceRecord::opBegin(0));
    }
    // Inflate both the record count and the OpBegin count by the same
    // wrapping amount, so the per-type counts still sum to the count.
    {
        std::FILE *f = std::fopen(path_.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        const std::uint64_t count = wrappingCount(4);
        std::fseek(f, 8, SEEK_SET);
        std::fwrite(&count, sizeof(count), 1, f);
        // Layout: magic+version (8) + count (8) + checksum (8), then
        // typeCounts[10]; OpBegin is index 8.
        std::fseek(f, 24 + 8 * 8, SEEK_SET);
        std::fwrite(&count, sizeof(count), 1, f);
        std::fclose(f);
    }
    EXPECT_EXIT(
        {
            TraceFileReader reader(path_.string());
            reader.view();
        },
        ::testing::ExitedWithCode(1), "truncated");
}

TEST_F(TraceFileTest, WriteAfterFinishIsFatal)
{
    EXPECT_EXIT(
        {
            TraceFileWriter writer(path_.string());
            writer.put(TraceRecord::opBegin(0));
            writer.finish();
            writer.put(TraceRecord::opEnd(0));
        },
        ::testing::ExitedWithCode(1), "after finish");
}

#ifdef PMODV_TESTDATA_DIR
TEST(TraceFixture, CommittedV1TraceStaysReadable)
{
    // A v1-format trace checked into the repo: the legacy
    // decode-on-load fallback must keep working against real bytes
    // written before the v2 format existed, not just files this test
    // binary produced itself.
    TraceFileReader reader(std::string(PMODV_TESTDATA_DIR) +
                           "/micro_v1.trace");
    EXPECT_EQ(reader.version(), kTraceVersionLegacy);
    EXPECT_EQ(reader.recordCount(), 161u);
    EXPECT_EQ(reader.headerSummary(), nullptr);
    auto buf = reader.view();
    ASSERT_EQ(buf->size(), 161u);
    const TraceSummary &s = buf->summary();
    EXPECT_EQ(s.count(RecordType::Attach), 2u);
    EXPECT_EQ(s.count(RecordType::Load), 73u);
    EXPECT_EQ(s.count(RecordType::Store), 16u);
    EXPECT_EQ(s.count(RecordType::InstBlock), 64u);
    EXPECT_EQ(buf->records()[0].type, RecordType::Attach);
    EXPECT_EQ(buf->records()[0].aux, 1u);
    EXPECT_EQ(buf->records()[0].attachBase(), Addr{1} << 33);
}
#endif

} // namespace
} // namespace pmodv::trace
