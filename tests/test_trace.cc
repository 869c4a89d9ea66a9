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
#include <vector>

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
    EXPECT_EQ(sizeof(TraceRecord), 24u);
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
    EXPECT_EQ(rec.addr, 0x10000u);
    EXPECT_EQ(rec.value, 0x8000u);
    EXPECT_EQ(rec.perm(), Perm::Read);
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
    // 400k records are 9.6 MB: the 2 MB first mapping is remapped to
    // 4, 8 and 16 MB on the way.
    constexpr std::uint64_t kRecords = 400'000;
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
    EXPECT_DEATH(
        {
            CountingSink sink;
            sink.put(rec);
        },
        "unknown type 255");
}

TEST(FanoutSink, ReplicatesToAll)
{
    VectorSink a, b;
    FanoutSink fan;
    fan.addSink(&a);
    fan.addSink(&b);
    fan.put(TraceRecord::opBegin(0));
    fan.put(TraceRecord::opEnd(0));
    fan.finish();
    EXPECT_EQ(a.records().size(), 2u);
    EXPECT_TRUE(std::ranges::equal(b.records(), a.records()));
}

TEST(CountingSink, CountsByType)
{
    CountingSink sink;
    sink.put(TraceRecord::instBlock(0, 100));
    sink.put(TraceRecord::load(0, 0x1, 8, true));
    sink.put(TraceRecord::store(0, 0x2, 8, false));
    sink.put(TraceRecord::setPerm(0, 1, Perm::Read));
    sink.put(TraceRecord::wrpkru(0, 1, Perm::Read));
    sink.put(TraceRecord::opBegin(0));
    sink.put(TraceRecord::opEnd(0));

    EXPECT_EQ(sink.memAccesses(), 2u);
    EXPECT_EQ(sink.pmoAccesses(), 1u);
    EXPECT_EQ(sink.permissionSwitches(), 2u);
    EXPECT_EQ(sink.operations(), 1u);
    // 100 block insts + 2 mem + 2 switches.
    EXPECT_EQ(sink.totalInstructions(), 104u);
    sink.reset();
    EXPECT_EQ(sink.totalInstructions(), 0u);
}

TEST(TeeCountingSink, CountsAndForwards)
{
    VectorSink downstream;
    TeeCountingSink tee(&downstream);
    tee.put(TraceRecord::load(0, 0x1, 8, true));
    EXPECT_EQ(tee.memAccesses(), 1u);
    EXPECT_EQ(downstream.records().size(), 1u);
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
    EXPECT_FALSE(buf->fileView());
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
    EXPECT_FALSE(buf->fileView());
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
    EXPECT_FALSE(buf->fileView());
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
    writeV1(const std::vector<TraceRecord> &records)
    {
        std::FILE *f = std::fopen(path_.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        const std::uint32_t magic = kTraceMagic;
        const std::uint32_t version = kTraceVersionLegacy;
        const std::uint64_t count = records.size();
        std::fwrite(&magic, sizeof(magic), 1, f);
        std::fwrite(&version, sizeof(version), 1, f);
        std::fwrite(&count, sizeof(count), 1, f);
        std::fwrite(records.data(), sizeof(TraceRecord),
                    records.size(), f);
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

TEST_F(TraceFileTest, ViewIsZeroCopyAndAligned)
{
    {
        TraceFileWriter writer(path_.string());
        for (int i = 0; i < 100; ++i)
            writer.put(TraceRecord::load(0, 0x1000 + i * 8, 8, true));
    }
    TraceFileReader reader(path_.string());
    const auto buf = reader.view();
    EXPECT_TRUE(buf->fileView());
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
    EXPECT_FALSE(buf->fileView()); // Decode-on-load, not mmap.
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
    CountingSink sink;
    sink.addBatch(buf->records());
    sink.finish();
    EXPECT_EQ(sink.memAccesses(), 10u);
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
    // FNV-1a 64 over the 72 body bytes, computed here from its
    // published constants.
    std::uint64_t expected = 0xcbf29ce484222325ull;
    const auto *bytes = reinterpret_cast<const unsigned char *>(
        records.data());
    for (std::size_t i = 0; i < records.size() * sizeof(TraceRecord);
         ++i) {
        expected ^= bytes[i];
        expected *= 0x100000001b3ull;
    }
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
               static_cast<long>(header_bytes + index * sizeof(TraceRecord)),
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
 * dividing sizeof(TraceRecord)).
 */
constexpr std::uint64_t
wrappingCount(std::uint64_t records)
{
    constexpr std::uint64_t size = sizeof(TraceRecord);
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
    EXPECT_EQ(buf->records()[0].addr, Addr{1} << 33);
}
#endif

} // namespace
} // namespace pmodv::trace
