/**
 * @file
 * Unit tests for the statistics package.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "stats/export.hh"
#include "stats/slow_digest.hh"
#include "stats/stats.hh"
#include "stats/timeseries.hh"

namespace pmodv::stats
{
namespace
{

TEST(Scalar, Accumulates)
{
    Group root(nullptr, "root");
    Scalar s(&root, "count");
    EXPECT_EQ(s.value(), 0u);
    ++s;
    s += 4;
    EXPECT_EQ(s.value(), 5u);
    s = 2;
    EXPECT_EQ(s.value(), 2u);
    s.reset();
    EXPECT_EQ(s.value(), 0u);
}

TEST(Histogram, MomentsAndBuckets)
{
    Group root(nullptr, "root");
    Histogram h(&root, "hist");
    h.sample(0);
    h.sample(1);
    h.sample(2);
    h.sample(1024);
    EXPECT_EQ(h.samples(), 4u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 1024u);
    EXPECT_DOUBLE_EQ(h.mean(), (0 + 1 + 2 + 1024) / 4.0);
    EXPECT_EQ(h.bucket(0), 1u); // value 0
    EXPECT_EQ(h.bucket(1), 1u); // value 1
    EXPECT_EQ(h.bucket(2), 1u); // value 2
    EXPECT_EQ(h.bucket(11), 1u); // value 1024 -> log2+1
}

TEST(Formula, LazyEvaluation)
{
    Group root(nullptr, "root");
    Scalar a(&root, "a");
    Scalar b(&root, "b");
    Formula ratio(&root, "ratio", [&]() {
        return b.value() == 0 ? 0.0
                              : static_cast<double>(a.value()) /
                                    static_cast<double>(b.value());
    });
    EXPECT_DOUBLE_EQ(ratio.value(), 0.0);
    a = 6;
    b = 3;
    EXPECT_DOUBLE_EQ(ratio.value(), 2.0);
}

TEST(Group, NestedDumpContainsAllPaths)
{
    Group root(nullptr, "sys");
    Group child(&root, "cpu");
    Scalar top(&root, "cycles");
    Scalar inner(&child, "insts");
    top = 10;
    inner = 20;

    EXPECT_EQ(toJsonString(root), "{\"cycles\":10,\"cpu\":{\"insts\":20}}");
}

TEST(Group, LookupByDottedPath)
{
    Group root(nullptr, "");
    Group cpu(&root, "cpu");
    Group tlb(&cpu, "tlb");
    Scalar misses(&tlb, "misses");
    misses = 42;
    EXPECT_DOUBLE_EQ(root.lookup("cpu.tlb.misses"), 42.0);
    EXPECT_DOUBLE_EQ(cpu.lookup("tlb.misses"), 42.0);
    EXPECT_DOUBLE_EQ(root.lookup("cpu.tlb.nonexistent"), 0.0);
    EXPECT_DOUBLE_EQ(root.lookup("bogus.path"), 0.0);
}

TEST(Group, LookupHistogramSamples)
{
    Group root(nullptr, "");
    Histogram h(&root, "hist");
    h.sample(1);
    h.sample(2);
    EXPECT_DOUBLE_EQ(root.lookup("hist"), 2.0);
}

TEST(Group, FullPath)
{
    Group root(nullptr, "sys");
    Group a(&root, "a");
    Group b(&a, "b");
    EXPECT_EQ(b.fullPath(), "sys.a.b");
}

TEST(Group, ChildDestructionUnregisters)
{
    Group root(nullptr, "");
    {
        Group child(&root, "ephemeral");
        Scalar s(&child, "x");
        s = 1;
    }
    EXPECT_EQ(toJsonString(root).find("ephemeral"), std::string::npos);
}

TEST(Histogram, BucketEdgeHelpers)
{
    Group root(nullptr, "");
    Histogram h(&root, "hist");
    // Bucket 0 holds the value 0; bucket i >= 1 holds [2^(i-1), 2^i).
    EXPECT_EQ(h.bucketLow(0), 0u);
    EXPECT_EQ(h.bucketHigh(0), 1u);
    EXPECT_EQ(h.bucketLow(1), 1u);
    EXPECT_EQ(h.bucketHigh(1), 2u);
    EXPECT_EQ(h.bucketLow(2), 2u);
    EXPECT_EQ(h.bucketHigh(2), 4u);
    // The last bucket is open-ended.
    const std::size_t last = h.numBuckets() - 1;
    EXPECT_TRUE(h.bucketUnbounded(last));
    EXPECT_FALSE(h.bucketUnbounded(0));
}

/** Records the traversal order a visitor sees. */
class RecordingVisitor : public Visitor
{
  public:
    std::vector<std::string> log;
    void beginGroup(const Group &g) override
    {
        log.push_back("begin:" + g.groupName());
    }
    void endGroup(const Group &g) override
    {
        log.push_back("end:" + g.groupName());
    }
    void visitScalar(const Scalar &s) override
    {
        log.push_back("scalar:" + s.name());
    }
    void visitHistogram(const Histogram &s) override
    {
        log.push_back("hist:" + s.name());
    }
    void visitFormula(const Formula &s) override
    {
        log.push_back("formula:" + s.name());
    }
    void visitTimeSeries(const TimeSeries &s) override
    {
        log.push_back("timeseries:" + s.name());
    }
    void visitSlowDigest(const SlowRequestDigest &s) override
    {
        log.push_back("digest:" + s.name());
    }
};

TEST(Visitor, TraversalIsRegistrationOrderStatsBeforeChildren)
{
    Group root(nullptr, "sys");
    Scalar a(&root, "a");
    Group child(&root, "cpu");
    Scalar b(&child, "b");
    TimeSeries t(&child, "t");
    Scalar c(&root, "c"); // Registered after the child group.
    SlowRequestDigest d(&root, "d", 1);

    RecordingVisitor v;
    root.accept(v);
    const std::vector<std::string> expected{
        "begin:sys", "scalar:a",     "scalar:c", "digest:d", "begin:cpu",
        "scalar:b",  "timeseries:t", "end:cpu",  "end:sys"};
    EXPECT_EQ(v.log, expected);
}

/** A small tree exercising every stat kind. */
struct SampleTree
{
    Group root{nullptr, "sys"};
    Scalar cycles{&root, "cycles"};
    Formula half{&root, "half",
                 [this]() {
                     return static_cast<double>(cycles.value()) / 2.0;
                 }};
    Group cpu{&root, "cpu"};
    Histogram lat{&cpu, "lat"};

    SampleTree()
    {
        cycles = 10;
        lat.sample(0);
        lat.sample(3);
        lat.sample(300);
    }
};

TEST(Export, JsonIsBalancedDeterministicAndFinite)
{
    SampleTree t;
    const std::string json = toJsonString(t.root);
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
    EXPECT_EQ(json.find("inf"), std::string::npos);
    EXPECT_EQ(json.find("nan"), std::string::npos);
    EXPECT_NE(json.find("\"cycles\":10"), std::string::npos);
    EXPECT_NE(json.find("\"half\":5"), std::string::npos);
    EXPECT_NE(json.find("\"cpu\":{"), std::string::npos);
    EXPECT_NE(json.find("\"samples\":3"), std::string::npos);
    // Dumping twice yields the identical byte string.
    EXPECT_EQ(json, toJsonString(t.root));
}

TEST(Export, JsonRoundTripsNonIntegralValues)
{
    Group root(nullptr, "sys");
    Formula pi(&root, "pi", [] { return 3.14159265358979312; });
    const std::string json = toJsonString(root);
    const auto pos = json.find("\"pi\":");
    ASSERT_NE(pos, std::string::npos);
    const double parsed = std::strtod(json.c_str() + pos + 5, nullptr);
    EXPECT_EQ(parsed, pi.value()); // Bit-exact round trip.
}

TEST(Export, ScalarsPastDoublePrecisionExportExactly)
{
    Group root(nullptr, "sys");
    Scalar s(&root, "big");
    s += std::uint64_t{1} << 53;
    ++s;
    EXPECT_EQ(s.value(), 9007199254740993u);
    EXPECT_NE(toJsonString(root).find("\"big\":9007199254740993}"),
              std::string::npos);
}

TEST(Export, JsonBucketEdgesComeFromBucketLowAndHigh)
{
    SampleTree t;
    const std::string json = toJsonString(t.root);
    for (std::size_t i = 0; i < t.lat.numBuckets(); ++i) {
        if (t.lat.bucket(i) == 0)
            continue;
        std::string edge =
            "{\"lo\":" + std::to_string(t.lat.bucketLow(i));
        if (!t.lat.bucketUnbounded(i))
            edge += ",\"hi\":" + std::to_string(t.lat.bucketHigh(i));
        EXPECT_NE(json.find(edge), std::string::npos) << edge;
    }
}

TEST(Export, UnnamedChildGroupMergesIntoParentObject)
{
    Group root(nullptr, "sys");
    Group unnamed(&root, "");
    Scalar inner(&unnamed, "x");
    inner = 7;
    const std::string json = toJsonString(root);
    EXPECT_NE(json.find("\"x\":7"), std::string::npos);
    EXPECT_EQ(json.find("\"\":"), std::string::npos);
}

} // namespace
} // namespace pmodv::stats
