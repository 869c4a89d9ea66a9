/**
 * @file
 * Unit tests for the bench binaries' shared option parser: every flag
 * parses, and a typo or a value flag left without its value exits 2
 * instead of running the default sweep.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_util.hh"

namespace pmodv
{
namespace
{

/** parseOptions over "bench" followed by @p args. */
bench::Options
parse(std::vector<std::string> args)
{
    args.insert(args.begin(), "bench");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    return bench::parseOptions(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchOptions, ParsesEveryFlag)
{
    const bench::Options opt =
        parse({"--quick", "--csv", "--ops", "12", "--pmos", "1,2",
               "--tenants", "3", "--cores", "4,8", "--jobs", "5",
               "--json", "r.json", "--dump-stats", "--epoch", "64",
               "--trace-out", "t.json", "--progress"});
    EXPECT_TRUE(opt.quick);
    EXPECT_TRUE(opt.csv);
    EXPECT_EQ(opt.ops, 12u);
    EXPECT_EQ(opt.pmoCounts, (std::vector<unsigned>{1, 2}));
    EXPECT_EQ(opt.tenantCounts, (std::vector<unsigned>{3}));
    EXPECT_EQ(opt.coreCounts, (std::vector<unsigned>{4, 8}));
    EXPECT_EQ(opt.jobs, 5u);
    EXPECT_EQ(opt.jsonPath, "r.json");
    EXPECT_TRUE(opt.dumpStats);
    EXPECT_EQ(opt.epochCycles, 64u);
    EXPECT_EQ(opt.traceOut, "t.json");
    EXPECT_TRUE(opt.progress);
}

TEST(BenchOptionsDeathTest, UnknownArgumentExits2)
{
    EXPECT_EXIT(parse({"--quick", "--jbos", "4"}),
                ::testing::ExitedWithCode(2),
                "unknown argument '--jbos'(.|\n)*usage:");
}

TEST(BenchOptionsDeathTest, TrailingValueFlagExits2)
{
    EXPECT_EXIT(parse({"--quick", "--jobs"}), ::testing::ExitedWithCode(2),
                "--jobs needs a value(.|\n)*usage:");
}

TEST(BenchOptionsDeathTest, ReportFlagsRejectedWhereNoReportIsWritten)
{
    bench::rejectReportFlags(parse({"--quick", "--jobs", "2"}), "bench");
    for (const char *flag : {"--json", "--epoch", "--trace-out"}) {
        EXPECT_EXIT(
            bench::rejectReportFlags(parse({flag, "1"}), "bench"),
            ::testing::ExitedWithCode(2), "writes no suite report")
            << flag;
    }
    EXPECT_EXIT(bench::rejectReportFlags(parse({"--dump-stats"}), "bench"),
                ::testing::ExitedWithCode(2), "writes no suite report");
}

} // namespace
} // namespace pmodv
