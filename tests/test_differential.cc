/**
 * @file
 * Tests of the differential fuzz harness itself: clean sweeps across
 * seeds, detection + shrinking of a deliberately planted bug, replay
 * of the checked-in regression corpus, and the determinism/round-trip
 * properties the replay workflow depends on.
 */

#include <filesystem>
#include <sstream>

#include <gtest/gtest.h>

#include "testing/differ.hh"
#include "testing/generator.hh"
#include "testing/shrink.hh"

using namespace pmodv;
using namespace pmodv::testing;

namespace
{

GenConfig
smallConfig()
{
    GenConfig cfg;
    cfg.numOps = 128;
    return cfg;
}

std::vector<Op>
parse(const std::string &text)
{
    std::istringstream in(text);
    return parseOps(in);
}

} // namespace

TEST(Differential, CleanFuzzAcrossSeeds)
{
    const GenConfig cfg = smallConfig();
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
        const std::vector<Op> ops = generateOps(seed, cfg);
        const DiffResult result = runDifferential(ops);
        EXPECT_TRUE(result.ok())
            << "seed " << seed << ": " << result.summary();
    }
}

TEST(Differential, CleanFuzzWithManyDomains)
{
    // Push past 15 concurrent domains so stock MPK's key exhaustion
    // (and its reference-model carve-out) is actually exercised.
    GenConfig cfg = smallConfig();
    cfg.numOps = 192;
    cfg.domainPool = 40;
    cfg.maxLive = 30;
    cfg.wAttach = 20;
    cfg.wDetach = 5;
    for (std::uint64_t seed = 100; seed <= 110; ++seed) {
        const std::vector<Op> ops = generateOps(seed, cfg);
        const DiffResult result = runDifferential(ops);
        EXPECT_TRUE(result.ok())
            << "seed " << seed << ": " << result.summary();
    }
}

/**
 * The planted @p bug must fail some early generated episode, shrink to
 * at most 10 ops that still fail on the same oracle, and pass without
 * it. Returns the oracle that caught it.
 */
std::string
expectCaughtAndShrunkSmall(BugInjection bug)
{
    DiffConfig diff;
    diff.inject = bug;

    // Find a failing episode; the plant should surface fast.
    std::vector<Op> failing;
    std::string oracle;
    for (std::uint64_t seed = 1; seed <= 50 && failing.empty(); ++seed) {
        const std::vector<Op> ops = generateOps(seed, smallConfig());
        const DiffResult result = runDifferential(ops, diff);
        if (!result.ok()) {
            failing = ops;
            oracle = result.firstOracle();
        }
    }
    EXPECT_FALSE(failing.empty())
        << "no generated episode tripped the planted bug";
    if (failing.empty())
        return oracle;

    const auto fails = [&](const std::vector<Op> &candidate) {
        return runDifferential(candidate, diff).firstOracle() == oracle;
    };
    const std::vector<Op> shrunk = shrinkOps(failing, fails);
    EXPECT_LE(shrunk.size(), 10u)
        << "shrunk reproducer still has " << shrunk.size() << " ops";

    // The reproducer must still fail with the planted bug and must
    // pass on the healthy build.
    EXPECT_FALSE(runDifferential(shrunk, diff).ok());
    EXPECT_TRUE(runDifferential(shrunk).ok());
    return oracle;
}

TEST(Differential, InjectedBugIsCaughtAndShrinksSmall)
{
    expectCaughtAndShrunkSmall(BugInjection::MpkDropRevoke);
}

/**
 * A counter that restarts with every batch is invisible to the
 * one-record path's own oracles; only the batch-split replay can tell.
 */
TEST(Differential, BatchBoundaryResetIsCaughtAndShrinksSmall)
{
    EXPECT_EQ(expectCaughtAndShrunkSmall(BugInjection::BatchResetStat),
              "tail-latency");
}

TEST(Differential, HandWrittenDropRevokeReproducer)
{
    const std::vector<Op> ops = parse("attach d=1 pages=1 pageperm=RW\n"
                                      "setperm t=0 d=1 perm=RW\n"
                                      "setperm t=0 d=1 perm=-\n"
                                      "access d=1 off=0 type=W\n");
    EXPECT_TRUE(runDifferential(ops).ok());

    DiffConfig diff;
    diff.inject = BugInjection::MpkDropRevoke;
    const DiffResult result = runDifferential(ops, diff);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.violations[0].scheme, "mpk");
}

TEST(Differential, CorpusRegressionsStayFixed)
{
    const std::filesystem::path dir(PMODV_CORPUS_DIR);
    ASSERT_TRUE(std::filesystem::is_directory(dir));
    unsigned replayed = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() != ".ops")
            continue;
        const std::vector<Op> ops = loadOpsFile(entry.path().string());
        ASSERT_FALSE(ops.empty()) << entry.path();
        const DiffResult result = runDifferential(ops);
        EXPECT_TRUE(result.ok())
            << entry.path() << ": " << result.summary();
        ++replayed;
    }
    EXPECT_GE(replayed, 4u) << "corpus went missing";
}

/**
 * The whole corpus also holds on multi-core machines, where evictions
 * broadcast over the shootdown bus and the Ipi-event oracle is live.
 * K = 3 pins threads to cores by `tid % K` instead of a mask.
 */
class DifferentialCorpus : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(DifferentialCorpus, HoldsOnKCores)
{
    const std::filesystem::path dir(PMODV_CORPUS_DIR);
    ASSERT_TRUE(std::filesystem::is_directory(dir));
    DiffConfig diff;
    diff.topology.numCores = GetParam();
    unsigned replayed = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() != ".ops")
            continue;
        const std::vector<Op> ops = loadOpsFile(entry.path().string());
        const DiffResult result = runDifferential(ops, diff);
        EXPECT_TRUE(result.ok())
            << entry.path() << ": " << result.summary();
        ++replayed;
    }
    EXPECT_GE(replayed, 5u) << "multicore corpus entry went missing";
}

INSTANTIATE_TEST_SUITE_P(Cores, DifferentialCorpus,
                         ::testing::Values(2u, 3u, 4u));

TEST(Differential, GeneratorIsDeterministic)
{
    const GenConfig cfg = smallConfig();
    EXPECT_EQ(generateOps(42, cfg), generateOps(42, cfg));
    EXPECT_NE(generateOps(42, cfg), generateOps(43, cfg));
}

TEST(Differential, OpsRoundTripThroughText)
{
    const std::vector<Op> ops = generateOps(7, smallConfig());
    std::ostringstream out;
    printOps(out, ops);
    std::istringstream in(out.str());
    EXPECT_EQ(parseOps(in), ops);
}

TEST(Differential, ShrinkerRemovesIrrelevantOps)
{
    // A sequence whose failure (under injection) needs only 3 of its
    // ops; the padding accesses must all be shrunk away.
    std::vector<Op> ops = parse("attach d=1 pages=1 pageperm=RW\n"
                                "setperm t=0 d=1 perm=RW\n"
                                "out off=0 type=R\n"
                                "out off=4096 type=R\n"
                                "out off=8192 type=W\n"
                                "churn d=1 pages=8\n"
                                "setperm t=0 d=1 perm=-\n"
                                "access d=1 off=64 type=R\n");
    DiffConfig diff;
    diff.inject = BugInjection::MpkDropRevoke;
    ASSERT_FALSE(runDifferential(ops, diff).ok());

    const auto fails = [&](const std::vector<Op> &candidate) {
        return !runDifferential(candidate, diff).ok();
    };
    const std::vector<Op> shrunk = shrinkOps(ops, fails);
    EXPECT_LE(shrunk.size(), 4u);
    EXPECT_FALSE(runDifferential(shrunk, diff).ok());
}

TEST(Differential, BaselineCycleOrderingHolds)
{
    // Spot-check the cycle accounting directly on one busy episode.
    GenConfig cfg = smallConfig();
    cfg.numOps = 256;
    const std::vector<Op> ops = generateOps(3, cfg);
    ASSERT_TRUE(runDifferential(ops).ok());
}
