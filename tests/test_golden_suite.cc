/**
 * @file
 * Golden-output regression for the suite report: a tiny
 * ExperimentSuite (a one-core and a four-core micro point, a WHISPER
 * point and an open-loop server point with tail forensics on) must
 * serialize byte-identically to tests/data/golden_suite/suite.json.
 *
 * This pins the layout ExperimentSuite::writeJson emits — key order,
 * number formatting, the per-scheme maps, the embedded stats trees,
 * event rings, hot-domain tables and the blame block — so a refactor
 * of the row types or the writer cannot change a report byte. Only
 * the run-environment values (`jobs`, `wall_seconds`) are normalized.
 *
 * Regenerate the baseline (only when an intentional report or model
 * change lands) with:
 *
 *     PMODV_GOLDEN_REGEN=1 ./build/tests/test_golden_suite
 */

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.hh"
#include "exp/suite.hh"

namespace pmodv::exp
{
namespace
{

using arch::SchemeKind;

std::string
goldenPath()
{
    return std::string(PMODV_TESTDATA_DIR) + "/golden_suite/suite.json";
}

bool
regenRequested()
{
    const char *env = std::getenv("PMODV_GOLDEN_REGEN");
    return env != nullptr && *env != '\0' && *env != '0';
}

MicroPointSpec
microSpec(unsigned cores, std::vector<SchemeKind> schemes)
{
    MicroPointSpec spec;
    spec.benchmark = "avl";
    spec.params.numPmos = 24;
    spec.params.pmoBytes = Addr{1} << 20;
    spec.params.numOps = 300;
    spec.params.initialNodes = 64;
    spec.params.numThreads = cores;
    spec.config.topology.numCores = cores;
    spec.schemes = std::move(schemes);
    return spec;
}

WhisperPointSpec
whisperSpec()
{
    WhisperPointSpec spec;
    spec.benchmark = "echo";
    spec.params.numTxns = 100;
    spec.params.poolBytes = std::size_t{8} << 20;
    spec.params.initialKeys = 100;
    return spec;
}

ServerPointSpec
serverSpec()
{
    ServerPointSpec spec;
    spec.params.numTenants = 24;
    spec.params.numRequests = 200;
    spec.params.keysPerTenant = 8;
    spec.params.seed = 7;
    spec.config.slowRequestK = 4;
    spec.schemes = {SchemeKind::MpkVirt};
    return spec;
}

/** The suite report with its run-environment values blanked. */
std::string
normalizedReport(const ExperimentSuite &suite)
{
    std::ostringstream os;
    suite.writeJson(os);
    std::string report = os.str();
    for (const std::string key : {"\"jobs\": ", "\"wall_seconds\": "}) {
        const std::size_t key_at = report.find(key);
        if (key_at == std::string::npos)
            continue; // The golden comparison reports the difference.
        const std::size_t at = key_at + key.size();
        report.replace(at, report.find(',', at) - at, "0");
    }
    return report;
}

TEST(GoldenSuite, ReportBitIdentical)
{
    ExperimentSuite suite("golden");
    suite.add(microSpec(1, {SchemeKind::LibMpk, SchemeKind::MpkVirt,
                            SchemeKind::DomainVirt}));
    // Four cores: shootdown IPIs and per-core stats groups.
    suite.add(microSpec(4, {SchemeKind::MpkVirt}));
    suite.add(whisperSpec());
    suite.add(serverSpec());
    common::ThreadPool pool(2);
    suite.run(pool);
    ASSERT_EQ(suite.serverRows().size(), 1u);
    ASSERT_FALSE(suite.serverRows()[0].blame.empty());

    const std::string report = normalizedReport(suite);
    if (regenRequested()) {
        std::ofstream out(goldenPath(), std::ios::binary);
        ASSERT_TRUE(out.is_open()) << "cannot write " << goldenPath();
        out << report;
        return;
    }
    std::ifstream in(goldenPath(), std::ios::binary);
    ASSERT_TRUE(in.is_open())
        << "missing golden report " << goldenPath()
        << " (run with PMODV_GOLDEN_REGEN=1 to create it)";
    std::ostringstream want;
    want << in.rdbuf();
    EXPECT_EQ(report, want.str())
        << "the suite report drifted from the golden baseline";
}

} // namespace
} // namespace pmodv::exp
