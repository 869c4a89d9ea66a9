/**
 * @file
 * Multi-threaded trace semantics at the System level: context
 * switches, per-thread permission windows and the cost asymmetry the
 * paper highlights — MPK virtualization flushes the DTTLB on a
 * switch, domain virtualization keeps the TLB and only spills dirty
 * PTLB entries.
 */

#include <gtest/gtest.h>

#include <map>

#include "core/system.hh"
#include "replay_util.hh"

namespace pmodv
{
namespace
{

using arch::SchemeKind;
using trace::TraceRecord;

constexpr Addr kBase = Addr{1} << 33;
constexpr Addr kStride = Addr{16} << 20;
constexpr Addr kSize = Addr{1} << 20;

/**
 * A two-thread trace: each thread owns @p domains_per_thread PMOs and
 * round-robins over them; the core ping-pongs between the threads.
 */
std::vector<TraceRecord>
pingPongTrace(unsigned rounds, unsigned accesses_per_round,
              unsigned domains_per_thread = 1)
{
    std::vector<TraceRecord> t;
    const unsigned total = 2 * domains_per_thread;
    for (unsigned d = 1; d <= total; ++d) {
        t.push_back(TraceRecord::attach(0, d, kBase + (d - 1) * kStride,
                                        kSize, Perm::ReadWrite));
    }
    for (unsigned d = 0; d < domains_per_thread; ++d)
        t.push_back(TraceRecord::setPerm(0, d + 1, Perm::ReadWrite));
    t.push_back(TraceRecord::threadSwitch(1));
    for (unsigned d = 0; d < domains_per_thread; ++d)
        t.push_back(TraceRecord::setPerm(
            1, domains_per_thread + d + 1, Perm::ReadWrite));
    t.push_back(TraceRecord::threadSwitch(0));

    for (unsigned r = 0; r < rounds; ++r) {
        for (unsigned tid = 0; tid < 2; ++tid) {
            t.push_back(TraceRecord::threadSwitch(
                static_cast<std::uint16_t>(tid)));
            for (unsigned a = 0; a < accesses_per_round; ++a) {
                const unsigned d = tid * domains_per_thread +
                                   (r + a) % domains_per_thread;
                t.push_back(TraceRecord::load(
                    static_cast<std::uint16_t>(tid),
                    kBase + d * kStride + (a * 4096) % kSize, 8,
                    true));
            }
        }
    }
    return t;
}

class MultiThread : public ::testing::TestWithParam<SchemeKind>
{
};

TEST_P(MultiThread, PingPongRunsWithoutFaults)
{
    core::SimConfig cfg;
    core::System sys(cfg, GetParam());
    sys.replayBatch(pingPongTrace(20, 8));
    EXPECT_DOUBLE_EQ(sys.deniedAccesses.value(), 0.0)
        << arch::schemeName(GetParam());
}

TEST_P(MultiThread, CrossThreadAccessDenied)
{
    // Thread 0 has permission for domain 1 only; if it touches
    // domain 2's PMO the access must be denied by every enforcing
    // scheme.
    core::SimConfig cfg;
    core::System sys(cfg, GetParam());
    for (unsigned d = 1; d <= 2; ++d) {
        test::feed(sys,
                   TraceRecord::attach(0, d, kBase + (d - 1) * kStride,
                                       kSize, Perm::ReadWrite));
    }
    test::feed(sys, TraceRecord::setPerm(0, 1, Perm::ReadWrite));
    test::feed(sys, TraceRecord::load(0, kBase, 8, true)); // OK.
    test::feed(sys, TraceRecord::load(0, kBase + kStride, 8,
                                      true)); // Denied.
    EXPECT_DOUBLE_EQ(sys.deniedAccesses.value(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    EnforcingSchemes, MultiThread,
    ::testing::Values(SchemeKind::Mpk, SchemeKind::LibMpk,
                      SchemeKind::MpkVirt, SchemeKind::DomainVirt),
    [](const ::testing::TestParamInfo<SchemeKind> &info) {
        return std::string(arch::schemeName(info.param));
    });

/** Total cycles of @p trace under lowerbound and both proposals. */
std::map<SchemeKind, Cycles>
regimeCycles(const std::vector<TraceRecord> &trace)
{
    std::map<SchemeKind, Cycles> cycles;
    for (SchemeKind kind : {SchemeKind::Lowerbound, SchemeKind::MpkVirt,
                            SchemeKind::DomainVirt}) {
        core::System sys(core::SimConfig{}, kind);
        sys.replayBatch(trace);
        sys.finish();
        cycles[kind] = sys.totalCycles();
    }
    return cycles;
}

TEST(MultiThread, FewDomainsFavourMpkVirt)
{
    // With 2 domains both hold keys forever: MPK virt never remaps
    // and rides TLB hits, while domain virt pays PTLB refills after
    // every context switch — the paper's small-PMO-count regime.
    const auto cycles = regimeCycles(pingPongTrace(200, 4, 1));
    const Cycles lb = cycles.at(SchemeKind::Lowerbound);
    const Cycles mpkv = cycles.at(SchemeKind::MpkVirt);
    const Cycles domv = cycles.at(SchemeKind::DomainVirt);
    EXPECT_GE(mpkv, lb);
    EXPECT_GT(domv, lb);
    EXPECT_LT(mpkv, domv);
}

TEST(MultiThread, ManyDomainsFavourDomainVirt)
{
    // 40 domains over 15 keys: MPK virt remaps (and shoots down)
    // constantly; domain virt stays at PTLB-miss cost — the paper's
    // large-PMO-count regime.
    const auto cycles = regimeCycles(pingPongTrace(100, 20, 20));
    const Cycles lb = cycles.at(SchemeKind::Lowerbound);
    const Cycles mpkv = cycles.at(SchemeKind::MpkVirt);
    const Cycles domv = cycles.at(SchemeKind::DomainVirt);
    EXPECT_GT(mpkv, lb);
    EXPECT_GT(domv, lb);
    EXPECT_LT(domv, mpkv);
}

TEST(MultiThread, PermissionsFollowThreadsNotCore)
{
    // After many switches, each thread's window is still exactly its
    // own domain (no leakage through the shared core structures).
    for (SchemeKind kind :
         {SchemeKind::MpkVirt, SchemeKind::DomainVirt}) {
        core::SimConfig cfg;
        core::System sys(cfg, kind);
        sys.replayBatch(pingPongTrace(50, 2));
        // Thread 1 (currently scheduled last in the ping-pong? make
        // sure: switch to thread 1) touches thread 0's domain.
        test::feed(sys, TraceRecord::threadSwitch(1));
        test::feed(sys, TraceRecord::load(1, kBase, 8, true));
        EXPECT_DOUBLE_EQ(sys.deniedAccesses.value(), 1.0)
            << arch::schemeName(kind);
    }
}

TEST(MultiThread, ContextSwitchCountsTracked)
{
    core::SimConfig cfg;
    core::System sys(cfg, SchemeKind::DomainVirt);
    sys.replayBatch(pingPongTrace(10, 2));
    // 2 setup switches + 2 per round x 10 rounds.
    EXPECT_DOUBLE_EQ(static_cast<stats::Group &>(sys).lookup(
                         "domain_virt.context_switches"),
                     22.0);
}

} // namespace
} // namespace pmodv
