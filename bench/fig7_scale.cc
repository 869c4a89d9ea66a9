/**
 * @file
 * Extension of Figure 7 to multi-core machines: the scheme x PMOs x
 * cores overhead surface on the AVL microbenchmark (one worker thread
 * pinned per simulated core).
 *
 * The point of the experiment is the paper's structural argument at
 * scale: every key eviction under libmpk / MPK virtualization now
 * broadcasts a TLB shootdown whose cost grows with the number of
 * *responding* cores (cores whose private TLBs hold stale entries of
 * the victim PMO), while domain virtualization never shoots down at
 * all — its overhead column stays flat as the core count climbs. The
 * tlb_invalidation breakdown column makes the mechanism visible
 * directly.
 */

#include <cstdio>

#include "bench_util.hh"
#include "common/thread_pool.hh"
#include "exp/suite.hh"

int
main(int argc, char **argv)
{
    using namespace pmodv;
    using arch::SchemeKind;
    const auto opt = bench::parseOptions(argc, argv);

    exp::SweepSpec sweep;
    sweep.benchmarks = {"avl"};
    sweep.pmoCounts = !opt.pmoCounts.empty()
                          ? opt.pmoCounts
                          : (opt.quick ? std::vector<unsigned>{64, 256}
                                       : std::vector<unsigned>{64, 256,
                                                               1024});
    sweep.coreCounts =
        !opt.coreCounts.empty()
            ? opt.coreCounts
            : (opt.quick ? std::vector<unsigned>{1, 2, 4}
                         : std::vector<unsigned>{1, 2, 4, 8});
    sweep.base.initialNodes = 1024;
    sweep.base.numOps = opt.ops ? opt.ops : (opt.quick ? 4'000 : 20'000);
    sweep.schemes = {SchemeKind::LibMpk, SchemeKind::MpkVirt,
                     SchemeKind::DomainVirt};
    bench::applyObservability(sweep.config, opt);

    exp::ExperimentSuite suite("fig7_scale");
    suite.add(sweep);
    common::ThreadPool pool(opt.jobs);
    bench::Profiler profiler(suite, sweep.config, opt);
    suite.run(pool);

    std::printf("=== Figure 7 at scale: overhead over lowerbound vs "
                "#PMOs x #cores (avl, %llu ops/point) ===\n",
                static_cast<unsigned long long>(sweep.base.numOps));

    if (opt.csv) {
        std::printf("benchmark,pmos,cores,libmpk_pct,mpk_virt_pct,"
                    "domain_virt_pct,libmpk_inval_pct,"
                    "mpk_virt_inval_pct,mpk_virt_remaps,"
                    "libmpk_ipis,mpk_virt_ipis,domain_virt_ipis\n");
        for (const exp::MicroPoint &pt : suite.microRows()) {
            std::printf(
                "%s,%u,%u,%.3f,%.3f,%.3f,%.3f,%.3f,%llu,%llu,%llu,"
                "%llu\n",
                pt.benchmark.c_str(), pt.numPmos, pt.cores,
                pt.overheadPct.at(SchemeKind::LibMpk),
                pt.overheadPct.at(SchemeKind::MpkVirt),
                pt.overheadPct.at(SchemeKind::DomainVirt),
                pt.breakdown.at(SchemeKind::LibMpk).tlbInvalidationPct,
                pt.breakdown.at(SchemeKind::MpkVirt).tlbInvalidationPct,
                static_cast<unsigned long long>(
                    pt.keyRemaps.at(SchemeKind::MpkVirt)),
                static_cast<unsigned long long>(
                    pt.ipisResponded.at(SchemeKind::LibMpk)),
                static_cast<unsigned long long>(
                    pt.ipisResponded.at(SchemeKind::MpkVirt)),
                static_cast<unsigned long long>(
                    pt.ipisResponded.at(SchemeKind::DomainVirt)));
        }
    } else {
        for (unsigned pmos : sweep.pmoCounts) {
            std::printf("\n-- %u PMOs --\n", pmos);
            std::printf("%7s %12s %12s %14s | %13s %13s %13s\n",
                        "cores", "libmpk(%)", "mpk_virt(%)",
                        "domain_virt(%)", "libmpk IPIs", "mpk_v IPIs",
                        "dom_v IPIs");
            bench::rule(92);
            for (const exp::MicroPoint &pt : suite.microRows()) {
                if (pt.numPmos != pmos)
                    continue;
                std::printf(
                    "%7u %12.1f %12.1f %14.1f | %13llu %13llu %13llu\n",
                    pt.cores, pt.overheadPct.at(SchemeKind::LibMpk),
                    pt.overheadPct.at(SchemeKind::MpkVirt),
                    pt.overheadPct.at(SchemeKind::DomainVirt),
                    static_cast<unsigned long long>(
                        pt.ipisResponded.at(SchemeKind::LibMpk)),
                    static_cast<unsigned long long>(
                        pt.ipisResponded.at(SchemeKind::MpkVirt)),
                    static_cast<unsigned long long>(
                        pt.ipisResponded.at(SchemeKind::DomainVirt)));
            }
        }
        std::printf(
            "\nReading the surface: the IPI columns count remote "
            "cores that held stale TLB entries of\nan evicted PMO "
            "and paid the ranged-invalidation charge. They grow "
            "with the core count\nfor libmpk and MPK virtualization "
            "— every extra core is another potential responder —\n"
            "and are identically zero for domain virtualization, "
            "which revokes by editing the PT and\nnever shoots "
            "down. This is the paper's second design winning at "
            "scale.\n");
    }
    // stderr so the stdout table is byte-identical across --jobs.
    std::fprintf(stderr, "(sweep wall-clock: %.2f s on %u worker%s)\n",
                 suite.wallSeconds(), suite.jobs(),
                 suite.jobs() == 1 ? "" : "s");
    bench::writeJsonIfRequested(suite, opt);
    bench::dumpStatsIfRequested(suite, opt);
    profiler.writeTrace();
    return 0;
}
