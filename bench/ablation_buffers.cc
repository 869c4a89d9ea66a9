/**
 * @file
 * Extension (not in the paper): ablation of the design constants the
 * paper fixes — DTTLB/PTLB capacity and the TLB-shootdown cost — on
 * one representative workload. Answers the design questions DESIGN.md
 * calls out: how much of MPK virtualization's overhead is the 16-key
 * limit vs the shootdown price, and how quickly domain
 * virtualization's PTLB stops mattering as it grows.
 *
 * Every section is a batch of independent points handed to the
 * parallel exp::Executor, so the whole ablation grid spreads over
 * --jobs workers.
 */

#include <cstdio>

#include "bench_util.hh"
#include "common/thread_pool.hh"
#include "exp/executor.hh"

namespace
{

using namespace pmodv;
using arch::SchemeKind;

exp::MicroPointSpec
avlSpec(const workloads::MicroParams &mp, const core::SimConfig &config)
{
    exp::MicroPointSpec spec;
    spec.benchmark = "avl";
    spec.params = mp;
    spec.config = config;
    spec.schemes = {SchemeKind::MpkVirt, SchemeKind::DomainVirt};
    return spec;
}

/** The two-thread context-switch trace of section [5]. */
std::shared_ptr<const trace::TraceBuffer>
makeCtxSwitchTrace(unsigned span)
{
    using trace::TraceRecord;
    std::vector<TraceRecord> t;
    constexpr Addr base = Addr{1} << 33;
    constexpr Addr stride = Addr{16} << 20;
    constexpr unsigned per_thread = 24;
    for (unsigned d = 1; d <= 2 * per_thread; ++d) {
        t.push_back(TraceRecord::attach(
            0, d, base + (d - 1) * stride, Addr{1} << 20,
            Perm::ReadWrite));
    }
    for (unsigned tid = 0; tid < 2; ++tid) {
        t.push_back(TraceRecord::threadSwitch(
            static_cast<std::uint16_t>(tid)));
        for (unsigned d = 0; d < per_thread; ++d) {
            t.push_back(TraceRecord::setPerm(
                static_cast<std::uint16_t>(tid),
                tid * per_thread + d + 1, Perm::ReadWrite));
        }
    }
    const unsigned total_accesses = 40'000;
    unsigned tid = 0, since_switch = 0, step = 0;
    for (unsigned a = 0; a < total_accesses; ++a) {
        if (since_switch++ == span) {
            since_switch = 0;
            tid ^= 1;
            t.push_back(TraceRecord::threadSwitch(
                static_cast<std::uint16_t>(tid)));
        }
        const unsigned d = tid * per_thread + (step++ % per_thread);
        t.push_back(TraceRecord::load(
            static_cast<std::uint16_t>(tid),
            base + d * stride + (a * 4096) % (Addr{1} << 20), 8,
            true));
    }
    return trace::TraceBuffer::copyOf(t);
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opt = bench::parseOptions(argc, argv);
    bench::rejectReportFlags(opt, argv[0]);

    workloads::MicroParams mp;
    mp.numPmos = 256;
    mp.initialNodes = 1024;
    mp.numOps = opt.ops ? opt.ops : (opt.quick ? 4'000 : 20'000);

    common::ThreadPool pool(opt.jobs);
    exp::Executor executor(pool);
    executor.setProgress(opt.progress);

    std::printf("=== Ablation: buffer sizing and shootdown cost "
                "(avl, %u PMOs, %llu ops) ===\n",
                mp.numPmos,
                static_cast<unsigned long long>(mp.numOps));

    std::printf("\n[1] PTLB capacity (domain virtualization)\n");
    std::printf("%12s %18s\n", "PTLB entries", "domain_virt(%)");
    bench::rule(32);
    {
        const std::vector<unsigned> entries{4, 8, 16, 32, 64, 128};
        std::vector<exp::MicroPointSpec> specs;
        for (unsigned n : entries) {
            core::SimConfig config;
            config.prot.ptlbEntries = n;
            specs.push_back(avlSpec(mp, config));
        }
        const auto rows = executor.runMicro(specs);
        for (std::size_t i = 0; i < rows.size(); ++i) {
            std::printf("%12u %18.1f\n", entries[i],
                        rows[i].overheadPct.at(SchemeKind::DomainVirt));
        }
    }

    std::printf("\n[2] DTTLB capacity (MPK virtualization; note the "
                "key count stays 16,\n    so capacity only helps the "
                "DTT-walk rate, not the eviction rate)\n");
    std::printf("%12s %18s %14s\n", "DTTLB entries", "mpk_virt(%)",
                "key remaps");
    bench::rule(48);
    {
        const std::vector<unsigned> entries{4, 8, 16, 32, 64};
        std::vector<exp::MicroPointSpec> specs;
        for (unsigned n : entries) {
            core::SimConfig config;
            config.prot.dttlbEntries = n;
            specs.push_back(avlSpec(mp, config));
        }
        const auto rows = executor.runMicro(specs);
        for (std::size_t i = 0; i < rows.size(); ++i) {
            std::printf("%12u %18.1f %14llu\n", entries[i],
                        rows[i].overheadPct.at(SchemeKind::MpkVirt),
                        static_cast<unsigned long long>(
                            rows[i].keyRemaps.at(SchemeKind::MpkVirt)));
        }
    }

    std::printf("\n[3] TLB invalidation (shootdown) cost "
                "(MPK virtualization)\n");
    std::printf("%16s %18s\n", "cycles/shootdown", "mpk_virt(%)");
    bench::rule(36);
    {
        const std::vector<Cycles> costs{0, 143, 286, 572, 1144};
        std::vector<exp::MicroPointSpec> specs;
        for (Cycles cost : costs) {
            core::SimConfig config;
            config.topology.tlbInvalidationCycles = cost;
            specs.push_back(avlSpec(mp, config));
        }
        const auto rows = executor.runMicro(specs);
        for (std::size_t i = 0; i < rows.size(); ++i) {
            std::printf("%16llu %18.1f\n",
                        static_cast<unsigned long long>(costs[i]),
                        rows[i].overheadPct.at(SchemeKind::MpkVirt));
        }
    }

    std::printf("\n[4] Simulated core count (broadcast shootdowns "
                "charge per responding core; domain virtualization "
                "is immune)\n");
    std::printf("%8s %14s %16s\n", "cores", "mpk_virt(%)",
                "domain_virt(%)");
    bench::rule(40);
    {
        const std::vector<unsigned> cores{1, 2, 4, 8};
        std::vector<exp::MicroPointSpec> specs;
        for (unsigned n : cores) {
            core::SimConfig config;
            config.topology.numCores = n;
            workloads::MicroParams mp_mt = mp;
            mp_mt.numThreads = n; // One worker per core keeps every
                                  // core's TLB warm with PMO entries.
            specs.push_back(avlSpec(mp_mt, config));
        }
        const auto rows = executor.runMicro(specs);
        for (std::size_t i = 0; i < rows.size(); ++i) {
            std::printf("%8u %14.1f %16.1f\n", cores[i],
                        rows[i].overheadPct.at(SchemeKind::MpkVirt),
                        rows[i].overheadPct.at(SchemeKind::DomainVirt));
        }
    }

    std::printf("\n[5] Context-switch frequency (two threads over 24 "
                "domains each;\n    MPK virt reconstructs PKRU + "
                "flushes the DTTLB, domain virt only spills dirty "
                "PTLB entries)\n");
    std::printf("%18s %14s %16s\n", "accesses/switch", "mpk_virt(%)",
                "domain_virt(%)");
    bench::rule(50);
    {
        const std::vector<unsigned> spans{2, 8, 32, 128};
        std::vector<exp::RawPointSpec> specs;
        for (unsigned span : spans) {
            exp::RawPointSpec spec;
            spec.trace = makeCtxSwitchTrace(span);
            spec.schemes = {SchemeKind::Lowerbound, SchemeKind::MpkVirt,
                            SchemeKind::DomainVirt};
            specs.push_back(std::move(spec));
        }
        const auto rows = executor.runRaw(specs);
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const double lb = static_cast<double>(
                rows[i].schemes.at(SchemeKind::Lowerbound).cycles);
            auto over = [&](SchemeKind k) {
                return (static_cast<double>(rows[i].schemes.at(k).cycles) -
                        lb) /
                       lb * 100.0;
            };
            std::printf("%18u %14.1f %16.1f\n", spans[i],
                        over(SchemeKind::MpkVirt),
                        over(SchemeKind::DomainVirt));
        }
    }

    std::printf("\n[6] Attach mapping granularity (avl, 256 PMOs). "
                "2MB pages collapse the baseline TLB-miss rate, yet\n"
                "    the remap count is unchanged: every access to an "
                "evicted domain is a TLB miss *because the\n"
                "    eviction's shootdown flushed it* — key capacity, "
                "not TLB reach, is the binding constraint.\n");
    std::printf("%12s %14s %16s %14s\n", "page size", "mpk_virt(%)",
                "domain_virt(%)", "remaps");
    bench::rule(60);
    {
        const std::vector<PageSize> sizes{PageSize::Size4K,
                                          PageSize::Size2M};
        std::vector<exp::MicroPointSpec> specs;
        for (PageSize ps : sizes) {
            workloads::MicroParams hp = mp;
            hp.pageSize = ps;
            specs.push_back(avlSpec(hp, core::SimConfig{}));
        }
        const auto rows = executor.runMicro(specs);
        for (std::size_t i = 0; i < rows.size(); ++i) {
            std::printf("%12s %14.1f %16.1f %14llu\n",
                        sizes[i] == PageSize::Size4K ? "4KB" : "2MB",
                        rows[i].overheadPct.at(SchemeKind::MpkVirt),
                        rows[i].overheadPct.at(SchemeKind::DomainVirt),
                        static_cast<unsigned long long>(
                            rows[i].keyRemaps.at(SchemeKind::MpkVirt)));
        }
    }

    std::printf("\nTakeaways: the PTLB saturates quickly (16 entries "
                "is already near the knee); MPK virtualization's\n"
                "overhead is dominated by the shootdown price and "
                "scales with core count — the structural reason the\n"
                "paper's second design wins at scale.\n");
    return 0;
}
