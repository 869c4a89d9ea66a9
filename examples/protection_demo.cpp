/**
 * @file
 * Driving the architecture simulator directly: capture a real
 * application trace from the PMO library (a session-store workload)
 * and replay it under every protection scheme, printing the paper's
 * headline comparison on your own workload.
 */

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "core/system.hh"
#include "pmo/api.hh"

using namespace pmodv;
using arch::SchemeKind;
using pmo::Oid;

int
main()
{
    // A session store: 48 PMOs (one per session), random updates with
    // a SETPERM window per operation. The runtime's trace is captured
    // once into memory and then replayed on six simulated machines.
    trace::VectorSink capture;
    pmo::Namespace ns;
    pmo::PmoApi api(ns, 1000, 1);
    pmo::Runtime &rt = api.runtime();
    rt.setTraceSink(&capture);

    constexpr unsigned kSessions = 48;
    constexpr unsigned kOps = 3'000;
    std::vector<pmo::Pool *> pools;
    std::vector<Oid> records;
    for (unsigned s = 0; s < kSessions; ++s) {
        pmo::Pool *pool =
            api.poolCreate("sess" + std::to_string(s), 256 << 10);
        pools.push_back(pool);
        records.push_back(api.poolRoot(pool, 64));
    }

    Rng rng(7);
    for (unsigned op = 0; op < kOps; ++op) {
        const unsigned s = static_cast<unsigned>(rng.next(kSessions));
        rt.opBegin(0);
        rt.compute(0, 400); // Request parsing etc.
        api.setPerm(0, pools[s], Perm::ReadWrite);
        std::uint8_t record[64];
        rt.read(0, records[s], record, sizeof(record));
        record[0] += 1;
        rt.write(0, records[s], record, sizeof(record));
        api.setPerm(0, pools[s], Perm::None);
        rt.opEnd(0);
    }
    rt.setTraceSink(nullptr);

    core::SimConfig config;
    std::map<SchemeKind, std::unique_ptr<core::System>> systems;
    for (SchemeKind kind :
         {SchemeKind::NoProtection, SchemeKind::Lowerbound,
          SchemeKind::Mpk, SchemeKind::LibMpk, SchemeKind::MpkVirt,
          SchemeKind::DomainVirt}) {
        auto &sys = systems[kind];
        sys = std::make_unique<core::System>(config, kind);
        sys->replayBatch(capture.records());
        sys->finish();
    }

    // Report.
    std::printf("=== protection_demo: %u sessions, %u operations ===\n",
                kSessions, kOps);
    std::printf("%-14s %14s %16s %18s\n", "scheme", "cycles",
                "vs baseline(%)", "vs lowerbound(%)");
    const double base = static_cast<double>(
        systems.at(SchemeKind::NoProtection)->totalCycles());
    const double lower = static_cast<double>(
        systems.at(SchemeKind::Lowerbound)->totalCycles());
    for (const auto &[kind, sys_ptr] : systems) {
        const core::System &sys = *sys_ptr;
        const double cycles = static_cast<double>(sys.totalCycles());
        std::printf("%-14s %14.0f %16.2f %18.2f\n",
                    arch::schemeName(kind), cycles,
                    (cycles - base) / base * 100.0,
                    (cycles - lower) / lower * 100.0);
        if (sys.deniedAccesses.value() != 0)
            std::printf("  (!) %llu denied accesses\n",
                        static_cast<unsigned long long>(
                            sys.deniedAccesses.value()));
    }

    std::printf("\nper-operation latency (mean / max cycles):\n");
    for (const auto &[kind, sys] : systems) {
        const auto &h = sys->opCycles;
        std::printf("%-14s %10.0f %10llu\n", arch::schemeName(kind),
                    h.mean(),
                    static_cast<unsigned long long>(h.max()));
    }
    std::printf("\nWith %u domains, stock MPK ran out of keys: %g "
                "sessions went unprotected (key_exhausted).\n",
                kSessions,
                static_cast<const stats::Group &>(
                    *systems.at(SchemeKind::Mpk))
                    .lookup("mpk.key_exhausted"));
    std::printf("The two proposed schemes protect all %u domains; "
                "compare their overhead columns with libmpk's.\n",
                kSessions);
    return 0;
}
