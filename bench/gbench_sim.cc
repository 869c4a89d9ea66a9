/**
 * @file
 * Google-benchmark microbenchmarks of the simulator substrate: host
 * throughput of TLB translation, cache access, protection checks and
 * full trace-record replay — the numbers that determine how fast the
 * table/figure experiments run.
 */

#include <string>

#include <benchmark/benchmark.h>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "core/system.hh"
#include "exp/executor.hh"

namespace
{

using namespace pmodv;
using arch::SchemeKind;
using trace::TraceRecord;

constexpr Addr kBase = Addr{1} << 33;
constexpr Addr kSize = Addr{8} << 20;

void
BM_CacheAccess(benchmark::State &state)
{
    stats::Group root(nullptr, "");
    mem::CacheHierarchy caches(&root, {});
    Rng rng(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(caches.access(rng.next(1 << 26),
                                               AccessType::Read,
                                               MemClass::Dram));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void
BM_TlbTranslate(benchmark::State &state)
{
    stats::Group root(nullptr, "");
    tlb::AddressSpace space;
    tlb::Region region;
    region.base = kBase;
    region.size = kSize;
    region.domain = 1;
    region.memClass = MemClass::Nvm;
    space.map(region);
    tlb::TlbHierarchy tlbs(&root, {}, space);
    Rng rng(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            tlbs.translate(0, kBase + rng.next(kSize)));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TlbTranslate);

/** Replay @p rec through @p sys as a one-record span. */
void
replayOne(core::System &sys, const TraceRecord &rec)
{
    sys.replayBatch({&rec, 1});
}

/** Label like "mpk_virt/64K" for a scheme + working-set pair. */
std::string
replayLabel(SchemeKind kind, Addr range)
{
    const auto kb = static_cast<unsigned long long>(range >> 10);
    return std::string(arch::schemeName(kind)) + "/" +
           (kb >= 1024 ? std::to_string(kb >> 10) + "M"
                       : std::to_string(kb) + "K");
}

void
BM_ReplayRecordThroughput(benchmark::State &state)
{
    // Each load replays as its own one-record span, so every record
    // pays replayBatch's per-call setup. Arg 1 is log2 of the touched
    // address range: 16 (64KB — TLB and cache resident, the
    // engine-bound regime) or 23 (8MB — every level thrashes, the
    // model-bound regime).
    const auto kind = static_cast<SchemeKind>(state.range(0));
    const Addr range = Addr{1} << state.range(1);
    core::SimConfig cfg;
    core::System sys(cfg, kind);
    replayOne(sys,
              TraceRecord::attach(0, 1, kBase, kSize, Perm::ReadWrite));
    replayOne(sys, TraceRecord::setPerm(0, 1, Perm::ReadWrite));
    Rng rng(7);
    for (auto _ : state) {
        replayOne(sys, TraceRecord::load(0, kBase + rng.next(range - 8),
                                         8, true));
    }
    state.SetItemsProcessed(state.iterations());
    state.SetLabel(replayLabel(kind, range));
}
BENCHMARK(BM_ReplayRecordThroughput)
    ->Args({static_cast<int>(SchemeKind::NoProtection), 16})
    ->Args({static_cast<int>(SchemeKind::Mpk), 16})
    ->Args({static_cast<int>(SchemeKind::MpkVirt), 16})
    ->Args({static_cast<int>(SchemeKind::DomainVirt), 16})
    ->Args({static_cast<int>(SchemeKind::LibMpk), 16})
    ->Args({static_cast<int>(SchemeKind::NoProtection), 23})
    ->Args({static_cast<int>(SchemeKind::MpkVirt), 23})
    ->Args({static_cast<int>(SchemeKind::DomainVirt), 23});

void
BM_ReplayBatchThroughput(benchmark::State &state)
{
    // The batch engine on the same access stream as
    // BM_ReplayRecordThroughput: one immutable TraceBuffer replayed
    // via System::replayBatch in 64K-record spans. The ratio of the
    // two benchmarks is what long spans save over one-record spans.
    const auto kind = static_cast<SchemeKind>(state.range(0));
    const Addr range = Addr{1} << state.range(1);
    core::SimConfig cfg;
    core::System sys(cfg, kind);
    replayOne(sys,
              TraceRecord::attach(0, 1, kBase, kSize, Perm::ReadWrite));
    replayOne(sys, TraceRecord::setPerm(0, 1, Perm::ReadWrite));
    constexpr std::size_t kBatch = 65536;
    std::vector<TraceRecord> records;
    records.reserve(kBatch);
    Rng rng(7);
    for (std::size_t i = 0; i < kBatch; ++i) {
        records.push_back(
            TraceRecord::load(0, kBase + rng.next(range - 8), 8, true));
    }
    const auto buf = trace::TraceBuffer::copyOf(records);
    for (auto _ : state)
        sys.replayBatch(buf->records());
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(buf->size()));
    state.SetLabel(replayLabel(kind, range));
}
BENCHMARK(BM_ReplayBatchThroughput)
    ->Args({static_cast<int>(SchemeKind::NoProtection), 16})
    ->Args({static_cast<int>(SchemeKind::Mpk), 16})
    ->Args({static_cast<int>(SchemeKind::MpkVirt), 16})
    ->Args({static_cast<int>(SchemeKind::DomainVirt), 16})
    ->Args({static_cast<int>(SchemeKind::LibMpk), 16})
    ->Args({static_cast<int>(SchemeKind::NoProtection), 23})
    ->Args({static_cast<int>(SchemeKind::MpkVirt), 23})
    ->Args({static_cast<int>(SchemeKind::DomainVirt), 23});

void
BM_ReplayStreamThroughput(benchmark::State &state)
{
    // Streaming regime: 64 sequential 8-byte loads per 4K page, so 63
    // of every 64 lookups repeat the previous page and 7 of every 8
    // the previous line. This is the best case for a last-answer
    // filter, kept measured now that the TLB and cache have none.
    const auto kind = static_cast<SchemeKind>(state.range(0));
    core::SimConfig cfg;
    core::System sys(cfg, kind);
    replayOne(sys,
              TraceRecord::attach(0, 1, kBase, kSize, Perm::ReadWrite));
    replayOne(sys, TraceRecord::setPerm(0, 1, Perm::ReadWrite));
    constexpr std::size_t kBatch = 65536;
    constexpr std::size_t kPerPage = 64;
    std::vector<TraceRecord> records;
    records.reserve(kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) {
        const Addr va = kBase + (i / kPerPage) * 4096 +
                        (i % kPerPage) * 8;
        records.push_back(TraceRecord::load(0, va, 8, true));
    }
    const auto buf = trace::TraceBuffer::copyOf(records);
    for (auto _ : state)
        sys.replayBatch(buf->records());
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(buf->size()));
    state.SetLabel(std::string(arch::schemeName(kind)) + "/stream");
}
BENCHMARK(BM_ReplayStreamThroughput)
    ->Arg(static_cast<int>(SchemeKind::NoProtection))
    ->Arg(static_cast<int>(SchemeKind::DomainVirt));

void
BM_ReplayMultiCoreThroughput(benchmark::State &state)
{
    // The K-core batch engine: one round-robin-interleaved stream
    // with a worker thread pinned per core, each hammering its own
    // PMO under MPK virtualization. Records/sec here is the cost of
    // the per-core context switch in the hot loop (core lookup +
    // shootdown-bus checks); compare against the 1-core row to see
    // the multi-core plumbing's engine overhead.
    const auto cores = static_cast<unsigned>(state.range(0));
    core::SimConfig cfg;
    cfg.topology.numCores = cores;
    core::System sys(cfg, SchemeKind::MpkVirt);
    const Addr stride = Addr{16} << 20;
    for (unsigned t = 0; t < cores; ++t) {
        replayOne(sys, TraceRecord::attach(t, t + 1, kBase + t * stride,
                                           kSize, Perm::ReadWrite));
        replayOne(sys, TraceRecord::setPerm(t, t + 1, Perm::ReadWrite));
    }
    constexpr std::size_t kBatch = 65536;
    std::vector<TraceRecord> records;
    records.reserve(kBatch);
    Rng rng(7);
    for (std::size_t i = 0; i < kBatch; ++i) {
        const auto t = static_cast<ThreadId>(i % cores);
        records.push_back(TraceRecord::load(
            t, kBase + t * stride + rng.next(kSize - 8), 8, true));
    }
    const auto buf = trace::TraceBuffer::copyOf(records);
    for (auto _ : state)
        sys.replayBatch(buf->records());
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(buf->size()));
    state.SetLabel("mpk_virt/" + std::to_string(cores) + "core");
}
BENCHMARK(BM_ReplayMultiCoreThroughput)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void
BM_MultiDomainReplay(benchmark::State &state)
{
    // The hot loop of the Figure 6 sweeps: accesses spread over many
    // domains under MPK virtualization (constant remap pressure).
    core::SimConfig cfg;
    core::System sys(cfg, SchemeKind::MpkVirt);
    const unsigned domains = static_cast<unsigned>(state.range(0));
    const Addr stride = Addr{16} << 20;
    for (unsigned i = 0; i < domains; ++i) {
        replayOne(sys, TraceRecord::attach(0, i + 1, kBase + i * stride,
                                           kSize, Perm::ReadWrite));
        replayOne(sys, TraceRecord::setPerm(0, i + 1, Perm::ReadWrite));
    }
    Rng rng(7);
    for (auto _ : state) {
        const unsigned d = static_cast<unsigned>(rng.next(domains));
        replayOne(sys, TraceRecord::load(
                           0, kBase + d * stride + rng.next(kSize - 8),
                           8, true));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MultiDomainReplay)->Arg(16)->Arg(64)->Arg(256);

void
BM_ReplaySamplingOverhead(benchmark::State &state)
{
    // Cost of the timeline profiler on the replay hot loop. Arg 0 is
    // the epoch width in cycles (0 = sampling disabled — the default
    // configuration, whose throughput must stay within noise of the
    // pre-profiler replay loop; the tick is one predictable
    // compare-and-branch). Compare the 0 row against the others to
    // see the enabled cost shrink as epochs widen.
    core::SimConfig cfg;
    cfg.samplingEpochCycles = static_cast<Cycles>(state.range(0));
    cfg.samplingMaxEpochs = 256;
    core::System sys(cfg, SchemeKind::MpkVirt);
    replayOne(sys,
              TraceRecord::attach(0, 1, kBase, kSize, Perm::ReadWrite));
    replayOne(sys, TraceRecord::setPerm(0, 1, Perm::ReadWrite));
    Rng rng(7);
    for (auto _ : state) {
        replayOne(sys, TraceRecord::load(0, kBase + rng.next(kSize - 8),
                                         8, true));
    }
    state.SetItemsProcessed(state.iterations());
    state.SetLabel(state.range(0) == 0
                       ? "sampling off"
                       : "epoch=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_ReplaySamplingOverhead)
    ->Arg(0)
    ->Arg(4096)
    ->Arg(65536)
    ->Arg(1 << 20);

void
BM_ExecutorMicroPoints(benchmark::State &state)
{
    // A small Figure-6-shaped batch through the parallel executor —
    // how experiment wall-clock scales with the worker count.
    common::ThreadPool pool(static_cast<unsigned>(state.range(0)));
    exp::Executor executor(pool);
    std::vector<exp::MicroPointSpec> specs;
    for (unsigned pmos : {16u, 64u, 256u}) {
        exp::MicroPointSpec spec;
        spec.benchmark = "avl";
        spec.params.numPmos = pmos;
        spec.params.numOps = 2'000;
        spec.params.initialNodes = 256;
        spec.schemes = {SchemeKind::MpkVirt, SchemeKind::DomainVirt};
        specs.push_back(std::move(spec));
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(executor.runMicro(specs));
    state.SetItemsProcessed(state.iterations() * specs.size());
}
BENCHMARK(BM_ExecutorMicroPoints)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

} // namespace
