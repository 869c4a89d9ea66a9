/**
 * @file
 * WHISPER-style single-PMO benchmarks (paper Table III): Echo, YCSB,
 * TPCC, C-tree, Hashmap, Redis. Unlike the multi-PMO sweeps, these
 * run on the *real* PMO library — pools, allocator, runtime-enforced
 * permissions — and capture their traces through the Runtime. The
 * paper's measurement discipline is reproduced: a SETPERM
 * enable/disable pair brackets *every PMO access*.
 *
 * Substitution note (DESIGN.md §2): pool size defaults to 64 MB
 * instead of the paper's 2 GB — the access *rates* (switches/sec) are
 * what Table V depends on, and those are set by the transaction
 * structure and the inter-access instruction budgets, not the pool
 * capacity.
 */

#ifndef PMODV_WORKLOADS_WHISPER_WHISPER_HH
#define PMODV_WORKLOADS_WHISPER_WHISPER_HH

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "pmo/api.hh"
#include "trace/sinks.hh"

namespace pmodv::workloads
{

/** Configuration of one WHISPER benchmark run. */
struct WhisperParams
{
    std::uint64_t numTxns = 100'000;
    std::size_t poolBytes = std::size_t{64} << 20;
    unsigned initialKeys = 10'000; ///< Preloaded entries.
    std::uint64_t seed = 42;
};

/** One WHISPER benchmark. */
class WhisperWorkload
{
  public:
    virtual ~WhisperWorkload() = default;

    /** Benchmark name as in Table III. */
    virtual std::string name() const = 0;

    /**
     * Execute the benchmark against @p ns (usually an in-memory
     * namespace), emitting the measured trace into @p sink.
     */
    void run(pmo::Namespace &ns, trace::TraceSink &sink);

    const WhisperParams &params() const { return params_; }

  protected:
    explicit WhisperWorkload(const WhisperParams &params)
        : params_(params)
    {
    }

    /** Build the initial state (untraced, permissions open). */
    virtual void setup(pmo::PmoApi &api, pmo::Pool &pool) = 0;

    /** Execute one transaction (traced, self-guarding accesses). */
    virtual void txn(pmo::PmoApi &api, pmo::Pool &pool, Rng &rng) = 0;

    // ---- guarded access helpers (SETPERM pair around each access) --
    void guardedRead(pmo::Runtime &rt, DomainId domain, pmo::Oid oid,
                     void *out, std::size_t len);
    void guardedWrite(pmo::Runtime &rt, DomainId domain, pmo::Oid oid,
                      const void *in, std::size_t len);

    template <typename T>
    T
    guardedReadValue(pmo::Runtime &rt, DomainId domain, pmo::Oid oid)
    {
        T v{};
        guardedRead(rt, domain, oid, &v, sizeof(T));
        return v;
    }

    template <typename T>
    void
    guardedWriteValue(pmo::Runtime &rt, DomainId domain, pmo::Oid oid,
                      const T &v)
    {
        guardedWrite(rt, domain, oid, &v, sizeof(T));
    }

    /** Inter-access application work (parsing, networking, ...). */
    void appWork(pmo::Runtime &rt, std::uint32_t insts);

    /** Per-benchmark instruction budget between PMO accesses. */
    virtual std::uint32_t instsPerAccess() const = 0;

    WhisperParams params_;
    DomainId domain_ = kNullDomain;
    ThreadId tid_ = 0;
    bool guarded_ = false;
};

/** Instantiate a WHISPER benchmark by name
 *  (echo, ycsb, tpcc, ctree, hashmap, redis). */
std::unique_ptr<WhisperWorkload>
makeWhisper(const std::string &name, const WhisperParams &params);

/** The six benchmark names in Table III order. */
const std::vector<std::string> &whisperNames();

} // namespace pmodv::workloads

#endif // PMODV_WORKLOADS_WHISPER_WHISPER_HH
