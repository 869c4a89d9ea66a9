/**
 * @file
 * Open-loop multi-tenant KV server workload.
 *
 * Models a persistent key-value server hosting N tenants, each
 * tenant's hash table living in its own PMO/protection domain — the
 * paper's motivating deployment (one isolated object per client).
 * Requests arrive via a seeded open-loop process: inter-arrival gaps
 * are exponentially distributed *in model cycles*, drawn at capture
 * time, so the arrival sequence is a property of the trace — every
 * scheme replays the identical stream and the identical stamps.
 * Tenant popularity is Zipf-skewed (rank 0 hottest), which buckets
 * tenants into hot/warm/cold latency classes; sweeping the tenant
 * count from 16 to 4096 crosses MPK's 16-key cliff, which is where
 * the per-class tail latencies of the key-virtualizing schemes
 * diverge.
 *
 * Each request is bracketed by ctx.opBeginAt / ctx.opEnd, carrying
 * the arrival stamp and tenant class, and by the paper's 2-SETPERM
 * permission-switch pair on the tenant's domain; replays with
 * SimConfig::opClasses > 0 turn the stamps into queueing-delay and
 * arrival-to-completion latency histograms.
 */

#ifndef PMODV_WORKLOADS_SERVER_SERVER_HH
#define PMODV_WORKLOADS_SERVER_SERVER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "workloads/trace_ctx.hh"

namespace pmodv::workloads
{

/** Configuration of one server capture. */
struct ServerParams
{
    /** Tenant count == PMO/domain count (sweep axis; 16..4096). */
    unsigned numTenants = 64;
    Addr tenantBytes = Addr{1} << 20; ///< 1 MB table arena per tenant.
    std::uint64_t numRequests = 20'000;
    /** Keys preloaded per tenant; requests draw from 2x this space,
     *  so roughly half of the GET traffic misses. */
    unsigned keysPerTenant = 64;
    unsigned numBuckets = 64; ///< Hash buckets per tenant table.
    double readRatio = 0.8;   ///< GET fraction; rest are PUTs.
    double zipfTheta = 0.99;  ///< Tenant-popularity skew (YCSB's 0.99).
    /**
     * Mean of the exponential inter-arrival gap in model cycles. The
     * load knob: small enough to queue behind the slow schemes'
     * permission-switch storms, large enough that the near-flat
     * schemes keep headroom.
     */
    double meanInterArrivalCycles = 2000.0;
    std::uint32_t appInsts = 64; ///< App logic per request (InstBlock).
    std::uint64_t seed = 42;
    PageSize pageSize = PageSize::Size4K;
    /** Worker threads requests round-robin over (core t % K). */
    unsigned numThreads = 1;
};

/** The multi-tenant KV server trace generator. */
class ServerWorkload
{
  public:
    /** hot / warm / cold by tenant popularity rank. */
    static constexpr unsigned kNumTenantClasses = 3;

    /**
     * Latency class of popularity rank @p rank out of @p num_tenants:
     * hot = the top max(1, N/64) ranks, warm = the next ranks up to
     * max(2, N/8), cold = the long tail.
     */
    static unsigned tenantClassOf(unsigned rank, unsigned num_tenants);

    /** "hot" / "warm" / "cold". */
    static const char *tenantClassName(unsigned cls);

    explicit ServerWorkload(const ServerParams &params)
        : params_(params)
    {
    }

    /**
     * Generate the full capture: attach one PMO per tenant, grant
     * read/write on every domain for every worker thread, build the
     * tenant tables muted, then serve numRequests stamped requests.
     */
    void run(TraceCtx &ctx);

    const ServerParams &params() const { return params_; }

    // Post-run request mix (setup excluded).
    std::uint64_t gets() const { return gets_; }
    std::uint64_t puts() const { return puts_; }
    std::uint64_t hits() const { return hits_; }

  private:
    /**
     * One KV node of a bucket chain, 12 bytes: its key, its VA as an
     * offset into the tenant's PMO, and the nodes_ index of the next
     * node. run() rejects key spaces and PMOs that 32 bits cannot hold.
     */
    struct Node
    {
        std::uint32_t key;
        std::uint32_t offset;
        std::uint32_t next;
    };
    static_assert(sizeof(Node) == 12);

    /** The index that ends a chain. */
    static constexpr std::uint32_t kNoNode = ~std::uint32_t{0};

    void doGet(TraceCtx &ctx, SyntheticSpace &space, unsigned tenant,
               std::uint64_t key);
    void doPut(TraceCtx &ctx, SyntheticSpace &space, unsigned tenant,
               std::uint64_t key);

    ServerParams params_;
    /** VA of each tenant's bucket-head array. */
    std::vector<Addr> tables_;
    /**
     * The host copy of every tenant's chains: heads_[tenant *
     * numBuckets + bucket] is the chain's first node, and the nodes of
     * all tenants share one array.
     */
    std::vector<std::uint32_t> heads_;
    std::vector<Node> nodes_;
    std::uint64_t gets_ = 0;
    std::uint64_t puts_ = 0;
    std::uint64_t hits_ = 0;
};

} // namespace pmodv::workloads

#endif // PMODV_WORKLOADS_SERVER_SERVER_HH
