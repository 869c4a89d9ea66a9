#include "workloads/server/server.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace pmodv::workloads
{

namespace
{

// KV node layout inside a tenant's PMO arena.
constexpr Addr kNodeBytes = 64;
constexpr Addr kKeyOff = 0;
constexpr Addr kValOff = 8;
constexpr Addr kNextOff = 16;

} // namespace

unsigned
ServerWorkload::tenantClassOf(unsigned rank, unsigned num_tenants)
{
    const unsigned hot = std::max(1u, num_tenants / 64);
    const unsigned warm = std::max(2u, num_tenants / 8);
    if (rank < hot)
        return 0;
    if (rank < warm)
        return 1;
    return 2;
}

const char *
ServerWorkload::tenantClassName(unsigned cls)
{
    switch (cls) {
      case 0:
        return "hot";
      case 1:
        return "warm";
      default:
        return "cold";
    }
}

void
ServerWorkload::doGet(TraceCtx &ctx, SyntheticSpace &space,
                      unsigned tenant, std::uint64_t key)
{
    ++gets_;
    const auto b = static_cast<unsigned>(key % params_.numBuckets);
    ctx.load(tables_[tenant] + Addr{b} * 8);
    const std::uint32_t head =
        heads_[std::size_t{tenant} * params_.numBuckets + b];
    const Addr base = space.pmo(tenant).vaBase();
    for (std::uint32_t n = head; n != kNoNode; n = nodes_[n].next) {
        const Node &node = nodes_[n];
        const Addr va = base + node.offset;
        ctx.load(va + kKeyOff);
        if (node.key == key) {
            ctx.load(va + kValOff);
            ++hits_;
            return;
        }
    }
}

void
ServerWorkload::doPut(TraceCtx &ctx, SyntheticSpace &space,
                      unsigned tenant, std::uint64_t key)
{
    ++puts_;
    const auto b = static_cast<unsigned>(key % params_.numBuckets);
    ctx.load(tables_[tenant] + Addr{b} * 8);
    std::uint32_t &head =
        heads_[std::size_t{tenant} * params_.numBuckets + b];
    const Addr base = space.pmo(tenant).vaBase();
    for (std::uint32_t n = head; n != kNoNode; n = nodes_[n].next) {
        const Node &node = nodes_[n];
        const Addr va = base + node.offset;
        ctx.load(va + kKeyOff);
        if (node.key == key) {
            ctx.store(va + kValOff);
            ++hits_;
            return;
        }
    }
    // Insert at the chain head, like the bucket's next pointer does.
    const Addr va = space.pmo(tenant).alloc(kNodeBytes);
    ctx.store(va + kKeyOff);
    ctx.store(va + kValOff);
    ctx.store(va + kNextOff);
    ctx.store(tables_[tenant] + Addr{b} * 8);
    panic_if(nodes_.size() >= kNoNode, "server chains exceed 2^32 nodes");
    nodes_.push_back(Node{static_cast<std::uint32_t>(key),
                          static_cast<std::uint32_t>(va - base), head});
    head = static_cast<std::uint32_t>(nodes_.size() - 1);
}

void
ServerWorkload::run(TraceCtx &ctx)
{
    panic_if(params_.numTenants == 0, "server needs at least one tenant");
    panic_if(params_.numBuckets == 0, "server needs at least one bucket");
    // Node keys and PMO offsets are 32-bit.
    panic_if(std::uint64_t{params_.keysPerTenant} * 2 > UINT32_MAX,
             "server key space 2 * %u does not fit in 32 bits",
             params_.keysPerTenant);
    panic_if(params_.tenantBytes > UINT32_MAX,
             "server tenant PMO of %llu bytes does not fit in 32 bits",
             static_cast<unsigned long long>(params_.tenantBytes));
    SyntheticSpace space(ctx, params_.numTenants, params_.tenantBytes,
                         Perm::ReadWrite, params_.pageSize);

    // Same permission model as the micro suite: every worker thread
    // holds read/write on every tenant up front; the per-request
    // SETPERM pair below is the measured 2-switches/op pattern.
    const unsigned threads = std::max(1u, params_.numThreads);
    for (unsigned t = 0; t < threads; ++t) {
        ctx.setThread(static_cast<ThreadId>(t));
        for (unsigned i = 0; i < params_.numTenants; ++i)
            ctx.setPerm(space.pmo(i).domain(), Perm::ReadWrite);
    }
    ctx.setThread(0);

    // Preload each tenant's table (unmeasured).
    tables_.assign(params_.numTenants, 0);
    heads_.assign(std::size_t{params_.numTenants} * params_.numBuckets,
                  kNoNode);
    nodes_.clear();
    // Each request inserts at most one node: no reallocation ever
    // holds two copies of the chains, and untouched capacity is never
    // faulted in.
    nodes_.reserve(std::size_t{params_.numTenants} * params_.keysPerTenant +
                   params_.numRequests);
    ctx.setMuted(true);
    for (unsigned i = 0; i < params_.numTenants; ++i) {
        tables_[i] = space.pmo(i).alloc(Addr{params_.numBuckets} * 8);
        for (unsigned k = 0; k < params_.keysPerTenant; ++k)
            doPut(ctx, space, i, k);
    }
    ctx.setMuted(false);
    gets_ = puts_ = hits_ = 0;

    // The open-loop arrival process: gaps drawn from a seeded
    // exponential via inverse transform, accumulated in double and
    // stamped as integer cycles. Drawn before any per-request
    // randomness, so the stamp sequence depends only on the seed and
    // the request index — never on what any scheme does with it.
    ZipfDist zipf(params_.numTenants, params_.zipfTheta);
    const std::uint64_t key_space =
        std::uint64_t{params_.keysPerTenant} * 2;
    double arrival_clock = 0.0;
    for (std::uint64_t i = 0; i < params_.numRequests; ++i) {
        const double u = ctx.rng().real();
        arrival_clock +=
            -params_.meanInterArrivalCycles * std::log1p(-u);
        const auto arrival = static_cast<std::uint64_t>(arrival_clock);

        if (threads > 1)
            ctx.setThread(static_cast<ThreadId>(i % threads));
        const auto rank = static_cast<unsigned>(zipf(ctx.rng()));
        const DomainId domain = space.pmo(rank).domain();
        const unsigned cls = tenantClassOf(rank, params_.numTenants);
        const std::uint64_t key = ctx.rng().next(key_space);
        const bool is_get = ctx.rng().real() < params_.readRatio;

        ctx.opBeginAt(domain, arrival, cls);
        ctx.setPerm(domain, Perm::ReadWrite);
        ctx.compute(params_.appInsts);
        if (is_get)
            doGet(ctx, space, rank, key);
        else
            doPut(ctx, space, rank, key);
        ctx.setPerm(domain, Perm::ReadWrite);
        ctx.opEnd(domain);
    }
    ctx.sink().finish();
}

} // namespace pmodv::workloads
