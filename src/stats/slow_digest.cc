#include "stats/slow_digest.hh"

#include <algorithm>

#include "common/logging.hh"

namespace pmodv::stats
{

const std::array<const char *, kSlowDigestBuckets>
    kSlowDigestBucketNames = {
        "cyc_issue",      "cyc_mem",     "cyc_prot_fill",
        "cyc_prot_check", "cyc_perm_instr", "cyc_syscall",
        "cyc_ctx_switch",
};

namespace
{

/** splitmix64 finalizer: the seeded tie-break hash. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

SlowRequestDigest::SlowRequestDigest(Group *parent, std::string name,
                                     unsigned k, std::uint64_t seed)
    : StatBase(parent, std::move(name)), k_(k), seed_(seed)
{
    panic_if(k == 0, "slow-request digest needs K > 0");
    entries_.reserve(k);
}

bool
SlowRequestDigest::before(std::uint64_t lat_a, std::uint64_t id_a,
                          std::uint64_t lat_b, std::uint64_t id_b) const
{
    if (lat_a != lat_b)
        return lat_a > lat_b;
    // Equal latencies: a seeded hash of the request id decides, so the
    // retained cohort under ties is arbitrary-but-deterministic rather
    // than biased toward early or late requests.
    const std::uint64_t ha = mix(seed_ ^ id_a);
    const std::uint64_t hb = mix(seed_ ^ id_b);
    if (ha != hb)
        return ha < hb;
    return id_a < id_b;
}

bool
SlowRequestDigest::admits(std::uint64_t latency, std::uint64_t id) const
{
    if (entries_.size() < k_)
        return true;
    const SlowRequestEntry &last = entries_.back();
    return !before(last.latency, last.id, latency, id);
}

void
SlowRequestDigest::offer(const SlowRequestEntry &entry)
{
    ++offered_;
    if (!admits(entry.latency, entry.id))
        return;
    const auto pos = std::upper_bound(
        entries_.begin(), entries_.end(), entry,
        [this](const SlowRequestEntry &a, const SlowRequestEntry &b) {
            return before(a.latency, a.id, b.latency, b.id);
        });
    entries_.insert(pos, entry);
    if (entries_.size() > k_)
        entries_.pop_back();
}

} // namespace pmodv::stats
