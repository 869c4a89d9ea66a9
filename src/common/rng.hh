/**
 * @file
 * Deterministic random-number utilities. Every stochastic choice in
 * workload generation flows through an explicitly seeded Rng so a
 * given (workload, seed) pair always produces the identical trace.
 */

#ifndef PMODV_COMMON_RNG_HH
#define PMODV_COMMON_RNG_HH

#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

namespace pmodv
{

/**
 * A thin deterministic wrapper around std::mt19937_64 with the
 * convenience draws workloads need.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : engine_(seed) {}

    /** Uniform integer in [0, bound). @p bound must be nonzero. */
    std::uint64_t
    next(std::uint64_t bound)
    {
        return std::uniform_int_distribution<std::uint64_t>(
            0, bound - 1)(engine_);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        return std::uniform_int_distribution<std::uint64_t>(lo,
                                                            hi)(engine_);
    }

    /** Uniform real in [0, 1). */
    double
    real()
    {
        return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
    }

    /** Bernoulli draw: true with probability @p p. */
    bool
    chance(double p)
    {
        return real() < p;
    }

    /** Raw 64-bit draw. */
    std::uint64_t raw() { return engine_(); }

    /**
     * A Zipf-like skewed draw in [0, n): power-law inverse-CDF
     * approximation used by the YCSB-style workloads. Larger theta
     * (0..1) concentrates mass near rank 0; theta = 0 degenerates to
     * uniform.
     */
    std::uint64_t
    zipf(std::uint64_t n, double theta)
    {
        if (theta <= 0.0)
            return next(n);
        const double u = real();
        // u^(1/(1-theta)) maps uniform mass onto low ranks; at
        // theta = 0.9 roughly 50% of draws land in the first 0.1%.
        const double x =
            static_cast<double>(n) * std::pow(u, 1.0 / (1.0 - theta));
        auto idx = static_cast<std::uint64_t>(x);
        return idx >= n ? n - 1 : idx;
    }

    std::mt19937_64 &engine() { return engine_; }

  private:
    std::mt19937_64 engine_;
};

/**
 * An *exact* Zipf distribution over ranks [0, n) with a precomputed
 * cumulative table: P(rank r) proportional to 1/(r+1)^theta. Building
 * the table is O(n) once; every draw is a single uniform variate plus
 * an O(log n) binary search. (Rng::zipf's inverse-power approximation
 * stays for the YCSB-style workloads, but recomputing a harmonic sum
 * per draw — the naive exact approach — is O(n) per sample and would
 * dominate 4096-tenant server runs.)
 *
 * theta = 0 degenerates to uniform; theta ~ 0.99 is the classic
 * YCSB/web skew where a handful of hot ranks absorb most draws.
 */
class ZipfDist
{
  public:
    ZipfDist(std::uint64_t n, double theta) : theta_(theta)
    {
        cdf_.reserve(static_cast<std::size_t>(n));
        double sum = 0.0;
        for (std::uint64_t r = 0; r < n; ++r) {
            sum += 1.0 / std::pow(static_cast<double>(r + 1), theta);
            cdf_.push_back(sum);
        }
        total_ = sum;
    }

    std::uint64_t size() const { return cdf_.size(); }

    /** Draw a rank using @p rng (one real() consumed per draw). */
    std::uint64_t
    operator()(Rng &rng) const
    {
        return sample(rng.real());
    }

    /**
     * Map a uniform variate @p u in [0, 1) onto a rank: the first rank
     * whose cumulative mass reaches u * total (at most the last rank).
     */
    std::uint64_t
    sample(double u) const
    {
        if (cdf_.size() < 2)
            return 0;
        // Branch-free lower bound over the first n - 1 entries (past
        // them all is the last rank): the loop count depends only on
        // n, and each step adds half times the comparison's 0 or 1.
        const double x = u * total_;
        const double *base = cdf_.data();
        for (std::size_t len = cdf_.size() - 1; len > 1;) {
            const std::size_t half = len / 2;
            base += half * std::size_t{base[half - 1] < x};
            len -= half;
        }
        return static_cast<std::uint64_t>(base - cdf_.data()) + (*base < x);
    }

    /** Exact probability mass of @p rank (tests / chi-square). */
    double
    rankMass(std::uint64_t rank) const
    {
        if (rank >= cdf_.size() || total_ == 0.0)
            return 0.0;
        return 1.0 /
               (std::pow(static_cast<double>(rank + 1), theta_) * total_);
    }

  private:
    double theta_;
    double total_ = 0.0;
    std::vector<double> cdf_; ///< Unnormalized cumulative masses.
};

} // namespace pmodv

#endif // PMODV_COMMON_RNG_HH
