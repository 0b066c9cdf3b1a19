#ifndef REBUDGET_UTIL_RNG_H_
#define REBUDGET_UTIL_RNG_H_

/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic components of the library (trace generators, workload
 * bundle construction, tie-breaking) draw from Rng so that every
 * experiment is exactly reproducible from a seed.  The core generator is
 * xoshiro256++ (public domain, Blackman & Vigna), chosen for speed and
 * statistical quality.
 */

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string_view>
#include <vector>

#include "rebudget/util/logging.h"

namespace rebudget::util {

/** splitmix64 finalizer: a fast, well-mixed 64-bit hash step. */
uint64_t mix64(uint64_t x);

/**
 * Stable 64-bit id for a string (FNV-1a folded through mix64).  Used to
 * key deterministic RNG streams by bundle or run name.
 */
uint64_t hashId(std::string_view s);

/**
 * Deterministic xoshiro256++ generator with distribution helpers.
 *
 * The draws the trace generators make per reference (next, uniform,
 * uniformInt, bernoulli) are defined here, so a generator that copies
 * its Rng into a local for a batch keeps the state in registers.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** @return the next raw 64-bit value. */
    uint64_t
    next()
    {
        const uint64_t result = std::rotl(s_[0] + s_[3], 23) + s_[0];
        const uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = std::rotl(s_[3], 45);
        return result;
    }

    /** @return a uniform double in [0, 1). */
    double
    uniform()
    {
        // 53 random mantissa bits -> [0, 1).
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** @return a uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** @return a uniform integer in [0, n) (n must be > 0). */
    uint64_t
    uniformInt(uint64_t n)
    {
        REBUDGET_ASSERT(n > 0, "uniformInt requires n > 0");
        // Rejection sampling to avoid modulo bias.
        const uint64_t limit = UINT64_MAX - UINT64_MAX % n;
        uint64_t x;
        do {
            x = next();
        } while (x >= limit);
        return x % n;
    }

    /** @return a uniform integer in [lo, hi] inclusive. */
    int64_t uniformInt(int64_t lo, int64_t hi);

    /** @return true with probability p. */
    bool bernoulli(double p) { return uniform() < p; }

    /** @return a sample from a normal distribution (Box-Muller). */
    double normal(double mean, double stddev);

    /** @return an exponential sample with the given rate. */
    double exponential(double rate);

    /** Fisher-Yates shuffle of a vector. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (size_t i = v.size(); i > 1; --i) {
            const size_t j = uniformInt(static_cast<uint64_t>(i));
            std::swap(v[i - 1], v[j]);
        }
    }

    /** Fork a new independent generator (stream split). */
    Rng split();

    /**
     * Deterministic named sub-stream: an independent generator keyed by
     * (seed, key0, key1, ...).  Unlike split(), the result depends only
     * on the keys, never on generator state, so concurrent consumers
     * (parallel sweep workers, per-player fault streams) obtain
     * bit-identical streams regardless of evaluation order or job
     * count.  Distinct key tuples yield independent streams.
     */
    static Rng forStream(uint64_t seed,
                         std::initializer_list<uint64_t> keys);

  private:
    uint64_t s_[4];
    bool haveSpareNormal_ = false;
    double spareNormal_ = 0.0;
};

/**
 * Precomputed Zipf(alpha) sampler over {0, ..., n-1}.
 *
 * Uses an inverse-CDF table with a guide table (Chen & Asau's indexed
 * search): for m the largest power of two <= n, guide entry j is the
 * first rank whose CDF reaches j/m, so a draw u searches only the ranks
 * between the guide entries of its bucket floor(u*m) and the next one.
 * Construction is O(n), sampling O(1) expected, and the rank is the one
 * a binary search of the whole CDF returns.  alpha == 0 degenerates to
 * the uniform distribution.
 */
class ZipfSampler
{
  public:
    /**
     * @param n     population size, in [1, 2^32 - 1]
     * @param alpha skew exponent (>= 0)
     */
    ZipfSampler(size_t n, double alpha);

    /** Draw one sample in [0, n); consumes one Rng::uniform(). */
    size_t sample(Rng &rng) const { return rankOf(rng.uniform()); }

    /** @return the rank a uniform draw u in [0, 1) maps to: the first
     * rank whose cumulative probability is >= u. */
    size_t
    rankOf(double u) const
    {
        REBUDGET_ASSERT(u >= 0.0 && u < 1.0, "Zipf draw outside [0, 1)");
        // u * m is exact (m is a power of two), so j/m <= u < (j+1)/m.
        // Every rank before guide_[j] has CDF < j/m <= u, and
        // guide_[j + 1] has CDF >= (j+1)/m > u, so the first rank whose
        // CDF is not < u lies in [guide_[j], guide_[j + 1]]: lower_bound
        // over that range, which returns its end when no earlier rank
        // qualifies, gives the whole table's answer, ties included.
        const auto j = static_cast<size_t>(u * buckets_);
        const double *cdf = cdf_.data();
        const double *it =
            std::lower_bound(cdf + guide_[j], cdf + guide_[j + 1], u);
        return static_cast<size_t>(it - cdf);
    }

    /** @return the population size. */
    size_t size() const { return cdf_.size(); }

    /** @return probability mass of rank k. */
    double pmf(size_t k) const;

    /** @return heap bytes of the tables a sampler over @p n ranks holds
     * (its CDF and guide), computed without building them. */
    static size_t tableBytes(size_t n);

  private:
    std::vector<double> cdf_;
    std::vector<uint32_t> guide_; // m + 1 bucket edges
    double buckets_ = 1.0;        // m, a power of two
};

} // namespace rebudget::util

#endif // REBUDGET_UTIL_RNG_H_
