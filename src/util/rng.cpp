#include "rebudget/util/rng.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "rebudget/util/logging.h"

namespace rebudget::util {

namespace {

uint64_t
splitmix64(uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

uint64_t
hashId(std::string_view s)
{
    // FNV-1a, then one mix64 pass to spread the low bits.
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return mix64(h);
}

Rng::Rng(uint64_t seed)
{
    uint64_t sm = seed;
    for (auto &s : s_)
        s = splitmix64(sm);
}

Rng
Rng::forStream(uint64_t seed, std::initializer_list<uint64_t> keys)
{
    // Fold the keys into the seed one mix at a time; every prefix yields
    // a distinct, well-mixed state, so (a, b) and (b, a) differ.
    uint64_t h = mix64(seed);
    for (const uint64_t k : keys)
        h = mix64(h ^ mix64(k));
    return Rng(h);
}

uint64_t
Rng::next()
{
    const uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

double
Rng::uniform()
{
    // 53 random mantissa bits -> [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

uint64_t
Rng::uniformInt(uint64_t n)
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

int64_t
Rng::uniformInt(int64_t lo, int64_t hi)
{
    REBUDGET_ASSERT(lo <= hi, "uniformInt requires lo <= hi");
    const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    return lo + static_cast<int64_t>(uniformInt(span));
}

bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

double
Rng::normal(double mean, double stddev)
{
    if (haveSpareNormal_) {
        haveSpareNormal_ = false;
        return mean + stddev * spareNormal_;
    }
    double u1;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    const double u2 = uniform();
    const double mag = std::sqrt(-2.0 * std::log(u1));
    spareNormal_ = mag * std::sin(2.0 * M_PI * u2);
    haveSpareNormal_ = true;
    return mean + stddev * mag * std::cos(2.0 * M_PI * u2);
}

double
Rng::exponential(double rate)
{
    REBUDGET_ASSERT(rate > 0.0, "exponential requires rate > 0");
    double u;
    do {
        u = uniform();
    } while (u <= 0.0);
    return -std::log(u) / rate;
}

Rng
Rng::split()
{
    return Rng(next());
}

size_t
ZipfSampler::tableBytes(size_t n)
{
    // cdf_: one double per rank; guide_: bit_floor(n) + 1 bucket edges.
    return n * sizeof(double) + (std::bit_floor(n) + 1) * sizeof(uint32_t);
}

ZipfSampler::ZipfSampler(size_t n, double alpha)
{
    if (n == 0)
        fatal("ZipfSampler requires a non-empty population");
    if (n > UINT32_MAX)
        fatal("ZipfSampler population %zu exceeds 2^32 - 1", n);
    if (!(alpha >= 0.0))
        fatal("ZipfSampler requires alpha >= 0 (got %f)", alpha);
    cdf_.resize(n);
    double sum = 0.0;
    for (size_t k = 0; k < n; ++k) {
        sum += 1.0 / std::pow(static_cast<double>(k + 1), alpha);
        cdf_[k] = sum;
    }
    for (auto &c : cdf_)
        c /= sum;
    cdf_.back() = 1.0; // guard against rounding

    // guide_[j] = lower_bound(cdf_, j/m), found by one forward merge.
    // Every j/m is an exact double, and guide_[m] is a valid rank
    // because cdf_.back() == 1.0.
    const size_t m = std::bit_floor(n);
    buckets_ = static_cast<double>(m);
    guide_.resize(m + 1);
    size_t k = 0;
    for (size_t j = 0; j <= m; ++j) {
        const double edge = static_cast<double>(j) / buckets_;
        while (cdf_[k] < edge)
            ++k;
        guide_[j] = static_cast<uint32_t>(k);
    }
}

size_t
ZipfSampler::sample(Rng &rng) const
{
    return rankOf(rng.uniform());
}

size_t
ZipfSampler::rankOf(double u) const
{
    REBUDGET_ASSERT(u >= 0.0 && u < 1.0, "Zipf draw outside [0, 1)");
    // u * m is exact (m is a power of two), so j/m <= u < (j+1)/m.
    // Every rank before guide_[j] has CDF < j/m <= u, and guide_[j + 1]
    // has CDF >= (j+1)/m > u, so the first rank whose CDF is not < u
    // lies in [guide_[j], guide_[j + 1]]: lower_bound over that range,
    // which returns its end when no earlier rank qualifies, gives the
    // whole table's answer, ties included.
    const auto j = static_cast<size_t>(u * buckets_);
    const double *cdf = cdf_.data();
    const double *it =
        std::lower_bound(cdf + guide_[j], cdf + guide_[j + 1], u);
    return static_cast<size_t>(it - cdf);
}

double
ZipfSampler::pmf(size_t k) const
{
    REBUDGET_ASSERT(k < cdf_.size(), "pmf rank out of range");
    return k == 0 ? cdf_[0] : cdf_[k] - cdf_[k - 1];
}

} // namespace rebudget::util
