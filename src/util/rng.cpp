#include "rebudget/util/rng.h"

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

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

int64_t
Rng::uniformInt(int64_t lo, int64_t hi)
{
    REBUDGET_ASSERT(lo <= hi, "uniformInt requires lo <= hi");
    const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    return lo + static_cast<int64_t>(uniformInt(span));
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

double
ZipfSampler::pmf(size_t k) const
{
    REBUDGET_ASSERT(k < cdf_.size(), "pmf rank out of range");
    return k == 0 ? cdf_[0] : cdf_[k] - cdf_[k - 1];
}

} // namespace rebudget::util
