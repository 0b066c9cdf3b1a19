#include "rebudget/util/rng.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "rebudget/util/logging.h"

namespace rebudget::util {
namespace {

TEST(Rng, DeterministicFromSeed)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-3.0, 5.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng rng(99);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntRespectsModulus)
{
    Rng rng(11);
    std::vector<int> counts(10, 0);
    for (int i = 0; i < 10000; ++i)
        ++counts[rng.uniformInt(uint64_t{10})];
    for (int c : counts)
        EXPECT_GT(c, 700); // each bucket near 1000
}

TEST(Rng, UniformIntInclusiveRange)
{
    Rng rng(5);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const int64_t v = rng.uniformInt(int64_t{-2}, int64_t{2});
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        saw_lo = saw_lo || v == -2;
        saw_hi = saw_hi || v == 2;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntZeroIsFatal)
{
    Rng rng(5);
    EXPECT_DEATH(rng.uniformInt(uint64_t{0}), "uniformInt");
}

TEST(Rng, BernoulliMatchesProbability)
{
    Rng rng(17);
    int hits = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, NormalMoments)
{
    Rng rng(23);
    const int n = 100000;
    double sum = 0.0;
    double sq = 0.0;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal(2.0, 3.0);
        sum += x;
        sq += x * x;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 2.0, 0.05);
    EXPECT_NEAR(std::sqrt(var), 3.0, 0.05);
}

TEST(Rng, ExponentialMeanMatchesRate)
{
    Rng rng(31);
    const int n = 100000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(4.0);
    EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(3);
    std::vector<int> v(50);
    std::iota(v.begin(), v.end(), 0);
    rng.shuffle(v);
    std::vector<int> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(sorted[i], i);
}

TEST(Rng, SplitStreamsAreIndependentButDeterministic)
{
    Rng a(44);
    Rng b(44);
    Rng as = a.split();
    Rng bs = b.split();
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(as.next(), bs.next());
    // Parent and child streams differ.
    Rng c(44);
    Rng cs = c.split();
    EXPECT_NE(c.next(), cs.next());
}

TEST(Rng, ForStreamIsDeterministicAcrossCalls)
{
    Rng a = Rng::forStream(2016, {1, 7, 3});
    Rng b = Rng::forStream(2016, {1, 7, 3});
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, ForStreamIgnoresCallerState)
{
    // Unlike split(), forStream() never consults generator state: two
    // consumers reach the same stream no matter what ran before them.
    Rng warm(9);
    for (int i = 0; i < 1000; ++i)
        warm.next();
    Rng a = Rng::forStream(2016, {4, 2});
    Rng b = Rng::forStream(2016, {4, 2});
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, ForStreamDistinguishesKeys)
{
    Rng a = Rng::forStream(2016, {1, 2});
    Rng b = Rng::forStream(2016, {2, 1});
    Rng c = Rng::forStream(2016, {1, 2, 0});
    Rng d = Rng::forStream(2017, {1, 2});
    const uint64_t va = a.next();
    EXPECT_NE(va, b.next());
    EXPECT_NE(va, c.next());
    EXPECT_NE(va, d.next());
}

TEST(Rng, Mix64IsStableAndSpreads)
{
    EXPECT_EQ(mix64(0), mix64(0));
    EXPECT_NE(mix64(0), mix64(1));
    EXPECT_NE(mix64(1), mix64(2));
}

TEST(Rng, HashIdIsStablePerString)
{
    EXPECT_EQ(hashId("b_mix_04"), hashId("b_mix_04"));
    EXPECT_NE(hashId("b_mix_04"), hashId("b_mix_05"));
    EXPECT_NE(hashId(""), hashId("a"));
}

TEST(Zipf, AlphaZeroIsUniform)
{
    ZipfSampler z(8, 0.0);
    for (size_t k = 0; k < 8; ++k)
        EXPECT_NEAR(z.pmf(k), 1.0 / 8.0, 1e-12);
}

TEST(Zipf, PmfSumsToOne)
{
    ZipfSampler z(100, 0.9);
    double sum = 0.0;
    for (size_t k = 0; k < 100; ++k)
        sum += z.pmf(k);
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Zipf, PmfIsDecreasing)
{
    ZipfSampler z(64, 1.1);
    for (size_t k = 1; k < 64; ++k)
        EXPECT_LE(z.pmf(k), z.pmf(k - 1) + 1e-15);
}

TEST(Zipf, SamplesFollowSkew)
{
    ZipfSampler z(1000, 1.0);
    Rng rng(8);
    int head = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        if (z.sample(rng) < 10)
            ++head;
    }
    // The 10 hottest ranks carry ~39% of mass at alpha=1, n=1000.
    EXPECT_GT(static_cast<double>(head) / n, 0.30);
}

TEST(Zipf, SampleWithinRange)
{
    ZipfSampler z(17, 0.5);
    Rng rng(12);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(z.sample(rng), 17u);
}

TEST(Zipf, RejectsEmptyPopulation)
{
    EXPECT_THROW(ZipfSampler(0, 1.0), FatalError);
}

TEST(Zipf, RejectsNegativeAlpha)
{
    EXPECT_THROW(ZipfSampler(4, -0.1), FatalError);
}

TEST(Zipf, RejectsNaNAlpha)
{
    EXPECT_THROW(ZipfSampler(8, std::nan("")), FatalError);
}

TEST(Zipf, RejectsPopulationBeyondUint32)
{
    // The guide table stores ranks as uint32_t; the check runs before
    // anything is allocated.
    EXPECT_THROW(ZipfSampler(size_t{UINT32_MAX} + 1, 0.9), FatalError);
}

} // namespace
} // namespace rebudget::util
