/**
 * @file
 * Bit-identicality regression for the Zipf sampler's guide table.  The
 * production sampler narrows each binary search to one bucket of the
 * CDF; a verbatim port of the original full-table search lives below.
 * Every rank must match it: at every bucket boundary j/m, at the double
 * just below each boundary, and over 10^6 seeded draws that must also
 * leave both generators in the same state.  The shapes include alpha = 8,
 * whose CDF saturates into long runs of equal values, and populations
 * on either side of a power of two.
 */

#include "rebudget/util/rng.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

namespace rebudget::util {
namespace {

// The original sampler: a CDF table searched end to end on every draw.
class ReferenceZipf
{
  public:
    ReferenceZipf(size_t n, double alpha)
    {
        cdf_.resize(n);
        double sum = 0.0;
        for (size_t k = 0; k < n; ++k) {
            sum += 1.0 / std::pow(static_cast<double>(k + 1), alpha);
            cdf_[k] = sum;
        }
        for (auto &c : cdf_)
            c /= sum;
        cdf_.back() = 1.0; // guard against rounding
    }

    size_t
    rankOf(double u) const
    {
        const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
        return static_cast<size_t>(it - cdf_.begin());
    }

    size_t sample(Rng &rng) const { return rankOf(rng.uniform()); }

  private:
    std::vector<double> cdf_;
};

constexpr double kAlphas[] = {0.0, 0.5, 0.9, 1.1, 8.0};

class ZipfReference : public ::testing::TestWithParam<size_t>
{};

TEST_P(ZipfReference, BucketBoundariesMatchFullSearch)
{
    const size_t n = GetParam();
    const size_t m = std::bit_floor(n);
    for (const double alpha : kAlphas) {
        const ZipfSampler z(n, alpha);
        const ReferenceZipf ref(n, alpha);
        for (size_t j = 0; j <= m; ++j) {
            const double edge =
                static_cast<double>(j) / static_cast<double>(m);
            if (j < m) {
                ASSERT_EQ(z.rankOf(edge), ref.rankOf(edge))
                    << "n=" << n << " alpha=" << alpha << " u=" << j << "/"
                    << m;
            }
            if (j > 0) {
                const double below = std::nextafter(edge, 0.0);
                ASSERT_EQ(z.rankOf(below), ref.rankOf(below))
                    << "n=" << n << " alpha=" << alpha << " u=prev(" << j
                    << "/" << m << ")";
            }
        }
        const double smallest = std::numeric_limits<double>::denorm_min();
        EXPECT_EQ(z.rankOf(smallest), ref.rankOf(smallest));
    }
}

TEST_P(ZipfReference, SeededDrawsMatchFullSearch)
{
    const size_t n = GetParam();
    for (const double alpha : kAlphas) {
        const ZipfSampler z(n, alpha);
        const ReferenceZipf ref(n, alpha);
        Rng a(0x2f00 + n), b(0x2f00 + n);
        for (int i = 0; i < 1000 * 1000; ++i) {
            const size_t got = z.sample(a);
            const size_t want = ref.sample(b);
            ASSERT_EQ(got, want)
                << "n=" << n << " alpha=" << alpha << " draw " << i;
        }
        // One uniform() per draw: the streams stay in lockstep.
        EXPECT_EQ(a.next(), b.next());
    }
}

INSTANTIATE_TEST_SUITE_P(Populations, ZipfReference,
                         ::testing::Values(1, 2, 3, 17, 1000, 28672, 32768,
                                           32769));

} // namespace
} // namespace rebudget::util
