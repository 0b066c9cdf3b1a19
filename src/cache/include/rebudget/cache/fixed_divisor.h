#ifndef REBUDGET_CACHE_FIXED_DIVISOR_H_
#define REBUDGET_CACHE_FIXED_DIVISOR_H_

/**
 * @file
 * Division by a divisor fixed at construction, for set indexing.
 *
 * Splitting a line address into set and tag is a division in the
 * innermost loop of every cache model.  When the divisor is a power of
 * two 2^s, x / d == x >> s and x % d == x & (d - 1) for every unsigned
 * x, so the shift and mask return the same bits as the division.  Other
 * divisors keep it: a 6-core simulator L2 (3 MiB) has 3072 sets at 16
 * ways and 1536 at 32.
 */

#include <bit>
#include <cstdint>

namespace rebudget::cache {

/** Quotient and remainder of one division. */
struct QuotRem
{
    uint64_t quot = 0;
    uint64_t rem = 0;
};

/** Unsigned divisor, shift-and-mask when it is a power of two. */
class FixedDivisor
{
  public:
    /** @param d divisor (> 0) */
    explicit FixedDivisor(uint64_t d)
        : d_(d), shift_(static_cast<uint32_t>(std::countr_zero(d))),
          pow2_(std::has_single_bit(d))
    {}

    /** @return x / d and x % d. */
    QuotRem
    divide(uint64_t x) const
    {
        if (pow2_)
            return {x >> shift_, x & (d_ - 1)};
        return {x / d_, x % d_};
    }

  private:
    uint64_t d_;
    uint32_t shift_;
    bool pow2_;
};

} // namespace rebudget::cache

#endif // REBUDGET_CACHE_FIXED_DIVISOR_H_
