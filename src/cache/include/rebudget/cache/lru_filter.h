#ifndef REBUDGET_CACHE_LRU_FILTER_H_
#define REBUDGET_CACHE_LRU_FILTER_H_

/**
 * @file
 * Private LRU cache reduced to its hit/miss decision.
 *
 * The profiler's and the simulator's private L1s only decide which
 * references go on to the UMON and the L2: nothing reads their owners,
 * dirty bits, occupancy or statistics.  LruFilter keeps what that
 * decision needs, a tag and a last-touch stamp per way, and misses on
 * exactly the accesses a one-partition SetAssocCache of the same
 * geometry misses on.
 */

#include <cstddef>
#include <cstdint>
#include <vector>

#include "rebudget/cache/cache_config.h"
#include "rebudget/cache/fixed_divisor.h"

namespace rebudget::cache {

/** Set-associative, LRU, hit/miss-only cache model. */
class LruFilter
{
  public:
    /** @param config  cache geometry (validated) */
    explicit LruFilter(const CacheConfig &config);

    /**
     * Access refs[0..n) in order, by each one's byte address
     * `refs[i].addr`, and call `on_miss(refs[i])` for each that was not
     * resident.  A miss fills its line into the set's first never-filled
     * way, else its least recently touched one: the way SetAssocCache
     * evicts with one partition at futility scale 1, where every filled
     * way's age differs.
     */
    template <typename Ref, typename OnMiss>
    void
    filter(const Ref *refs, size_t n, OnMiss &&on_miss)
    {
        // Locals, so that an on_miss call the compiler cannot see into
        // does not make it reload every field for each reference.
        Way *const ways = ways_.data();
        const FixedDivisor index = setIndex_;
        const uint32_t line_shift = lineShift_;
        const uint32_t assoc = assoc_;
        uint64_t now = now_;
        for (size_t i = 0; i < n; ++i) {
            const QuotRem split = index.divide(refs[i].addr >> line_shift);
            if (!touch(ways + split.rem * assoc, assoc, split.quot, ++now))
                on_miss(refs[i]);
        }
        now_ = now;
    }

  private:
    struct Way
    {
        uint64_t tag = 0;
        uint64_t stamp = 0; // access count at last touch; 0 = never filled
    };

    // Look up @p tag in a set at access count @p now; @return true on a
    // hit, else fill the victim way.
    static bool
    touch(Way *set, uint32_t assoc, uint64_t tag, uint64_t now)
    {
        for (uint32_t w = 0; w < assoc; ++w) {
            if (set[w].tag == tag && set[w].stamp != 0) {
                set[w].stamp = now;
                return true;
            }
        }
        // Never-filled ways hold stamp 0, below every filled way's.
        Way *victim = set;
        for (uint32_t w = 1; w < assoc; ++w) {
            if (set[w].stamp < victim->stamp)
                victim = set + w;
        }
        victim->tag = tag;
        victim->stamp = now;
        return false;
    }

    uint32_t assoc_ = 1;
    uint32_t lineShift_ = 0;   // log2(lineBytes)
    FixedDivisor setIndex_{1}; // line address -> (tag, set)
    uint64_t now_ = 0;
    std::vector<Way> ways_; // sets * assoc, set-major
};

} // namespace rebudget::cache

#endif // REBUDGET_CACHE_LRU_FILTER_H_
