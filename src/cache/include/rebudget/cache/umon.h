#ifndef REBUDGET_CACHE_UMON_H_
#define REBUDGET_CACHE_UMON_H_

/**
 * @file
 * UMON-DSS utility monitor [Qureshi & Patt, MICRO'06].
 *
 * A sampled shadow-tag array with true-LRU stacks records, for each
 * monitored access, the LRU stack distance at which it hits.  The
 * stack-distance histogram yields the application's miss curve for any
 * capacity up to the monitored maximum (the paper limits the stack
 * distance to 16, i.e.\ capacities of 128 kB to 2 MB in one-region
 * steps, with a dynamic sampling ratio of 32 -> 3.6 kB of tags per core).
 *
 * The monitor observes the *pre-L2* access stream of one core and is
 * independent of the actual partition the core currently owns, which is
 * exactly what lets the market evaluate "what if" allocations online.
 */

#include <cstdint>
#include <vector>

#include "rebudget/cache/fixed_divisor.h"
#include "rebudget/cache/miss_curve.h"

namespace rebudget::cache {

/** Geometry and sampling parameters of the monitor. */
struct UMonConfig
{
    /** Stack-distance limit: largest capacity monitored, in regions. */
    uint32_t maxRegions = 16;
    /** Bytes per cache region (allocation granularity). */
    uint64_t regionBytes = 128 * 1024;
    /** Cache line size in bytes. */
    uint32_t lineBytes = 64;
    /** Dynamic set sampling ratio (1 in samplingRatio sets monitored). */
    uint32_t samplingRatio = 32;
};

/** Sampled shadow-tag stack-distance monitor. */
class UMonitor
{
  public:
    explicit UMonitor(const UMonConfig &config = {});

    /** Observe one access (byte address) of the monitored core.  Makes
     * no heap allocation: every stack is reserved at construction. */
    void observe(uint64_t addr);

    /**
     * @return the miss curve implied by the current histogram, scaled by
     * the sampling ratio: misses at region counts 0..maxRegions.
     * Capacities beyond maxRegions are assumed to yield no further hits
     * (paper Section 5, footnote 3).
     */
    MissCurve missCurve() const;

    /** @return scaled total accesses observed (all sampled, x ratio). */
    double totalAccessesScaled() const;

    /** @return raw hit count at stack distance d (0-based). */
    uint64_t hitsAtDistance(uint32_t d) const;

    /** @return raw count of accesses missing all monitored ways. */
    uint64_t missesBeyond() const { return missesBeyond_; }

    /** Clear the histogram and shadow tags (start of a new interval). */
    void reset();

    /** Clear only the histogram, retaining shadow tag state (avoids
     * cold-start transients between measurement intervals). */
    void resetHistogram();

    /** @return monitor SRAM overhead in bytes (tags only). */
    uint64_t storageOverheadBytes() const;

    /** @return the monitor configuration. */
    const UMonConfig &config() const { return config_; }

  private:
    UMonConfig config_;
    uint64_t sampledSets_;     // number of monitored sets
    uint32_t lineShift_ = 0;   // log2(lineBytes)
    FixedDivisor setIndex_{1}; // line -> (tag, shadow set)
    FixedDivisor sampling_{1}; // shadow set -> (sampled index, offset)
    // Per monitored set: LRU-ordered tags, front = MRU. Entry count is at
    // most maxRegions; capacity is maxRegions + 1.
    std::vector<std::vector<uint64_t>> stacks_;
    std::vector<uint64_t> hits_; // hits_[d] = hits at stack distance d
    uint64_t missesBeyond_ = 0;
};

} // namespace rebudget::cache

#endif // REBUDGET_CACHE_UMON_H_
