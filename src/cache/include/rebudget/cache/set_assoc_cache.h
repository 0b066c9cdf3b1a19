#ifndef REBUDGET_CACHE_SET_ASSOC_CACHE_H_
#define REBUDGET_CACHE_SET_ASSOC_CACHE_H_

/**
 * @file
 * Partition-aware set-associative cache model.
 *
 * The cache tracks, for every resident line, the partition (player) that
 * owns it.  Replacement uses *Futility Scaling* [Wang & Chen, MICRO'14]:
 * the victim within a set is the line with the largest scaled futility,
 * where futility is the line's LRU age and the per-partition scale factor
 * is adjusted by a feedback controller (see FutilityController) to keep
 * each partition's occupancy near its target at cache-line granularity.
 *
 * With all scale factors equal the policy degenerates to plain global
 * LRU, which is also the single-partition behavior.
 */

#include <cstdint>
#include <vector>

#include "rebudget/cache/cache_config.h"
#include "rebudget/cache/fixed_divisor.h"

namespace rebudget::cache {

/** Outcome of one cache access. */
struct AccessResult
{
    /** True if the line was already resident. */
    bool hit = false;
    /** True if a dirty line was evicted (writeback generated). */
    bool writeback = false;
    /** Partition that lost a line to make room (-1 if none). */
    int32_t victimPartition = -1;
};

/** Per-partition hit/miss counters. */
struct PartitionStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t writebacks = 0;

    /** @return accesses observed. */
    uint64_t accesses() const { return hits + misses; }

    /** @return miss ratio in [0, 1] (0 when no accesses). */
    double
    missRatio() const
    {
        const uint64_t a = accesses();
        return a ? static_cast<double>(misses) / static_cast<double>(a) : 0.0;
    }
};

/**
 * Set-associative cache with futility-scaled, partition-aware
 * replacement.
 */
class SetAssocCache
{
  public:
    /**
     * @param config      cache geometry
     * @param partitions  number of partitions (players) sharing the cache
     */
    SetAssocCache(const CacheConfig &config, uint32_t partitions);

    /**
     * Perform one access on behalf of a partition.
     *
     * @param partition  owning partition of the access
     * @param addr       byte address
     * @param write      true for stores
     * @return hit/miss outcome and eviction details
     */
    AccessResult access(uint32_t partition, uint64_t addr, bool write);

    /**
     * Set the futility scale factor for a partition (positive and
     * finite).  Larger scale makes the partition's lines more likely to
     * be victimized.
     */
    void setScale(uint32_t partition, double scale);

    /** @return the current futility scale of a partition. */
    double scale(uint32_t partition) const;

    /** @return lines currently owned by a partition. */
    uint64_t occupancy(uint32_t partition) const;

    /** @return cumulative statistics of a partition. */
    const PartitionStats &stats(uint32_t partition) const;

    /** Reset hit/miss statistics (occupancy is preserved). */
    void resetStats();

    /** Invalidate the entire cache contents and reset statistics. */
    void flush();

    /** @return the cache geometry. */
    const CacheConfig &config() const { return config_; }

    /** @return the number of partitions. */
    uint32_t partitions() const { return numPartitions_; }

  private:
    struct Line
    {
        uint64_t tag = 0;
        uint64_t lastTouch = 0;
        int32_t owner = -1;
        bool valid = false;
        bool dirty = false;
    };

    uint32_t findVictim(uint64_t set_base);

    CacheConfig config_;
    uint32_t numPartitions_;
    uint32_t lineShift_;    // log2(lineBytes)
    FixedDivisor setIndex_; // line address -> (tag, set)
    uint64_t now_ = 0;
    std::vector<Line> lines_; // sets * assoc, set-major
    std::vector<double> scales_;
    std::vector<uint64_t> occupancy_;
    std::vector<PartitionStats> stats_;
};

} // namespace rebudget::cache

#endif // REBUDGET_CACHE_SET_ASSOC_CACHE_H_
