#include "rebudget/cache/set_assoc_cache.h"

#include <bit>
#include <cmath>

#include "rebudget/util/logging.h"

namespace rebudget::cache {

void
CacheConfig::validate() const
{
    if (lineBytes == 0 || (lineBytes & (lineBytes - 1)) != 0)
        util::fatal("cache line size must be a power of two");
    if (assoc == 0)
        util::fatal("cache associativity must be positive");
    if (sizeBytes == 0 ||
        sizeBytes % (static_cast<uint64_t>(assoc) * lineBytes) != 0) {
        util::fatal("cache size %llu not divisible by assoc*line",
                    static_cast<unsigned long long>(sizeBytes));
    }
}

namespace {

// Validated before the set count is derived: sets() divides by
// assoc * lineBytes.
const CacheConfig &
validated(const CacheConfig &config)
{
    config.validate();
    return config;
}

} // namespace

SetAssocCache::SetAssocCache(const CacheConfig &config, uint32_t partitions)
    : config_(validated(config)), numPartitions_(partitions),
      lineShift_(static_cast<uint32_t>(std::countr_zero(config.lineBytes))),
      setIndex_(config.sets())
{
    if (partitions == 0)
        util::fatal("cache requires at least one partition");
    lines_.assign(config_.lines(), Line{});
    scales_.assign(partitions, 1.0);
    occupancy_.assign(partitions, 0);
    stats_.assign(partitions, PartitionStats{});
}

AccessResult
SetAssocCache::access(uint32_t partition, uint64_t addr, bool write)
{
    REBUDGET_ASSERT(partition < numPartitions_, "partition out of range");
    ++now_;
    // lineBytes is a validated power of two; the set count may not be.
    const QuotRem split = setIndex_.divide(addr >> lineShift_);
    const uint64_t set = split.rem;
    const uint64_t tag = split.quot;
    const uint64_t base = set * config_.assoc;

    AccessResult result;
    // Hit check: a line is shared state; any partition may hit on it, but
    // in the multiprogrammed setting address spaces are disjoint so hits
    // are always on own lines.
    for (uint32_t w = 0; w < config_.assoc; ++w) {
        Line &line = lines_[base + w];
        if (line.valid && line.tag == tag) {
            line.lastTouch = now_;
            line.dirty = line.dirty || write;
            result.hit = true;
            ++stats_[partition].hits;
            return result;
        }
    }

    // Miss: find a victim way.
    ++stats_[partition].misses;
    const uint32_t victim_way = findVictim(base);
    Line &line = lines_[base + victim_way];
    if (line.valid) {
        result.victimPartition = line.owner;
        REBUDGET_ASSERT(line.owner >= 0, "valid line without owner");
        --occupancy_[static_cast<uint32_t>(line.owner)];
        if (line.dirty) {
            result.writeback = true;
            ++stats_[static_cast<uint32_t>(line.owner)].writebacks;
        }
    }
    line.valid = true;
    line.tag = tag;
    line.owner = static_cast<int32_t>(partition);
    line.dirty = write;
    line.lastTouch = now_;
    ++occupancy_[partition];
    return result;
}

uint32_t
SetAssocCache::findVictim(uint64_t set_base)
{
    // Prefer an invalid way; otherwise evict the line with the largest
    // scaled futility (LRU age times the owner partition's scale).
    double best_futility = -1.0;
    uint32_t best_way = 0;
    for (uint32_t w = 0; w < config_.assoc; ++w) {
        const Line &line = lines_[set_base + w];
        if (!line.valid)
            return w;
        const double age =
            static_cast<double>(now_ - line.lastTouch);
        const double futility =
            age * scales_[static_cast<uint32_t>(line.owner)];
        if (futility > best_futility) {
            best_futility = futility;
            best_way = w;
        }
    }
    return best_way;
}

void
SetAssocCache::setScale(uint32_t partition, double scale)
{
    REBUDGET_ASSERT(partition < numPartitions_, "partition out of range");
    if (!(scale > 0.0 && std::isfinite(scale)))
        util::fatal("futility scale must be positive and finite (got %f)",
                    scale);
    scales_[partition] = scale;
}

double
SetAssocCache::scale(uint32_t partition) const
{
    REBUDGET_ASSERT(partition < numPartitions_, "partition out of range");
    return scales_[partition];
}

uint64_t
SetAssocCache::occupancy(uint32_t partition) const
{
    REBUDGET_ASSERT(partition < numPartitions_, "partition out of range");
    return occupancy_[partition];
}

const PartitionStats &
SetAssocCache::stats(uint32_t partition) const
{
    REBUDGET_ASSERT(partition < numPartitions_, "partition out of range");
    return stats_[partition];
}

void
SetAssocCache::resetStats()
{
    for (auto &s : stats_)
        s = PartitionStats{};
}

void
SetAssocCache::flush()
{
    for (auto &line : lines_)
        line = Line{};
    for (auto &o : occupancy_)
        o = 0;
    resetStats();
}

} // namespace rebudget::cache
