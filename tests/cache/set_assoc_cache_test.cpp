#include "rebudget/cache/set_assoc_cache.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "rebudget/util/logging.h"

namespace rebudget::cache {
namespace {

CacheConfig
smallConfig()
{
    // 4 sets x 4 ways x 64 B = 1 kB.
    return CacheConfig{1024, 4, 64};
}

TEST(CacheConfig, Geometry)
{
    const CacheConfig cfg{4 * 1024 * 1024, 16, 64};
    EXPECT_EQ(cfg.sets(), 4096u);
    EXPECT_EQ(cfg.lines(), 65536u);
}

TEST(CacheConfig, ValidateRejectsBadGeometry)
{
    EXPECT_THROW((CacheConfig{1000, 4, 64}).validate(), util::FatalError);
    EXPECT_THROW((CacheConfig{1024, 0, 64}).validate(), util::FatalError);
    EXPECT_THROW((CacheConfig{1024, 4, 48}).validate(), util::FatalError);
}

TEST(SetAssocCache, RejectsBadGeometryBeforeDerivingSets)
{
    // sets() divides by assoc * lineBytes, so validation comes first.
    EXPECT_THROW(SetAssocCache(CacheConfig{1024, 0, 64}, 1),
                 util::FatalError);
    EXPECT_THROW(SetAssocCache(CacheConfig{1024, 4, 0}, 1),
                 util::FatalError);
}

// NaN and +inf used to pass the positivity check; an infinite scale
// makes every futility of an owner's lines infinite (or NaN at age 0).
TEST(SetAssocCache, RejectsNonPositiveOrNonFiniteScale)
{
    SetAssocCache cache(smallConfig(), 2);
    EXPECT_THROW(cache.setScale(1, 0.0), util::FatalError);
    EXPECT_THROW(cache.setScale(1, -1.0), util::FatalError);
    EXPECT_THROW(cache.setScale(1, std::nan("")), util::FatalError);
    EXPECT_THROW(cache.setScale(1, std::numeric_limits<double>::infinity()),
                 util::FatalError);
    EXPECT_EQ(cache.scale(1), 1.0);
    cache.setScale(1, 2.5);
    EXPECT_EQ(cache.scale(1), 2.5);
}

TEST(SetAssocCache, FirstAccessMissesSecondHits)
{
    SetAssocCache cache(smallConfig(), 1);
    EXPECT_FALSE(cache.access(0, 0x40, false).hit);
    EXPECT_TRUE(cache.access(0, 0x40, false).hit);
}

TEST(SetAssocCache, SameLineDifferentOffsetHits)
{
    SetAssocCache cache(smallConfig(), 1);
    cache.access(0, 0x100, false);
    EXPECT_TRUE(cache.access(0, 0x13F, false).hit);
    EXPECT_FALSE(cache.access(0, 0x140, false).hit);
}

TEST(SetAssocCache, LruEvictionOrder)
{
    // 4-way set; fill with 4 lines mapping to the same set, then touch a
    // 5th: the least recently used (first) line must be evicted.
    SetAssocCache cache(smallConfig(), 1);
    const uint64_t set_stride = 4 * 64; // 4 sets
    for (uint64_t i = 0; i < 4; ++i)
        cache.access(0, i * set_stride, false);
    // Re-touch line 0 so line 1 becomes LRU.
    cache.access(0, 0, false);
    cache.access(0, 4 * set_stride, false); // evicts line 1
    EXPECT_TRUE(cache.access(0, 0, false).hit);
    EXPECT_FALSE(cache.access(0, 1 * set_stride, false).hit);
}

TEST(SetAssocCache, WorkingSetWithinCapacityAllHitsAfterWarmup)
{
    SetAssocCache cache(smallConfig(), 1);
    for (uint64_t addr = 0; addr < 1024; addr += 64)
        cache.access(0, addr, false);
    for (uint64_t addr = 0; addr < 1024; addr += 64)
        EXPECT_TRUE(cache.access(0, addr, false).hit);
}

TEST(SetAssocCache, StatsCountHitsAndMisses)
{
    SetAssocCache cache(smallConfig(), 2);
    cache.access(0, 0, false);
    cache.access(0, 0, false);
    cache.access(1, 64, false);
    EXPECT_EQ(cache.stats(0).misses, 1u);
    EXPECT_EQ(cache.stats(0).hits, 1u);
    EXPECT_EQ(cache.stats(1).misses, 1u);
    EXPECT_EQ(cache.stats(1).hits, 0u);
    EXPECT_DOUBLE_EQ(cache.stats(0).missRatio(), 0.5);
}

TEST(SetAssocCache, WritebackOnDirtyEviction)
{
    SetAssocCache cache(smallConfig(), 1);
    const uint64_t set_stride = 4 * 64;
    cache.access(0, 0, true); // dirty
    for (uint64_t i = 1; i <= 4; ++i)
        cache.access(0, i * set_stride, false);
    // Line 0 was LRU and dirty: its eviction produced a writeback.
    EXPECT_EQ(cache.stats(0).writebacks, 1u);
}

TEST(SetAssocCache, OccupancyTracksOwnership)
{
    SetAssocCache cache(smallConfig(), 2);
    cache.access(0, 0, false);
    cache.access(0, 64, false);
    cache.access(1, 128, false);
    EXPECT_EQ(cache.occupancy(0), 2u);
    EXPECT_EQ(cache.occupancy(1), 1u);
}

TEST(SetAssocCache, OccupancyConservedUnderEviction)
{
    SetAssocCache cache(smallConfig(), 2);
    // Overfill one set from both partitions.
    const uint64_t set_stride = 4 * 64;
    for (uint64_t i = 0; i < 12; ++i)
        cache.access(i % 2, i * set_stride, false);
    EXPECT_EQ(cache.occupancy(0) + cache.occupancy(1), 4u);
}

TEST(SetAssocCache, ScaleBiasesVictimSelection)
{
    // Two partitions contending for one set: partition 0 gets a huge
    // futility scale, so its lines are always the victims and partition 1
    // keeps its lines resident.
    SetAssocCache cache(smallConfig(), 2);
    cache.setScale(0, 1000.0);
    cache.setScale(1, 1e-3);
    const uint64_t set_stride = 4 * 64;
    // Partition 1 loads two lines, partition 0 streams through.
    cache.access(1, 0 * set_stride, false);
    cache.access(1, 1 * set_stride, false);
    for (uint64_t i = 2; i < 30; ++i)
        cache.access(0, i * set_stride, false);
    EXPECT_TRUE(cache.access(1, 0 * set_stride, false).hit);
    EXPECT_TRUE(cache.access(1, 1 * set_stride, false).hit);
}

TEST(SetAssocCache, VictimPartitionReported)
{
    SetAssocCache cache(smallConfig(), 2);
    const uint64_t set_stride = 4 * 64;
    for (uint64_t i = 0; i < 4; ++i)
        cache.access(0, i * set_stride, false);
    const AccessResult r = cache.access(1, 4 * set_stride, false);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.victimPartition, 0);
}

TEST(SetAssocCache, FlushEmptiesEverything)
{
    SetAssocCache cache(smallConfig(), 1);
    cache.access(0, 0, false);
    cache.flush();
    EXPECT_EQ(cache.occupancy(0), 0u);
    EXPECT_FALSE(cache.access(0, 0, false).hit);
}

TEST(SetAssocCache, ResetStatsKeepsContents)
{
    SetAssocCache cache(smallConfig(), 1);
    cache.access(0, 0, false);
    cache.resetStats();
    EXPECT_EQ(cache.stats(0).accesses(), 0u);
    EXPECT_TRUE(cache.access(0, 0, false).hit);
}

TEST(SetAssocCache, RejectsNonPositiveScale)
{
    SetAssocCache cache(smallConfig(), 1);
    EXPECT_THROW(cache.setScale(0, 0.0), util::FatalError);
    EXPECT_THROW(cache.setScale(0, -1.0), util::FatalError);
}

TEST(SetAssocCacheDeath, PartitionOutOfRangeAsserts)
{
    SetAssocCache cache(smallConfig(), 1);
    EXPECT_DEATH(cache.access(5, 0, false), "partition out of range");
}

// Parameterized sweep: LRU behavior must hold across geometries.
class CacheGeometry
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint32_t>>
{
};

TEST_P(CacheGeometry, CyclicSweepBeyondCapacityAlwaysMisses)
{
    const auto [size, assoc] = GetParam();
    SetAssocCache cache(CacheConfig{size, assoc, 64}, 1);
    // Sweep a footprint 2x the capacity twice: with LRU, the second lap
    // hits nothing.
    const uint64_t lines = 2 * size / 64;
    for (uint64_t lap = 0; lap < 2; ++lap) {
        for (uint64_t i = 0; i < lines; ++i) {
            const AccessResult r = cache.access(0, i * 64, false);
            EXPECT_FALSE(r.hit);
        }
    }
}

TEST_P(CacheGeometry, HalfCapacityFootprintFullyHits)
{
    const auto [size, assoc] = GetParam();
    SetAssocCache cache(CacheConfig{size, assoc, 64}, 1);
    const uint64_t lines = size / 64 / 2;
    for (uint64_t i = 0; i < lines; ++i)
        cache.access(0, i * 64, false);
    for (uint64_t i = 0; i < lines; ++i)
        EXPECT_TRUE(cache.access(0, i * 64, false).hit);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(std::make_tuple(uint64_t{1024}, 2u),
                      std::make_tuple(uint64_t{4096}, 4u),
                      std::make_tuple(uint64_t{32 * 1024}, 4u),
                      std::make_tuple(uint64_t{64 * 1024}, 16u),
                      std::make_tuple(uint64_t{128 * 1024}, 8u)));

} // namespace
} // namespace rebudget::cache
