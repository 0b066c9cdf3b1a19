/**
 * @file
 * LruFilter against the cache it replaces in the private L1s: a
 * SetAssocCache with one partition, whose futility scale stays 1.  Fed
 * the same seeded stream, reads and writes mixed, the filter must miss
 * on exactly the accesses the cache misses on.  The geometries cover direct
 * mapped, 4 ways (the profiler's L1), 16 ways, and a set count that is
 * not a power of two (the division index path).
 */

#include "rebudget/cache/lru_filter.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "rebudget/cache/set_assoc_cache.h"
#include "rebudget/util/logging.h"
#include "rebudget/util/rng.h"

namespace rebudget::cache {
namespace {

struct Ref
{
    uint64_t addr = 0;
    bool write = false;
};

// Seeded traffic: a hot pool of a quarter of the cache's lines, a cold
// pool of twice its lines (conflict misses and evictions in every set),
// lines near address 0 (tag 0, the tag of a never-filled way) and a few
// full 64-bit addresses; 30% writes.  The filter takes it in batches of
// 1 to 300 references.
void
expectSameHits(const CacheConfig &config, uint64_t seed)
{
    LruFilter filter(config);
    SetAssocCache cache(config, 1);
    util::Rng rng(seed);
    const uint64_t lines = config.lines();
    std::vector<Ref> batch;
    uint64_t hits = 0;
    uint64_t misses = 0;
    for (size_t done = 0; done < 300 * 1000;) {
        batch.resize(1 + rng.uniformInt(uint64_t{300}));
        for (Ref &r : batch) {
            const double pick = rng.uniform();
            if (pick < 0.02) {
                r.addr = rng.next();
            } else if (pick < 0.1) {
                r.addr = rng.uniformInt(config.sets() * config.lineBytes);
            } else {
                const uint64_t pool =
                    pick < 0.6 ? lines / 4 + 1 : lines * 2;
                r.addr = rng.uniformInt(pool) * config.lineBytes +
                         rng.uniformInt(uint64_t{config.lineBytes});
            }
            r.write = rng.bernoulli(0.3);
        }
        std::vector<bool> missed(batch.size(), false);
        filter.filter(batch.data(), batch.size(), [&](const Ref &r) {
            missed[static_cast<size_t>(&r - batch.data())] = true;
        });
        for (size_t i = 0; i < batch.size(); ++i) {
            const bool hit = cache.access(0, batch[i].addr, batch[i].write).hit;
            ASSERT_EQ(!missed[i], hit) << "access " << done + i;
            ++(hit ? hits : misses);
        }
        done += batch.size();
    }
    // Both outcomes must be common for the comparison to mean anything.
    EXPECT_GT(hits, 30000u);
    EXPECT_GT(misses, 30000u);
}

// One access at a time: @return true when @p addr hit.
bool
hits(LruFilter &filter, uint64_t addr)
{
    const Ref ref{addr, false};
    bool hit = true;
    filter.filter(&ref, 1, [&](const Ref &) { hit = false; });
    return hit;
}

TEST(LruFilter, MatchesOnePartitionCacheDirectMapped)
{
    const CacheConfig config{16 * 1024, 1, 64};
    ASSERT_EQ(config.sets(), 256u);
    expectSameHits(config, 31);
}

TEST(LruFilter, MatchesOnePartitionCacheFourWays)
{
    const CacheConfig config{32 * 1024, 4, 64};
    ASSERT_EQ(config.sets(), 128u);
    expectSameHits(config, 32);
}

TEST(LruFilter, MatchesOnePartitionCacheSixteenWays)
{
    const CacheConfig config{64 * 1024, 16, 64};
    ASSERT_EQ(config.sets(), 64u);
    expectSameHits(config, 33);
}

TEST(LruFilter, MatchesOnePartitionCacheWithTwelveSets)
{
    const CacheConfig config{12 * 4 * 64, 4, 64};
    ASSERT_EQ(config.sets(), 12u);
    expectSameHits(config, 34);
}

TEST(LruFilter, EvictsTheLeastRecentlyUsedWay)
{
    // One set of two ways: touching line 0 again makes line 1 the victim.
    LruFilter filter(CacheConfig{2 * 64, 2, 64});
    EXPECT_FALSE(hits(filter, 0));
    EXPECT_FALSE(hits(filter, 64));
    EXPECT_TRUE(hits(filter, 0));
    EXPECT_FALSE(hits(filter, 128)); // evicts line 1
    EXPECT_TRUE(hits(filter, 0));
    EXPECT_FALSE(hits(filter, 64));
}

TEST(LruFilter, RejectsBadGeometryBeforeDerivingSets)
{
    EXPECT_THROW(LruFilter(CacheConfig{1024, 0, 64}), util::FatalError);
    EXPECT_THROW(LruFilter(CacheConfig{1024, 4, 0}), util::FatalError);
    EXPECT_THROW(LruFilter(CacheConfig{1000, 4, 64}), util::FatalError);
}

} // namespace
} // namespace rebudget::cache
