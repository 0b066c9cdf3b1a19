/**
 * @file
 * Bit-identicality regression for the cache models' set indexing.  The
 * production SetAssocCache and UMonitor split an address into line, set
 * and tag with shifts and masks when the geometry is a power of two and
 * keep the division otherwise; verbatim ports of the original
 * division-only models live below.  Driven with the same seeded traffic,
 * every access must report the same hit, victim partition and
 * writeback, and the occupancy, statistics, stack-distance histogram
 * and miss curve must match.  The geometries cover both index paths:
 * the profiler's L1 (128 sets), a 12-set cache, a 6-core simulator
 * L2 (1536 sets), and a monitor whose shadow set count (1536)
 * and sampling ratio (24) are not powers of two.
 */

#include "rebudget/cache/set_assoc_cache.h"
#include "rebudget/cache/umon.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "rebudget/cache/curve_repair.h"
#include "rebudget/util/rng.h"

namespace rebudget::cache {
namespace {

// The original partition-aware cache, division-indexed.
class ReferenceCache
{
  public:
    ReferenceCache(const CacheConfig &config, uint32_t partitions)
        : config_(config), numPartitions_(partitions),
          numSets_(config.sets())
    {
        lines_.assign(numSets_ * config_.assoc, Line{});
        scales_.assign(partitions, 1.0);
        occupancy_.assign(partitions, 0);
        stats_.assign(partitions, PartitionStats{});
    }

    AccessResult
    access(uint32_t partition, uint64_t addr, bool write)
    {
        ++now_;
        const uint64_t line_addr = addr / config_.lineBytes;
        const uint64_t set = line_addr % numSets_;
        const uint64_t tag = line_addr / numSets_;
        const uint64_t base = set * config_.assoc;

        AccessResult result;
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

        ++stats_[partition].misses;
        const uint32_t victim_way = findVictim(base);
        Line &line = lines_[base + victim_way];
        if (line.valid) {
            result.victimPartition = line.owner;
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

    void setScale(uint32_t partition, double scale)
    {
        scales_[partition] = scale;
    }

    uint64_t occupancy(uint32_t p) const { return occupancy_[p]; }
    const PartitionStats &stats(uint32_t p) const { return stats_[p]; }

  private:
    struct Line
    {
        uint64_t tag = 0;
        uint64_t lastTouch = 0;
        int32_t owner = -1;
        bool valid = false;
        bool dirty = false;
    };

    uint32_t
    findVictim(uint64_t set_base)
    {
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

    CacheConfig config_;
    uint32_t numPartitions_;
    uint64_t numSets_;
    uint64_t now_ = 0;
    std::vector<Line> lines_;
    std::vector<double> scales_;
    std::vector<uint64_t> occupancy_;
    std::vector<PartitionStats> stats_;
};

// The original sampled shadow-tag monitor, division-indexed.
class ReferenceUMon
{
  public:
    explicit ReferenceUMon(const UMonConfig &config) : config_(config)
    {
        shadowSets_ = config_.regionBytes / config_.lineBytes;
        sampledSets_ = (shadowSets_ + config_.samplingRatio - 1) /
                       config_.samplingRatio;
        stacks_.assign(sampledSets_, {});
        hits_.assign(config_.maxRegions, 0);
    }

    void
    observe(uint64_t addr)
    {
        const uint64_t line = addr / config_.lineBytes;
        const uint64_t set = line % shadowSets_;
        if (set % config_.samplingRatio != 0)
            return; // not a sampled set
        const uint64_t sampled_idx = set / config_.samplingRatio;
        const uint64_t tag = line / shadowSets_;
        auto &stack = stacks_[sampled_idx];
        const auto it = std::find(stack.begin(), stack.end(), tag);
        if (it != stack.end()) {
            const auto d = static_cast<uint32_t>(it - stack.begin());
            ++hits_[d];
            stack.erase(it);
            stack.insert(stack.begin(), tag);
        } else {
            ++missesBeyond_;
            stack.insert(stack.begin(), tag);
            if (stack.size() > config_.maxRegions)
                stack.pop_back();
        }
    }

    MissCurve
    missCurve() const
    {
        uint64_t total = missesBeyond_;
        for (uint64_t h : hits_)
            total += h;
        const double scale = static_cast<double>(config_.samplingRatio);
        std::vector<double> misses(config_.maxRegions + 1);
        uint64_t hits_below = 0;
        misses[0] = static_cast<double>(total) * scale;
        for (uint32_t r = 1; r <= config_.maxRegions; ++r) {
            hits_below += hits_[r - 1];
            misses[r] = static_cast<double>(total - hits_below) * scale;
        }
        return repairedMissCurve(std::move(misses));
    }

    uint64_t hitsAtDistance(uint32_t d) const { return hits_[d]; }
    uint64_t missesBeyond() const { return missesBeyond_; }

  private:
    UMonConfig config_;
    uint64_t shadowSets_;
    uint64_t sampledSets_;
    std::vector<std::vector<uint64_t>> stacks_;
    std::vector<uint64_t> hits_;
    uint64_t missesBeyond_ = 0;
};

// Seeded traffic: mostly a skewed hot working set about twice the
// cache's lines (hits, misses and evictions in every set), plus a
// sprinkle of full 64-bit addresses so the high tag bits are exercised.
class Traffic
{
  public:
    Traffic(uint64_t lines, uint32_t line_bytes, uint64_t seed)
        : lines_(lines), lineBytes_(line_bytes), rng_(seed)
    {}

    uint64_t
    next()
    {
        const double pick = rng_.uniform();
        if (pick < 0.05)
            return rng_.next();
        const uint64_t pool = pick < 0.6 ? lines_ / 4 : lines_ * 2;
        return rng_.uniformInt(pool) * lineBytes_ +
               rng_.uniformInt(uint64_t{lineBytes_});
    }

    util::Rng &rng() { return rng_; }

  private:
    uint64_t lines_;
    uint32_t lineBytes_;
    util::Rng rng_;
};

void
expectSameCache(const CacheConfig &config, uint32_t partitions,
                uint64_t seed)
{
    SetAssocCache cache(config, partitions);
    ReferenceCache ref(config, partitions);
    Traffic traffic(config.lines(), config.lineBytes, seed);
    constexpr double kScales[] = {0.25, 0.5, 1.0, 1.7, 3.0, 8.0};
    for (int i = 0; i < 400 * 1000; ++i) {
        if (i % 5000 == 0) {
            // Non-unit futility scales reorder victims across
            // partitions, the way the futility controller does.
            for (uint32_t p = 0; p < partitions; ++p) {
                const double s = kScales[traffic.rng().uniformInt(
                    uint64_t{std::size(kScales)})];
                cache.setScale(p, s);
                ref.setScale(p, s);
            }
        }
        const auto p =
            static_cast<uint32_t>(traffic.rng().uniformInt(partitions));
        const bool write = traffic.rng().bernoulli(0.3);
        const uint64_t addr = traffic.next();
        const AccessResult got = cache.access(p, addr, write);
        const AccessResult want = ref.access(p, addr, write);
        ASSERT_EQ(got.hit, want.hit) << "access " << i;
        ASSERT_EQ(got.victimPartition, want.victimPartition)
            << "access " << i;
        ASSERT_EQ(got.writeback, want.writeback) << "access " << i;
    }
    uint64_t hits = 0;
    for (uint32_t p = 0; p < partitions; ++p) {
        EXPECT_EQ(cache.occupancy(p), ref.occupancy(p)) << "partition " << p;
        EXPECT_EQ(cache.stats(p).hits, ref.stats(p).hits);
        EXPECT_EQ(cache.stats(p).misses, ref.stats(p).misses);
        EXPECT_EQ(cache.stats(p).writebacks, ref.stats(p).writebacks);
        hits += ref.stats(p).hits;
    }
    // The traffic must exercise both outcomes to mean anything.
    EXPECT_GT(hits, 10000u);
}

TEST(CacheIndexReference, ProfilerL1PowerOfTwoSets)
{
    const CacheConfig l1{32 * 1024, 4, 64};
    ASSERT_EQ(l1.sets(), 128u);
    expectSameCache(l1, 3, 11);
}

TEST(CacheIndexReference, TwelveSets)
{
    const CacheConfig small{12 * 8 * 64, 8, 64};
    ASSERT_EQ(small.sets(), 12u);
    expectSameCache(small, 4, 12);
}

TEST(CacheIndexReference, SixCoreSharedL2)
{
    // A 6-core simulator L2: 3 MiB at CmpConfig's default 32 ways.
    const CacheConfig l2{6 * 512 * 1024, 32, 64};
    ASSERT_EQ(l2.sets(), 1536u);
    expectSameCache(l2, 12, 13);
}

void
expectSameUMon(const UMonConfig &config, uint64_t seed)
{
    UMonitor umon(config);
    ReferenceUMon ref(config);
    const uint64_t monitored_lines =
        config.maxRegions * config.regionBytes / config.lineBytes;
    Traffic traffic(monitored_lines, config.lineBytes, seed);
    for (int i = 0; i < 2 * 1000 * 1000; ++i) {
        const uint64_t addr = traffic.next();
        umon.observe(addr);
        ref.observe(addr);
    }
    uint64_t hits = 0;
    for (uint32_t d = 0; d < config.maxRegions; ++d) {
        EXPECT_EQ(umon.hitsAtDistance(d), ref.hitsAtDistance(d))
            << "distance " << d;
        hits += ref.hitsAtDistance(d);
    }
    EXPECT_EQ(umon.missesBeyond(), ref.missesBeyond());
    const MissCurve got_curve = umon.missCurve();
    const MissCurve want_curve = ref.missCurve();
    const auto &got = got_curve.samples();
    const auto &want = want_curve.samples();
    ASSERT_EQ(got.size(), want.size());
    for (size_t r = 0; r < got.size(); ++r) {
        EXPECT_EQ(std::bit_cast<uint64_t>(got[r]),
                  std::bit_cast<uint64_t>(want[r]))
            << "regions " << r;
    }
    EXPECT_GT(hits, 1000u);
}

TEST(UMonIndexReference, DefaultGeometry)
{
    expectSameUMon(UMonConfig{}, 21);
}

TEST(UMonIndexReference, NonPowerOfTwoSetsAndRatio)
{
    UMonConfig config;
    config.regionBytes = 96 * 1024; // 1536 shadow sets
    config.samplingRatio = 24;
    expectSameUMon(config, 22);
}

} // namespace
} // namespace rebudget::cache
