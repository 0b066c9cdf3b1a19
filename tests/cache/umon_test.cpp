#include "rebudget/cache/umon.h"

#include <gtest/gtest.h>

#include "rebudget/trace/pointer_chase.h"
#include "rebudget/trace/stride.h"
#include "rebudget/trace/uniform.h"
#include "rebudget/trace/zipf.h"
#include "rebudget/util/logging.h"

namespace rebudget::cache {
namespace {

// Full sampling (ratio 1) makes assertions exact.
UMonConfig
fullSampling()
{
    UMonConfig cfg;
    cfg.samplingRatio = 1;
    return cfg;
}

TEST(UMon, RepeatedLineHitsAtDistanceZero)
{
    UMonitor umon(fullSampling());
    for (int i = 0; i < 10; ++i)
        umon.observe(0x1000);
    EXPECT_EQ(umon.hitsAtDistance(0), 9u);
    EXPECT_EQ(umon.missesBeyond(), 1u);
}

TEST(UMon, AlternatingLinesHitAtDistanceOne)
{
    UMonitor umon(fullSampling());
    // Two lines mapping to the same shadow set (stride = sets * line).
    const uint64_t stride = (128 * 1024 / 64) * 64; // one region
    for (int i = 0; i < 10; ++i)
        umon.observe((i % 2) * stride);
    EXPECT_EQ(umon.hitsAtDistance(1), 8u);
    EXPECT_EQ(umon.missesBeyond(), 2u);
}

TEST(UMon, MissCurveMonotoneNonIncreasing)
{
    UMonitor umon(fullSampling());
    trace::ZipfWorkingSetGen gen(0, 1024 * 1024, 64, 0.9, 0.0, 7);
    for (int i = 0; i < 200000; ++i)
        umon.observe(gen.next().addr);
    const MissCurve curve = umon.missCurve();
    for (size_t r = 1; r <= curve.maxRegions(); ++r)
        EXPECT_LE(curve.missesAt(r), curve.missesAt(r - 1) + 1e-9);
}

TEST(UMon, StreamNeverHits)
{
    UMonitor umon(fullSampling());
    trace::StrideGen gen(0, 32 * 1024 * 1024, 64, 0.0);
    for (int i = 0; i < 100000; ++i)
        umon.observe(gen.next().addr);
    const MissCurve curve = umon.missCurve();
    // All capacities miss everything: the stream's reuse distance exceeds
    // the monitored range.
    EXPECT_DOUBLE_EQ(curve.missesAt(curve.maxRegions()),
                     curve.missesAt(0));
}

TEST(UMon, PointerChaseCliffAtWorkingSetSize)
{
    // 768 kB pointer chase = 6 regions: misses must collapse at 6
    // regions and be near-total below.
    UMonitor umon(fullSampling());
    trace::PointerChaseGen gen(0, 768 * 1024, 64, 11);
    // Two full laps to warm, then measure.
    const int lap = 768 * 1024 / 64;
    for (int i = 0; i < 2 * lap; ++i)
        umon.observe(gen.next().addr);
    umon.resetHistogram();
    for (int i = 0; i < 4 * lap; ++i)
        umon.observe(gen.next().addr);
    const MissCurve curve = umon.missCurve();
    const double at5 = curve.missesAt(5);
    const double at6 = curve.missesAt(6);
    EXPECT_LT(at6, 0.05 * curve.missesAt(0));
    EXPECT_GT(at5, 0.60 * curve.missesAt(0));
}

TEST(UMon, UniformWorkingSetRampsLinearly)
{
    // Uniform random over 1 MB (8 regions): hits at capacity c regions
    // are roughly proportional to c/8.
    UMonitor umon(fullSampling());
    trace::UniformWorkingSetGen gen(0, 1024 * 1024, 64, 0.0, 13);
    for (int i = 0; i < 100000; ++i)
        umon.observe(gen.next().addr);
    umon.resetHistogram();
    for (int i = 0; i < 400000; ++i)
        umon.observe(gen.next().addr);
    const MissCurve curve = umon.missCurve();
    const double total = curve.missesAt(0);
    const double half = curve.missesAt(4);
    EXPECT_NEAR(half / total, 0.5, 0.1);
}

TEST(UMon, SampledCurveApproximatesFullCurve)
{
    UMonConfig sampled;
    sampled.samplingRatio = 32;
    UMonitor full(fullSampling());
    UMonitor mon(sampled);
    trace::ZipfWorkingSetGen gen(0, 1536 * 1024, 64, 0.8, 0.0, 5);
    for (int i = 0; i < 600000; ++i) {
        const uint64_t addr = gen.next().addr;
        full.observe(addr);
        mon.observe(addr);
    }
    const MissCurve cf = full.missCurve();
    const MissCurve cs = mon.missCurve();
    // Compare normalized miss ratios at a few capacities.
    for (size_t r : {0u, 4u, 8u, 12u, 16u}) {
        const double rf = cf.missesAt(r) / cf.missesAt(0);
        const double rs = cs.missesAt(r) / cs.missesAt(0);
        EXPECT_NEAR(rf, rs, 0.08) << "at " << r << " regions";
    }
}

TEST(UMon, TotalAccessesScaled)
{
    UMonConfig cfg;
    cfg.samplingRatio = 32;
    UMonitor umon(cfg);
    trace::UniformWorkingSetGen gen(0, 2 * 1024 * 1024, 64, 0.0, 3);
    const int n = 320000;
    for (int i = 0; i < n; ++i)
        umon.observe(gen.next().addr);
    EXPECT_NEAR(umon.totalAccessesScaled(), n, 0.1 * n);
}

TEST(UMon, ResetClearsCounters)
{
    UMonitor umon(fullSampling());
    umon.observe(0);
    umon.observe(0);
    umon.reset();
    EXPECT_EQ(umon.missesBeyond(), 0u);
    EXPECT_EQ(umon.hitsAtDistance(0), 0u);
    // After a full reset the shadow tags are cold again.
    umon.observe(0);
    EXPECT_EQ(umon.missesBeyond(), 1u);
}

TEST(UMon, ResetHistogramKeepsTags)
{
    UMonitor umon(fullSampling());
    umon.observe(0);
    umon.resetHistogram();
    umon.observe(0); // still resident -> distance-0 hit
    EXPECT_EQ(umon.hitsAtDistance(0), 1u);
    EXPECT_EQ(umon.missesBeyond(), 0u);
}

TEST(UMon, StorageOverheadSmall)
{
    UMonConfig cfg; // paper setup: 16 distances, ratio 32
    UMonitor umon(cfg);
    // Paper: ~3.6 kB per core, < 1% of 512 kB.
    EXPECT_LT(umon.storageOverheadBytes(), 8 * 1024u);
    EXPECT_GT(umon.storageOverheadBytes(), 1024u);
}

TEST(UMonDeath, HitsAtDistanceOutOfRangeAsserts)
{
    UMonitor umon(fullSampling());
    EXPECT_DEATH(umon.hitsAtDistance(16), "stack distance out of range");
}

TEST(UMon, RejectsBadConfig)
{
    UMonConfig bad;
    bad.maxRegions = 0;
    EXPECT_THROW(UMonitor{bad}, util::FatalError);
    bad = UMonConfig{};
    bad.lineBytes = 48;
    EXPECT_THROW(UMonitor{bad}, util::FatalError);
    bad = UMonConfig{};
    bad.samplingRatio = 0;
    EXPECT_THROW(UMonitor{bad}, util::FatalError);
    bad = UMonConfig{};
    bad.regionBytes = 0; // no shadow sets to index
    EXPECT_THROW(UMonitor{bad}, util::FatalError);
}

} // namespace
} // namespace rebudget::cache
