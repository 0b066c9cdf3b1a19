#include "rebudget/cache/talus.h"

#include <cmath>

#include <gtest/gtest.h>

#include "rebudget/util/logging.h"

namespace rebudget::cache {
namespace {

TEST(Talus, SplitAtPoiIsSinglePartition)
{
    const MissCurve c({100, 60, 30, 10, 0});
    const TalusSplit s = computeTalusSplit(c, 2.0);
    EXPECT_DOUBLE_EQ(s.fracA, 0.0);
    EXPECT_DOUBLE_EQ(s.sizeBRegions, 2.0);
    EXPECT_DOUBLE_EQ(s.expectedMisses, 30.0);
}

TEST(Talus, MidpointBetweenPois)
{
    // Cliff curve: PoIs at 0 and 4.
    const MissCurve c({100, 100, 100, 100, 0});
    const TalusSplit s = computeTalusSplit(c, 2.0);
    // rho = (4 - 2) / (4 - 0) = 0.5.
    EXPECT_DOUBLE_EQ(s.fracA, 0.5);
    EXPECT_DOUBLE_EQ(s.sizeARegions, 0.0);  // rho * s1, s1 = 0
    EXPECT_DOUBLE_EQ(s.sizeBRegions, 2.0);  // (1 - rho) * s2
    EXPECT_DOUBLE_EQ(s.expectedMisses, 50.0);
}

TEST(Talus, SizesSumToTarget)
{
    const MissCurve c({90, 80, 85, 40, 42, 10, 5, 5});
    for (double t = 0.0; t <= 7.0; t += 0.21) {
        const TalusSplit s = computeTalusSplit(c, t);
        EXPECT_NEAR(s.sizeARegions + s.sizeBRegions, t, 1e-9)
            << "target " << t;
    }
}

TEST(Talus, ExpectedMissesMatchHullEverywhere)
{
    const MissCurve c({90, 80, 85, 40, 42, 10, 5, 5});
    for (double t = 0.0; t <= 7.0; t += 0.13) {
        const TalusSplit s = computeTalusSplit(c, t);
        EXPECT_NEAR(s.expectedMisses, c.missesAtHull(t), 1e-9);
    }
}

TEST(Talus, FracWithinUnitInterval)
{
    const MissCurve c({50, 49, 10, 9, 8, 0});
    for (double t = 0.0; t <= 5.0; t += 0.1) {
        const TalusSplit s = computeTalusSplit(c, t);
        EXPECT_GE(s.fracA, 0.0);
        EXPECT_LE(s.fracA, 1.0);
    }
}

TEST(Talus, TargetBeyondCurveClamped)
{
    const MissCurve c({10, 5, 0});
    const TalusSplit s = computeTalusSplit(c, 100.0);
    EXPECT_DOUBLE_EQ(s.expectedMisses, 0.0);
    EXPECT_DOUBLE_EQ(s.sizeARegions + s.sizeBRegions, 2.0);
}

TEST(Talus, ZeroTargetAllMisses)
{
    const MissCurve c({10, 5, 0});
    const TalusSplit s = computeTalusSplit(c, 0.0);
    EXPECT_DOUBLE_EQ(s.expectedMisses, 10.0);
}

TEST(Talus, BracketingPoisReported)
{
    const MissCurve c({100, 100, 100, 100, 0}); // PoIs {0, 4}
    const TalusSplit s = computeTalusSplit(c, 1.0);
    EXPECT_DOUBLE_EQ(s.poiLow, 0.0);
    EXPECT_DOUBLE_EQ(s.poiHigh, 4.0);
}

TEST(TalusRoute, DeterministicPerLine)
{
    for (uint64_t line = 0; line < 100; ++line) {
        EXPECT_EQ(talusRouteToA(line, 0.37), talusRouteToA(line, 0.37));
    }
}

TEST(TalusRoute, ExtremesAreTotal)
{
    for (uint64_t line = 0; line < 50; ++line) {
        EXPECT_FALSE(talusRouteToA(line, 0.0));
        EXPECT_TRUE(talusRouteToA(line, 1.0));
    }
}

TEST(TalusRoute, FractionApproximatelyRespected)
{
    const double frac = 0.3;
    int to_a = 0;
    const int n = 100000;
    for (uint64_t line = 0; line < n; ++line)
        to_a += talusRouteToA(line, frac);
    EXPECT_NEAR(static_cast<double>(to_a) / n, frac, 0.01);
}

TEST(TalusRoute, MonotoneInFraction)
{
    // A line routed to A at fraction f stays in A for all f' > f
    // (consistent hashing: growing A never reshuffles B-resident lines).
    for (uint64_t line = 0; line < 1000; ++line) {
        if (talusRouteToA(line, 0.3)) {
            EXPECT_TRUE(talusRouteToA(line, 0.6));
        }
    }
}

} // namespace
} // namespace rebudget::cache
