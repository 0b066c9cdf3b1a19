/**
 * AppUtilityModel construction options: custom grids, alternate
 * minimums, and robustness of the concavification pipeline.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "rebudget/app/catalog.h"
#include "rebudget/app/utility.h"
#include "rebudget/power/power_model.h"
#include "rebudget/util/logging.h"

namespace rebudget::app {
namespace {

const power::PowerModel &
powerModel()
{
    static const power::PowerModel pm;
    return pm;
}

TEST(UtilityGrid, CoarseGridStillConcaveAndMonotone)
{
    UtilityGridOptions coarse;
    coarse.cacheRegions = {1, 4, 16};
    coarse.freqsGhz = {0.8, 2.4, 4.0};
    const AppUtilityModel m(findCatalogProfile("vpr"), powerModel(),
                            coarse);
    double prev = -1.0;
    for (double c = 0.0; c <= 15.0; c += 0.5) {
        const double u = m.utility(std::vector<double>{c, 5.0});
        EXPECT_GE(u, prev - 1e-12);
        prev = u;
    }
    EXPECT_NEAR(m.utilityTotal(16.0, m.maxWatts()), 1.0, 1e-9);
}

TEST(UtilityGrid, CoarseAndFineGridsAgreeAtSharedKnots)
{
    // Shared sample points must produce identical normalized values
    // regardless of how many other knots the grid has.
    const auto &profile = findCatalogProfile("swim");
    UtilityGridOptions coarse;
    coarse.cacheRegions = {1, 8, 16};
    coarse.freqsGhz = {0.8, 4.0};
    coarse.convexify = false;
    UtilityGridOptions fine;
    fine.convexify = false;
    const AppUtilityModel mc(profile, powerModel(), coarse);
    const AppUtilityModel mf(profile, powerModel(), fine);
    for (double c : {1.0, 8.0, 16.0}) {
        EXPECT_NEAR(mc.utilityTotal(c, mc.maxWatts()),
                    mf.utilityTotal(c, mf.maxWatts()), 1e-9);
        EXPECT_NEAR(mc.utilityTotal(c, mc.minWatts()),
                    mf.utilityTotal(c, mf.minWatts()), 1e-9);
    }
}

TEST(UtilityGrid, LargerMinimumShiftsBaseline)
{
    UtilityGridOptions big_min;
    big_min.minRegions = 4.0;
    const auto &profile = findCatalogProfile("mcf");
    const AppUtilityModel with_min(profile, powerModel(), big_min);
    const AppUtilityModel default_min(profile, powerModel());
    // Zero extras with a 4-region minimum equals 3 extra regions on the
    // default 1-region minimum.
    EXPECT_NEAR(
        with_min.utility(std::vector<double>{0.0, 2.0}),
        default_min.utility(std::vector<double>{3.0, 2.0}), 1e-9);
}

TEST(UtilityGrid, RejectsDegenerateGrids)
{
    const auto &profile = findCatalogProfile("mcf");
    UtilityGridOptions bad;
    bad.cacheRegions = {4};
    EXPECT_THROW(AppUtilityModel(profile, powerModel(), bad),
                 util::FatalError);
    bad = UtilityGridOptions{};
    bad.freqsGhz = {2.0};
    EXPECT_THROW(AppUtilityModel(profile, powerModel(), bad),
                 util::FatalError);
    bad = UtilityGridOptions{};
    bad.cacheRegions = {4, 2, 8}; // unsorted
    EXPECT_THROW(AppUtilityModel(profile, powerModel(), bad),
                 util::FatalError);
    // Both axes must be strictly increasing and finite, with the hull
    // on or off: a repeated knot is a zero-width cell, and the cell
    // lookup presumes ordered knots.
    for (bool convexify : {true, false}) {
        bad = UtilityGridOptions{};
        bad.convexify = convexify;
        bad.cacheRegions = {1, 2, 2, 4, 16}; // duplicate cache knot
        EXPECT_THROW(AppUtilityModel(profile, powerModel(), bad),
                     util::FatalError)
            << convexify;
        bad = UtilityGridOptions{};
        bad.convexify = convexify;
        bad.cacheRegions = {1, 2, std::nan(""), 16};
        EXPECT_THROW(AppUtilityModel(profile, powerModel(), bad),
                     util::FatalError)
            << convexify;
        bad = UtilityGridOptions{};
        bad.convexify = convexify;
        bad.freqsGhz = {0.8, 2.4, 1.6, 4.0}; // unsorted
        EXPECT_THROW(AppUtilityModel(profile, powerModel(), bad),
                     util::FatalError)
            << convexify;
        bad = UtilityGridOptions{};
        bad.convexify = convexify;
        bad.freqsGhz = {0.8, 2.0, 2.0, 4.0}; // duplicate frequency
        EXPECT_THROW(AppUtilityModel(profile, powerModel(), bad),
                     util::FatalError)
            << convexify;
    }
}

TEST(UtilityGrid, GridValueAccessorMatchesUtility)
{
    const AppUtilityModel m(findCatalogProfile("gcc"), powerModel());
    // Grid cell (ci, pi) corresponds to total allocation
    // (cacheKnots[ci], powerKnots[pi]).
    for (size_t ci : {0u, 3u, 9u}) {
        for (size_t pi : {0u, 4u, 8u}) {
            EXPECT_NEAR(m.gridValue(ci, pi),
                        m.utilityTotal(m.cacheKnots()[ci],
                                       m.powerKnots()[pi]),
                        1e-9);
        }
    }
}

TEST(UtilityGrid, AllCatalogAppsConcaveOnBothAxes)
{
    for (const auto &profile : catalogProfiles()) {
        const AppUtilityModel m(profile, powerModel());
        const auto &cs = m.cacheKnots();
        const auto &ps = m.powerKnots();
        // Along cache at every power knot.
        for (size_t pi = 0; pi < ps.size(); ++pi) {
            double prev_slope = 1e18;
            for (size_t ci = 1; ci < cs.size(); ++ci) {
                const double slope =
                    (m.gridValue(ci, pi) - m.gridValue(ci - 1, pi)) /
                    (cs[ci] - cs[ci - 1]);
                EXPECT_LE(slope, prev_slope + 1e-9)
                    << profile.params.name;
                prev_slope = slope;
            }
        }
        // Along power at every cache knot.
        for (size_t ci = 0; ci < cs.size(); ++ci) {
            double prev_slope = 1e18;
            for (size_t pi = 1; pi < ps.size(); ++pi) {
                const double slope =
                    (m.gridValue(ci, pi) - m.gridValue(ci, pi - 1)) /
                    (ps[pi] - ps[pi - 1]);
                EXPECT_LE(slope, prev_slope + 1e-9)
                    << profile.params.name;
                prev_slope = slope;
            }
        }
    }
}

} // namespace
} // namespace rebudget::app
