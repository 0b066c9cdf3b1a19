#include "rebudget/app/utility.h"

#include <algorithm>
#include <cmath>

#include "rebudget/util/logging.h"
#include "rebudget/util/piecewise.h"

namespace rebudget::app {

GridSanitizeReport
sanitizeUtilityGrid(std::vector<double> &grid, size_t nc, size_t np)
{
    REBUDGET_ASSERT(grid.size() == nc * np, "grid size mismatch");
    GridSanitizeReport report;

    // Non-finite cells take the last finite value in row-major scan
    // order (zero when the grid starts with a hole); the monotone
    // projection below then restores shape around the patch.
    double prev = 0.0;
    for (auto &v : grid) {
        if (!std::isfinite(v)) {
            v = prev;
            ++report.nonFiniteCells;
        }
        prev = v;
    }

    for (auto &v : grid) {
        if (v < 0.0) {
            v = 0.0;
            ++report.negativeCells;
        }
    }

    // Enforce monotone non-decreasing along both axes (running max),
    // cache axis first, then power: the exact projection the profile
    // constructor has always applied, so clean grids pass unchanged.
    for (size_t pi = 0; pi < np; ++pi) {
        for (size_t ci = 1; ci < nc; ++ci) {
            const double below = grid[(ci - 1) * np + pi];
            if (grid[ci * np + pi] < below) {
                grid[ci * np + pi] = below;
                ++report.monotoneRaised;
            }
        }
    }
    for (size_t ci = 0; ci < nc; ++ci) {
        for (size_t pi = 1; pi < np; ++pi) {
            const double left = grid[ci * np + pi - 1];
            if (grid[ci * np + pi] < left) {
                grid[ci * np + pi] = left;
                ++report.monotoneRaised;
            }
        }
    }

    if (!grid.empty()) {
        const auto [lo, hi] = std::minmax_element(grid.begin(), grid.end());
        report.flatGrid = *lo == *hi;
    }
    return report;
}

std::vector<double>
concavifySamples(const std::vector<double> &xs, const std::vector<double> &ys)
{
    const util::PiecewiseLinear hull =
        util::PiecewiseLinear(xs, ys).concaveMajorant();
    std::vector<double> out(xs.size());
    for (size_t i = 0; i < xs.size(); ++i)
        out[i] = hull.eval(xs[i]);
    return out;
}

namespace {

/** @return true if every knot is finite and exceeds the one before. */
bool
strictlyIncreasing(const std::vector<double> &knots)
{
    for (size_t i = 0; i < knots.size(); ++i) {
        if (!std::isfinite(knots[i]))
            return false;
        if (i > 0 && knots[i] <= knots[i - 1])
            return false;
    }
    return true;
}

/** Validate an untrusted raw grid; Ok when it can be used as given. */
util::SolveStatus
rawGridStatus(const std::string &name, const RawUtilityGrid &raw)
{
    if (raw.cacheKnots.size() < 2 || raw.powerKnots.size() < 2) {
        return util::SolveStatus::error(
            util::StatusCode::InvalidArgument,
            "raw grid '%s' needs >= 2 knots per axis (got %zu x %zu)",
            name.c_str(), raw.cacheKnots.size(), raw.powerKnots.size());
    }
    if (!strictlyIncreasing(raw.cacheKnots) ||
        !strictlyIncreasing(raw.powerKnots)) {
        return util::SolveStatus::error(
            util::StatusCode::InvalidArgument,
            "raw grid '%s' knots must be finite and strictly increasing",
            name.c_str());
    }
    if (raw.grid.size() != raw.cacheKnots.size() * raw.powerKnots.size()) {
        return util::SolveStatus::error(
            util::StatusCode::InvalidArgument,
            "raw grid '%s' has %zu cells, expected %zu x %zu",
            name.c_str(), raw.grid.size(), raw.cacheKnots.size(),
            raw.powerKnots.size());
    }
    if (!std::isfinite(raw.minRegions) || raw.minRegions < 0.0 ||
        !std::isfinite(raw.minWatts) || raw.minWatts < 0.0 ||
        !std::isfinite(raw.activity) || raw.activity <= 0.0) {
        return util::SolveStatus::error(
            util::StatusCode::InvalidArgument,
            "raw grid '%s' has malformed minimums or activity",
            name.c_str());
    }
    return util::SolveStatus();
}

} // namespace

AppUtilityModel::AppUtilityModel(const AppProfile &profile,
                                 const power::PowerModel &power,
                                 const UtilityGridOptions &options)
    : name_(profile.params.name), activity_(profile.params.activity)
{
    if (options.cacheRegions.size() < 2 || options.freqsGhz.size() < 2)
        util::fatal("utility grid needs at least 2 points per axis");
    // A repeated knot would make a zero-width cell (a divide by zero in
    // every slope), and the cell lookup presumes ordered knots.
    if (!strictlyIncreasing(options.cacheRegions))
        util::fatal("cache grid must be finite and strictly increasing");
    if (!strictlyIncreasing(options.freqsGhz))
        util::fatal("frequency grid must be finite and strictly increasing");
    std::vector<double> cache_knots = options.cacheRegions;

    // Power knots: watts at each sampled frequency (strictly increasing
    // because core power is strictly increasing in frequency).
    std::vector<double> power_knots;
    power_knots.reserve(options.freqsGhz.size());
    for (double f : options.freqsGhz)
        power_knots.push_back(power.corePower(f, activity_));
    if (!strictlyIncreasing(power_knots))
        util::fatal("app '%s' power grid is not strictly increasing",
                    name_.c_str());

    // Sample the 90-point utility grid: performance normalized to the
    // run-alone configuration (all monitored cache, max frequency).
    const size_t nc = cache_knots.size();
    const size_t np = power_knots.size();
    const bool hull = options.convexify;
    const double perf_alone =
        profile.perfAlone(options.freqsGhz.back(), hull);
    if (perf_alone <= 0.0)
        util::fatal("app '%s' has zero run-alone performance",
                    name_.c_str());
    std::vector<double> grid(nc * np, 0.0);
    for (size_t ci = 0; ci < nc; ++ci) {
        for (size_t pi = 0; pi < np; ++pi) {
            const double perf = profile.perfAt(
                cache_knots[ci], options.freqsGhz[pi], hull);
            grid[ci * np + pi] = perf / perf_alone;
        }
    }

    if (options.convexify) {
        // Alternate per-axis concave majorants until stable (each pass
        // only raises values, bounded by 1, so this converges quickly).
        for (int pass = 0; pass < 4; ++pass) {
            bool changed = false;
            for (size_t pi = 0; pi < np; ++pi) { // along cache
                std::vector<double> col(nc);
                for (size_t ci = 0; ci < nc; ++ci)
                    col[ci] = grid[ci * np + pi];
                const auto fixed = concavifySamples(cache_knots, col);
                for (size_t ci = 0; ci < nc; ++ci) {
                    if (fixed[ci] > col[ci] + 1e-12)
                        changed = true;
                    grid[ci * np + pi] = fixed[ci];
                }
            }
            for (size_t ci = 0; ci < nc; ++ci) { // along power
                std::vector<double> row(np);
                for (size_t pi = 0; pi < np; ++pi)
                    row[pi] = grid[ci * np + pi];
                const auto fixed = concavifySamples(power_knots, row);
                for (size_t pi = 0; pi < np; ++pi) {
                    if (fixed[pi] > row[pi] + 1e-12)
                        changed = true;
                    grid[ci * np + pi] = fixed[pi];
                }
            }
            if (!changed)
                break;
        }
    }
    // Monotone non-decreasing along both axes plus NaN/negative guards
    // (the latter are no-ops for profile-sampled grids).
    sanitizeReport_ = sanitizeUtilityGrid(grid, nc, np);
    const double min_watts = power_knots.front();
    surface_ = market::BilinearSurface(std::move(cache_knots),
                                       std::move(power_knots),
                                       std::move(grid), options.minRegions,
                                       min_watts);
}

AppUtilityModel::AppUtilityModel(RawUtilityGrid raw)
    : name_(std::move(raw.name)), activity_(raw.activity),
      gridStatus_(rawGridStatus(name_, raw))
{
    if (gridStatus_.ok()) {
        sanitizeReport_ = sanitizeUtilityGrid(
            raw.grid, raw.cacheKnots.size(), raw.powerKnots.size());
    } else {
        // Untrusted input: degrade to a flat zero surface over a
        // minimal valid grid instead of fataling; gridStatus() says why.
        if (!std::isfinite(raw.minRegions) || raw.minRegions < 0.0)
            raw.minRegions = 1.0;
        if (!std::isfinite(raw.minWatts) || raw.minWatts < 0.0)
            raw.minWatts = 0.0;
        if (!std::isfinite(activity_) || activity_ <= 0.0)
            activity_ = 1.0;
        raw.cacheKnots = {raw.minRegions, raw.minRegions + 1.0};
        raw.powerKnots = {raw.minWatts, raw.minWatts + 1.0};
        raw.grid.assign(4, 0.0);
        sanitizeReport_.flatGrid = true;
    }
    surface_ = market::BilinearSurface(
        std::move(raw.cacheKnots), std::move(raw.powerKnots),
        std::move(raw.grid), raw.minRegions, raw.minWatts);
}

double
AppUtilityModel::utility(std::span<const double> alloc) const
{
    REBUDGET_ASSERT(alloc.size() == 2, "expected 2-resource allocation");
    return surface_.utility(alloc[kCache], alloc[kPower]);
}

double
AppUtilityModel::marginal(size_t resource,
                          std::span<const double> alloc) const
{
    REBUDGET_ASSERT(alloc.size() == 2, "expected 2-resource allocation");
    REBUDGET_ASSERT(resource < 2, "resource out of range");
    return surface_.marginal(resource, alloc[kCache], alloc[kPower]);
}

void
AppUtilityModel::gradient(std::span<const double> alloc,
                          std::span<double> out) const
{
    REBUDGET_ASSERT(alloc.size() == 2, "expected 2-resource allocation");
    REBUDGET_ASSERT(out.size() == 2, "expected 2-resource gradient");
    surface_.gradient(alloc[kCache], alloc[kPower], out[kCache],
                      out[kPower]);
}

double
AppUtilityModel::utilityTotal(double regions, double watts) const
{
    return surface_.valueAt(regions, watts);
}

double
AppUtilityModel::gridValue(size_t ci, size_t pi) const
{
    const size_t np = surface_.knots1().size();
    REBUDGET_ASSERT(ci < surface_.knots0().size() && pi < np,
                    "grid index out of range");
    return surface_.values()[ci * np + pi];
}

} // namespace rebudget::app
