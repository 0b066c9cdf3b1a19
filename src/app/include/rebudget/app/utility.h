#ifndef REBUDGET_APP_UTILITY_H_
#define REBUDGET_APP_UTILITY_H_

/**
 * @file
 * Application utility over (cache, power) allocations.
 *
 * Utility is performance normalized to the run-alone configuration
 * (Section 4.1.1): U(c, P) = Perf(c, f(P)) / Perf(16 regions, f_max),
 * hence in [0, 1].  Performance is instructions per second, i.e. IPC
 * measured against a fixed reference clock, which is what makes Equation
 * 5 weighted speedup.
 *
 * The model samples the paper's 90-point grid ({1..6, 8, 10, 12, 16}
 * regions x {0.8, 1.2, ..., 4.0} GHz), optionally convexifies the
 * sampled surface per axis (Talus for cache, concave DVFS power for
 * frequency), and interpolates bilinearly.  The market trades *extra*
 * resources above the guaranteed minimum (1 region, min-frequency
 * power), so the model's allocation inputs are extras; the minimum is
 * baked in.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "rebudget/app/profiler.h"
#include "rebudget/market/utility_model.h"
#include "rebudget/power/power_model.h"
#include "rebudget/util/status.h"

namespace rebudget::app {

/** What sanitizeUtilityGrid changed, for telemetry. */
struct GridSanitizeReport
{
    /** NaN/Inf cells replaced by a preceding finite value. */
    std::int64_t nonFiniteCells = 0;
    /** Negative utilities clamped to zero. */
    std::int64_t negativeCells = 0;
    /** Cells raised by the monotone (running-max) projection. */
    std::int64_t monotoneRaised = 0;
    /** True when every cell ended up equal (degenerate flat surface). */
    bool flatGrid = false;

    /** @return true if any cell was repaired (flatness alone counts). */
    bool any() const
    {
        return nonFiniteCells > 0 || negativeCells > 0 ||
               monotoneRaised > 0 || flatGrid;
    }
};

/**
 * Repair a sampled utility grid in place so bilinear interpolation and
 * the bid optimizer stay well-defined: replaces NaN/Inf cells with the
 * last finite value in row-major scan order (zero when none precedes),
 * clamps negatives to zero, then enforces monotone non-decreasing
 * utility along the cache axis and then the power axis via running
 * maxima -- the exact projection AppUtilityModel has always applied, so
 * clean grids are bit-identical before and after.
 *
 * @param grid  row-major grid, grid[ci * np + pi]
 * @param nc    number of cache knots (rows)
 * @param np    number of power knots (columns)
 */
GridSanitizeReport sanitizeUtilityGrid(std::vector<double> &grid,
                                       size_t nc, size_t np);

/**
 * An externally supplied (possibly corrupted) utility surface, the
 * untrusted-input counterpart of profile-driven construction.  Fault
 * injection and external profile importers build models from this.
 */
struct RawUtilityGrid
{
    std::string name = "raw";
    /** Total cache regions per knot, strictly increasing, >= 2 knots. */
    std::vector<double> cacheKnots;
    /** Total watts per knot, strictly increasing, >= 2 knots. */
    std::vector<double> powerKnots;
    /** Row-major utilities, grid[ci * powerKnots.size() + pi]. */
    std::vector<double> grid;
    double minRegions = 1.0;
    double minWatts = 0.0;
    double activity = 1.0;
};

/** Grid and convexification options for utility construction. */
struct UtilityGridOptions
{
    /** Cache sample points in total regions (paper Section 6). */
    std::vector<double> cacheRegions = {1, 2, 3, 4, 5, 6, 8, 10, 12, 16};
    /** Frequency sample points in GHz (paper Section 6). */
    std::vector<double> freqsGhz = {0.8, 1.2, 1.6, 2.0, 2.4,
                                    2.8, 3.2, 3.6, 4.0};
    /**
     * Convexify: use the Talus hull of the miss curve and take the
     * per-axis concave majorant of the sampled utility surface.  When
     * false, the raw sampled surface is used (original-XChange ablation).
     */
    bool convexify = true;
    /** Guaranteed free cache per core, in regions. */
    double minRegions = 1.0;
};

/**
 * Concave, continuous, non-decreasing utility of one application over
 * two market resources: extra cache regions and extra watts.
 */
class AppUtilityModel : public market::UtilityModel
{
  public:
    /** Resource indices within allocation vectors. */
    static constexpr size_t kCache = 0;
    static constexpr size_t kPower = 1;

    /**
     * @param profile  the application's measured profile
     * @param power    the power model (frequency <-> watts mapping)
     * @param options  grid and convexification options
     */
    AppUtilityModel(const AppProfile &profile,
                    const power::PowerModel &power,
                    const UtilityGridOptions &options = {});

    /**
     * Construct from an untrusted raw grid.  Never fatals: malformed
     * knots or a size-mismatched grid degrade to a flat zero surface
     * with gridStatus() explaining why, and repairable damage (NaN/Inf
     * cells, negative or non-monotone utilities) is sanitized with the
     * repairs recorded in sanitizeReport().
     */
    explicit AppUtilityModel(RawUtilityGrid raw);

    size_t numResources() const override { return 2; }

    /** Utility at (extra cache regions, extra watts). */
    double utility(std::span<const double> alloc) const override;

    /** Analytic per-axis slope of the bilinear interpolant. */
    double marginal(size_t resource,
                    std::span<const double> alloc) const override;

    /**
     * Both axis slopes from a single grid-cell lookup, forwarded to
     * market::BilinearSurface::gradient (the formula's only copy).
     * Produces exactly the values of the two marginal() calls (the bid
     * optimizer's hot path depends on the equivalence).
     */
    void gradient(std::span<const double> alloc,
                  std::span<double> out) const override;

    /** @return the surface gradient() evaluates (never null). */
    const market::BilinearSurface *bilinearSurface() const override
    {
        return &surface_;
    }

    std::string name() const override { return name_; }

    /** Utility at *total* (regions, watts), bypassing the minimums. */
    double utilityTotal(double regions, double watts) const;

    /** @return guaranteed free cache in regions. */
    double minRegions() const { return surface_.min0(); }

    /** @return guaranteed free power in watts (min-frequency power). */
    double minWatts() const { return surface_.min1(); }

    /** @return largest useful total cache in regions. */
    double maxRegions() const { return surface_.knots0().back(); }

    /** @return power at which the core reaches max frequency (watts). */
    double maxWatts() const { return surface_.knots1().back(); }

    /** @return the app's activity factor (needed to map watts->freq). */
    double activity() const { return activity_; }

    /** @return sampled utility value at grid cell (ci, pi) (testing). */
    double gridValue(size_t ci, size_t pi) const;

    /** @return cache grid knots (total regions). */
    const std::vector<double> &cacheKnots() const
    {
        return surface_.knots0();
    }

    /** @return power grid knots (total watts). */
    const std::vector<double> &powerKnots() const
    {
        return surface_.knots1();
    }

    /**
     * @return Ok, or why the supplied grid was unusable and the model
     * fell back to a flat zero surface (raw-grid construction only).
     */
    const util::SolveStatus &gridStatus() const { return gridStatus_; }

    /** @return what grid sanitation repaired during construction. */
    const GridSanitizeReport &sanitizeReport() const
    {
        return sanitizeReport_;
    }

  private:
    std::string name_;
    double activity_ = 1.0;
    // Axis 0 = total cache regions, axis 1 = total watts; knots strictly
    // increasing, samples row-major [ci * powerKnots().size() + pi].
    market::BilinearSurface surface_;
    util::SolveStatus gridStatus_;
    GridSanitizeReport sanitizeReport_;
};

/**
 * Per-axis concave majorant of sampled values: evaluates the upper
 * concave hull of (xs, ys) back at each xs.  Exposed for tests.
 */
std::vector<double> concavifySamples(const std::vector<double> &xs,
                                     const std::vector<double> &ys);

} // namespace rebudget::app

#endif // REBUDGET_APP_UTILITY_H_
