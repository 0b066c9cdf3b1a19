#ifndef REBUDGET_MARKET_UTILITY_MODEL_H_
#define REBUDGET_MARKET_UTILITY_MODEL_H_

/**
 * @file
 * Player utility interface (paper Section 2).
 *
 * A utility model maps an allocation vector r = (r_1, ..., r_M) over the
 * market's M resources to a scalar utility.  The theory requires
 * utilities to be concave, non-decreasing, and continuous; in the CMP
 * instantiation utilities are IPC normalized to the run-alone IPC
 * (Section 4.1.1), hence in [0, 1], and cache utilities are convexified
 * via Talus to meet the concavity requirement.
 */

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "rebudget/util/status.h"

namespace rebudget::market {

/**
 * Bilinear interpolant over a rectangular two-resource grid: the shape
 * of every catalog application utility (app::AppUtilityModel, cache x
 * power).  Inputs are *extras* above per-axis guaranteed minimums;
 * negative extras count as zero, coordinates clamp to the knot range,
 * and a saturated axis (total at or past its last knot) has slope 0.
 *
 * A value type that owns its knots and samples, so copying a model that
 * holds one never leaves a pointer into another model's storage.  Every
 * evaluation is inline: the market's two-resource hill climb
 * (hillClimbPair in bidding.h), the MaxEfficiency oracle and scoring
 * read it in place of virtual UtilityModel calls.
 *
 * Knots must be non-decreasing per axis with >= 2 entries (owners
 * validate; AppUtilityModel requires them finite and strictly
 * increasing).  A default-constructed surface is empty and must not be
 * evaluated.
 */
class BilinearSurface
{
  public:
    BilinearSurface() = default;

    /**
     * @param knots0  axis-0 knots in total units (>= 2, increasing)
     * @param knots1  axis-1 knots in total units (>= 2, increasing)
     * @param values  row-major samples, values[i0 * knots1.size() + i1]
     * @param min0    guaranteed axis-0 amount added to every allocation
     * @param min1    guaranteed axis-1 amount added to every allocation
     */
    BilinearSurface(std::vector<double> knots0, std::vector<double> knots1,
                    std::vector<double> values, double min0, double min1);

    /** Interpolated value at *total* (x0, x1), clamped to the grid. */
    double valueAt(double x0, double x1) const
    {
        const Cell cell = locate(x0, x1);
        const double tx = (cell.x0 - cell.k0[0]) / (cell.k0[1] - cell.k0[0]);
        const double ty = (cell.x1 - cell.k1[0]) / (cell.k1[1] - cell.k1[0]);
        return (1.0 - tx) * ((1.0 - ty) * cell.u00 + ty * cell.u01) +
               tx * ((1.0 - ty) * cell.u10 + ty * cell.u11);
    }

    /** Value at the extras (a0, a1) above the minimums. */
    double utility(double a0, double a1) const
    {
        return valueAt(min0_ + std::max(0.0, a0), min1_ + std::max(0.0, a1));
    }

    /** One component of gradient(), computing only that axis. */
    double marginal(size_t axis, double a0, double a1) const
    {
        const double c = min0_ + std::max(0.0, a0);
        const double p = min1_ + std::max(0.0, a1);
        const Cell cell = locate(c, p);
        if (axis == 0)
            return c >= knots0_.back() ? 0.0 : slope0(cell);
        return p >= knots1_.back() ? 0.0 : slope1(cell);
    }

    /**
     * Both axis slopes at the extras (a0, a1) from one shared cell
     * lookup.  Both slopes are computed unconditionally and saturation
     * is applied as selects at the end: a saturated axis (total at or
     * past its last knot) publishes a literal 0.0, an unsaturated one
     * the slope over its cell.
     */
    void gradient(double a0, double a1, double &g0, double &g1) const
    {
        const double c = min0_ + std::max(0.0, a0);
        const double p = min1_ + std::max(0.0, a1);
        const Cell cell = locate(c, p);
        const double s0 = slope0(cell);
        const double s1 = slope1(cell);
        g0 = c >= knots0_.back() ? 0.0 : s0;
        g1 = p >= knots1_.back() ? 0.0 : s1;
    }

    /**
     * Index of the cell containing x among n >= 2 knots, in [0, n-2]:
     * the count of interior knots k[1..n-2] with !(x < k[t]).  For
     * non-decreasing knots this equals the clamped upper_bound(x) - 1
     * for every x, NaN included (a NaN compares false, so it lands in
     * the last cell either way), without the binary search's
     * data-dependent branches, which mispredict when successive calls
     * land in different cells (DESIGN 3.2).
     */
    static size_t cellIndex(const double *knots, size_t n, double x)
    {
        size_t i = 0;
        for (size_t t = 1; t + 1 < n; ++t)
            i += static_cast<size_t>(!(x < knots[t]));
        return i;
    }

    /** @return axis-0 knots (total units). */
    const std::vector<double> &knots0() const { return knots0_; }
    /** @return axis-1 knots (total units). */
    const std::vector<double> &knots1() const { return knots1_; }
    /** @return row-major samples, values()[i0 * knots1().size() + i1]. */
    const std::vector<double> &values() const { return values_; }
    /** @return guaranteed axis-0 amount. */
    double min0() const { return min0_; }
    /** @return guaranteed axis-1 amount. */
    double min1() const { return min1_; }

  private:
    /** The grid cell around a clamped point, with its corner samples. */
    struct Cell
    {
        /** The point, clamped to the knot range. */
        double x0, x1;
        /** The cell's lower knot on each axis; [1] is the upper one. */
        const double *k0, *k1;
        /** Samples at (lower, lower), (lower, upper), ... corners. */
        double u00, u01, u10, u11;
    };

    Cell locate(double x0, double x1) const
    {
        const size_t n0 = knots0_.size();
        const size_t n1 = knots1_.size();
        Cell cell;
        cell.x0 = std::clamp(x0, knots0_.front(), knots0_.back());
        cell.x1 = std::clamp(x1, knots1_.front(), knots1_.back());
        const size_t ci = cellIndex(knots0_.data(), n0, cell.x0);
        const size_t pi = cellIndex(knots1_.data(), n1, cell.x1);
        cell.k0 = knots0_.data() + ci;
        cell.k1 = knots1_.data() + pi;
        const double *row0 = values_.data() + ci * n1 + pi;
        const double *row1 = row0 + n1;
        cell.u00 = row0[0];
        cell.u01 = row0[1];
        cell.u10 = row1[0];
        cell.u11 = row1[1];
        return cell;
    }

    /** Slope along axis 0, interpolated along axis 1. */
    static double slope0(const Cell &c)
    {
        const double ty = (c.x1 - c.k1[0]) / (c.k1[1] - c.k1[0]);
        const double dx = c.k0[1] - c.k0[0];
        return ((c.u10 - c.u00) * (1.0 - ty) + (c.u11 - c.u01) * ty) / dx;
    }

    /** Slope along axis 1, interpolated along axis 0. */
    static double slope1(const Cell &c)
    {
        const double tx = (c.x0 - c.k0[0]) / (c.k0[1] - c.k0[0]);
        const double dy = c.k1[1] - c.k1[0];
        return ((c.u01 - c.u00) * (1.0 - tx) + (c.u11 - c.u10) * tx) / dy;
    }

    std::vector<double> knots0_;
    std::vector<double> knots1_;
    std::vector<double> values_;
    double min0_ = 0.0;
    double min1_ = 0.0;
};

/**
 * Abstract concave utility over an M-resource allocation.
 *
 * Implementations must be immutable after construction (const methods
 * with no mutable caches): markets and allocators evaluate them
 * concurrently from parallel eval sweeps.
 */
class UtilityModel
{
  public:
    virtual ~UtilityModel() = default;

    /** @return the number of resources M this utility is defined over. */
    virtual size_t numResources() const = 0;

    /**
     * @return utility at the given allocation (one entry per resource,
     * in resource units).
     */
    virtual double utility(std::span<const double> alloc) const = 0;

    /**
     * @return the marginal utility dU/dr_j at the given allocation
     * (right-hand derivative).  The default implementation uses a
     * forward finite difference; concrete models may override with an
     * analytic slope.
     *
     * @param resource  index j of the resource
     * @param alloc     allocation at which to evaluate
     */
    virtual double marginal(size_t resource,
                            std::span<const double> alloc) const;

    /**
     * Compute every marginal dU/dr_j at once into `out` (size M).
     *
     * Semantically identical to calling marginal() for each resource;
     * the contract is exact agreement, so callers may use either
     * interchangeably.  The default implementation loops over
     * marginal().  Models whose per-resource marginals share work (the
     * bilinear AppUtilityModel locates the grid cell once for both
     * axes) override this as the bid optimizer's fast path: the hill
     * climber evaluates the full gradient every step.
     */
    virtual void gradient(std::span<const double> alloc,
                          std::span<double> out) const;

    /**
     * Optional bilinear surface this two-resource model is exactly:
     * for every allocation (a0, a1), utility(), marginal(k) and
     * gradient() return, bit for bit, the surface's utility(a0, a1),
     * marginal(k, a0, a1) and gradient(a0, a1).  The market's hill
     * climb and rescale, the MaxEfficiency oracle and scoring
     * (ownAndBestUtilities) evaluate it inline instead of calling the
     * model through the vtable.  Models that are not a bare bilinear
     * surface return nullptr (the default) -- including wrappers
     * around one, whose values differ.  The surface must stay valid
     * and immutable for the model's lifetime.
     */
    virtual const BilinearSurface *bilinearSurface() const
    {
        return nullptr;
    }

    /** @return a human-readable name for diagnostics. */
    virtual std::string name() const { return "utility"; }

  protected:
    /** Step used by the finite-difference default marginal. */
    static constexpr double kFiniteDiffStep = 1e-4;
};

/**
 * Simple concrete model for tests and examples: a weighted sum of
 * per-resource concave power curves,
 *   U(r) = sum_j w_j * (r_j / c_j)^e_j  with 0 < e_j <= 1,
 * normalized so that U(c) = 1 at full capacity c.
 */
class PowerLawUtility : public UtilityModel
{
  public:
    /**
     * @param weights    per-resource weights (sum normalized internally)
     * @param exponents  per-resource exponents in (0, 1]
     * @param capacities per-resource normalization constants (> 0)
     *
     * Malformed parameters do not throw: the model degrades to a
     * harmless single-resource constant and setupStatus() records why.
     */
    PowerLawUtility(std::vector<double> weights,
                    std::vector<double> exponents,
                    std::vector<double> capacities);

    /** Ok, or why the parameters were rejected (see the constructor). */
    const util::SolveStatus &setupStatus() const { return status_; }

    size_t numResources() const override { return weights_.size(); }
    double utility(std::span<const double> alloc) const override;
    double marginal(size_t resource,
                    std::span<const double> alloc) const override;
    void gradient(std::span<const double> alloc,
                  std::span<double> out) const override;
    std::string name() const override { return "power-law"; }

  private:
    std::vector<double> weights_;
    std::vector<double> exponents_;
    std::vector<double> capacities_;
    /**
     * Hot-path precomputation for gradient(): interleaved per-resource
     * triplets [c_j, w_j * e_j, e_j - 1.0], folded once at construction
     * so the per-call loop is one contiguous pass (24 bytes per
     * resource -- the sweep loop walks thousands of scattered models,
     * so locality matters).  gradient() computes coeff * pow(x, em1) / c
     * with x = alloc/c -- the identical association order marginal()
     * uses, hence bit-identical results.
     */
    std::vector<double> hot_;
    util::SolveStatus status_;
};

} // namespace rebudget::market

#endif // REBUDGET_MARKET_UTILITY_MODEL_H_
