#ifndef REBUDGET_TESTS_MARKET_REFERENCE_CLIMB_H_
#define REBUDGET_TESTS_MARKET_REFERENCE_CLIMB_H_

/**
 * @file
 * Verbatim ports of the bid hill climber and of the catalog utility's
 * bilinear interpolant as they stood before the two-resource climb
 * (market::hillClimbPair) and market::BilinearSurface took over the
 * m == 2 path:
 *
 *  - refOptimizeBidsInto: the generic optimizeBidsInto loop, scratch
 *    vectors and all, for every resource count;
 *  - refBilinearGradient / refBilinearValue: AppUtilityModel's
 *    gradient and interpolation with the std::upper_bound cell lookup,
 *    reading a model only through its public accessors.
 *
 * The reference tests compare production against these ports bit for
 * bit, so nothing here calls the production climb or the production
 * bilinear code.  Models the ports do not cover (power-law and other
 * non-bilinear utilities) are evaluated through their own gradient(),
 * which the two-resource climb did not change.
 */

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "rebudget/app/utility.h"
#include "rebudget/faults/fault_injector.h"
#include "rebudget/market/bidding.h"
#include "rebudget/market/utility_model.h"

namespace rebudget::market::reference {

/** Largest i with knots[i] <= x, clamped to [0, n-2]. */
inline size_t
refCellIndex(const std::vector<double> &knots, double x)
{
    const auto it = std::upper_bound(knots.begin(), knots.end(), x);
    size_t i = it == knots.begin()
                   ? 0
                   : static_cast<size_t>(it - knots.begin()) - 1;
    return std::min(i, knots.size() - 2);
}

/**
 * The bilinear gradient at extras alloc = (cache, power) over knots
 * (ck, pk) with samples value(ci, pi) and minimums (min_r, min_w).
 */
template <class Value>
void
refBilinearGradient(const std::vector<double> &ck,
                    const std::vector<double> &pk, const Value &value,
                    double min_r, double min_w,
                    std::span<const double> alloc, std::span<double> out)
{
    const double c = min_r + std::max(0.0, alloc[0]);
    const double p = min_w + std::max(0.0, alloc[1]);
    const bool cache_sat = c >= ck.back();
    const bool power_sat = p >= pk.back();
    const double cc = std::clamp(c, ck.front(), ck.back());
    const double pp = std::clamp(p, pk.front(), pk.back());
    const size_t ci = refCellIndex(ck, cc);
    const size_t pi = refCellIndex(pk, pp);
    const double u00 = value(ci, pi);
    const double u01 = value(ci, pi + 1);
    const double u10 = value(ci + 1, pi);
    const double u11 = value(ci + 1, pi + 1);
    const double ty = (pp - pk[pi]) / (pk[pi + 1] - pk[pi]);
    const double dx = ck[ci + 1] - ck[ci];
    const double slope_c =
        ((u10 - u00) * (1.0 - ty) + (u11 - u01) * ty) / dx;
    const double tx = (cc - ck[ci]) / (ck[ci + 1] - ck[ci]);
    const double dy = pk[pi + 1] - pk[pi];
    const double slope_p =
        ((u01 - u00) * (1.0 - tx) + (u11 - u10) * tx) / dy;
    out[0] = cache_sat ? 0.0 : slope_c;
    out[1] = power_sat ? 0.0 : slope_p;
}

/** The bilinear interpolant at *total* (regions, watts). */
template <class Value>
double
refBilinearValue(const std::vector<double> &ck,
                 const std::vector<double> &pk, const Value &value,
                 double regions, double watts)
{
    const double c = std::clamp(regions, ck.front(), ck.back());
    const double p = std::clamp(watts, pk.front(), pk.back());
    const size_t ci = refCellIndex(ck, c);
    const size_t pi = refCellIndex(pk, p);
    const double tx = (c - ck[ci]) / (ck[ci + 1] - ck[ci]);
    const double ty = (p - pk[pi]) / (pk[pi + 1] - pk[pi]);
    const double u00 = value(ci, pi);
    const double u01 = value(ci, pi + 1);
    const double u10 = value(ci + 1, pi);
    const double u11 = value(ci + 1, pi + 1);
    return (1.0 - tx) * ((1.0 - ty) * u00 + ty * u01) +
           tx * ((1.0 - ty) * u10 + ty * u11);
}

/** AppUtilityModel::gradient, read through the public accessors. */
inline void
refAppGradient(const app::AppUtilityModel &m, std::span<const double> alloc,
               std::span<double> out)
{
    refBilinearGradient(
        m.cacheKnots(), m.powerKnots(),
        [&m](size_t ci, size_t pi) { return m.gridValue(ci, pi); },
        m.minRegions(), m.minWatts(), alloc, out);
}

/** AppUtilityModel::utility, read through the public accessors. */
inline double
refAppUtility(const app::AppUtilityModel &m, std::span<const double> alloc)
{
    return refBilinearValue(
        m.cacheKnots(), m.powerKnots(),
        [&m](size_t ci, size_t pi) { return m.gridValue(ci, pi); },
        m.minRegions() + std::max(0.0, alloc[0]),
        m.minWatts() + std::max(0.0, alloc[1]));
}

/**
 * The gradient the ported climb evaluates: the ported bilinear formula
 * for catalog models and for liars wrapping one (gain times the
 * truth's gradient, as LiarUtilityModel computes it), the model's own
 * gradient() for everything else.
 */
inline void
refGradient(const UtilityModel &model, std::span<const double> alloc,
            std::span<double> out)
{
    if (const auto *app = dynamic_cast<const app::AppUtilityModel *>(&model)) {
        refAppGradient(*app, alloc, out);
        return;
    }
    if (const auto *liar =
            dynamic_cast<const faults::LiarUtilityModel *>(&model)) {
        refGradient(liar->truth(), alloc, out);
        for (auto &g : out)
            g *= liar->gain();
        return;
    }
    model.gradient(alloc, out);
}

inline double
refPriceResponse(double bid, double others_bids, double capacity)
{
    const double y = std::max(others_bids, kMinCompetingBid);
    const double b = std::max(bid, 0.0);
    const double denom = (b + y) * (b + y);
    return capacity * y / denom;
}

inline double
refPredictedAllocation(double bid, double others_bids, double capacity)
{
    if (bid <= 0.0)
        return 0.0;
    if (others_bids <= 0.0)
        return capacity;
    return bid / (bid + others_bids) * capacity;
}

/** The generic optimizeBidsInto, for any resource count. */
inline void
refOptimizeBidsInto(const UtilityModel &model, double budget,
                    std::span<const double> others,
                    std::span<const double> capacities,
                    const BidOptimizerConfig &config, const double *initial,
                    BidResult &result, BidScratch &scratch)
{
    const size_t m = model.numResources();
    result.status = util::SolveStatus();
    result.lambda = 0.0;
    result.steps = 0;
    if (others.size() != m || capacities.size() != m) {
        result.status = util::SolveStatus::error(
            util::StatusCode::InvalidArgument,
            "optimizeBids: arity mismatch (model %zu, others %zu, "
            "capacities %zu)", m, others.size(), capacities.size());
        result.bids.assign(m, 0.0);
        result.lambdas.assign(m, 0.0);
        return;
    }
    if (budget < 0.0) {
        if (budget > -1e-9 * std::max(1.0, std::abs(budget))) {
            budget = 0.0;
        } else {
            result.status = util::SolveStatus::error(
                util::StatusCode::InvalidArgument,
                "optimizeBids: negative budget %g", budget);
            result.bids.assign(m, 0.0);
            result.lambdas.assign(m, 0.0);
            return;
        }
    }
    if (initial != nullptr)
        result.bids.assign(initial, initial + m);
    else
        result.bids.assign(m, budget / static_cast<double>(m));
    result.lambdas.assign(m, 0.0);
    scratch.alloc.resize(m);
    scratch.grad.resize(m);
    scratch.drdb.resize(m);

    auto refresh = [&](size_t j) {
        scratch.alloc[j] = refPredictedAllocation(result.bids[j], others[j],
                                                  capacities[j]);
        scratch.drdb[j] =
            refPriceResponse(result.bids[j], others[j], capacities[j]);
    };
    for (size_t j = 0; j < m; ++j)
        refresh(j);

    auto compute_lambdas = [&]() {
        refGradient(model, scratch.alloc, scratch.grad);
        for (size_t j = 0; j < m; ++j)
            result.lambdas[j] = scratch.grad[j] * scratch.drdb[j];
    };

    if (budget <= 0.0 || m == 1) {
        compute_lambdas();
        result.lambda =
            *std::max_element(result.lambdas.begin(), result.lambdas.end());
        return;
    }

    const double shift_cap = budget / static_cast<double>(m) / 2.0;
    const double min_shift = config.minShiftFraction * budget;
    double shift = initial != nullptr ? std::min(min_shift, shift_cap)
                                      : shift_cap;
    bool expanding = initial != nullptr;
    size_t prev_jmin = m;
    size_t prev_jmax = m;

    bool lambdas_current = false;
    for (int step = 0; step < config.maxSteps; ++step) {
        compute_lambdas();
        lambdas_current = true;
        size_t jmax = 0;
        for (size_t j = 1; j < m; ++j) {
            if (result.lambdas[j] > result.lambdas[jmax])
                jmax = j;
        }
        size_t jmin = m;
        for (size_t j = 0; j < m; ++j) {
            if (result.bids[j] > 0.0 &&
                (jmin == m || result.lambdas[j] < result.lambdas[jmin])) {
                jmin = j;
            }
        }
        if (jmin == m || jmin == jmax)
            break;
        const double lmax = result.lambdas[jmax];
        const double lmin = result.lambdas[jmin];
        if (lmax <= 0.0 || (lmax - lmin) <= config.lambdaTol * lmax)
            break;
        if (expanding && prev_jmin != m &&
            (jmin != prev_jmin || jmax != prev_jmax))
            expanding = false;
        prev_jmin = jmin;
        prev_jmax = jmax;
        const double amount = std::min(shift, result.bids[jmin]);
        result.bids[jmin] -= amount;
        result.bids[jmax] += amount;
        refresh(jmin);
        refresh(jmax);
        lambdas_current = false;
        ++result.steps;
        if (expanding) {
            shift *= 2.0;
            if (shift >= shift_cap) {
                shift = shift_cap;
                expanding = false;
            }
        } else {
            shift *= 0.5;
            if (shift < min_shift)
                break;
        }
    }

    if (!lambdas_current)
        compute_lambdas();
    result.lambda =
        *std::max_element(result.lambdas.begin(), result.lambdas.end());
}

} // namespace rebudget::market::reference

#endif // REBUDGET_TESTS_MARKET_REFERENCE_CLIMB_H_
