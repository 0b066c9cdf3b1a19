#ifndef REBUDGET_MARKET_BIDDING_H_
#define REBUDGET_MARKET_BIDDING_H_

/**
 * @file
 * Player-local bid optimization (paper Section 4.1.2).
 *
 * Given the other players' bids y_j on each resource, a player predicts
 * the allocation it would receive for candidate bids b_j via the
 * proportional rule r_j = b_j / (b_j + y_j) * C_j (Equation 2) and hill
 * climbs toward the bids that maximize its utility: starting from an
 * equal split with shift amount S = bid/2, it repeatedly moves S units of
 * budget from the resource with the lowest marginal-utility-per-dollar
 * (lambda_j) to the one with the highest, halving S each step, until all
 * lambdas agree within 5% or S drops below 1% of the budget.
 *
 * Implementation note: because one shift changes the bids of exactly two
 * resources, the climber maintains the predicted allocations and the
 * price-response slopes dr_j/db_j incrementally (refreshing only the two
 * touched entries) and evaluates all marginal utilities through one
 * UtilityModel::gradient() call per step, instead of recomputing every
 * predicted allocation for every resource (O(M^2) per step).  For
 * M == 2 (every CMP market) the climb runs in registers instead
 * (hillClimbPair), evaluating a bilinear surface's gradient inline.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "rebudget/market/utility_model.h"
#include "rebudget/util/status.h"

namespace rebudget::market {

/**
 * Tiny competing-bid floor: avoids an infinite marginal when a resource
 * currently has no bids at all (the first epsilon of money would buy
 * the whole capacity).  Shared by the hill climber, the best-response
 * reply, and priceResponse().
 */
inline constexpr double kMinCompetingBid = 1e-9;

/** Tuning knobs for the bid hill climber (paper defaults). */
struct BidOptimizerConfig
{
    /** Relative lambda agreement threshold for termination. */
    double lambdaTol = 0.05;
    /** Terminate when the shift drops below this fraction of budget. */
    double minShiftFraction = 0.01;
    /** Hard safety cap on hill-climbing steps. */
    int maxSteps = 64;
};

/** Result of one player bid optimization. */
struct BidResult
{
    /**
     * Ok, or why the optimization could not run (arity mismatch,
     * genuinely negative budget).  On error the bids are all zero.
     */
    util::SolveStatus status;
    /** Optimized bids, one per resource; sums to the budget. */
    std::vector<double> bids;
    /** Marginal utility of money per resource at the final bids. */
    std::vector<double> lambdas;
    /** The player's lambda_i: max over per-resource lambdas. */
    double lambda = 0.0;
    /** Hill-climbing steps taken. */
    int steps = 0;
};

/**
 * Reusable scratch buffers for optimizeBidsInto.  The hill climber
 * maintains the predicted allocation and the price-response slope
 * dr_j/db_j incrementally (a bid shift touches exactly two resources),
 * and evaluates the utility gradient into a caller-owned buffer, so a
 * solver that holds one BidScratch across players and rounds performs
 * no heap allocation per optimization.
 */
struct BidScratch
{
    /** Predicted allocation r_j at the current bids. */
    std::vector<double> alloc;
    /** Utility gradient dU/dr_j at the current allocation. */
    std::vector<double> grad;
    /** Price response dr_j/db_j at the current bids. */
    std::vector<double> drdb;
    /** Best-response path: sqrt(w_j * y_j) per resource. */
    std::vector<double> weight;
    /** Best-response path: floored competing bids y_j. */
    std::vector<double> compete;
    /** Best-response path: resource order by marginal-at-zero. */
    std::vector<uint32_t> order;
};

/**
 * Predict the allocation for a bid against fixed competing bids
 * (Equation 2): r = b / (b + y) * C, with the conventions r = C when the
 * player is the sole bidder (y = 0, b > 0) and r = 0 when b = 0.
 */
inline double
predictedAllocation(double bid, double others_bids, double capacity)
{
    if (bid <= 0.0)
        return 0.0;
    if (others_bids <= 0.0)
        return capacity;
    return bid / (bid + others_bids) * capacity;
}

/**
 * @return the price response dr_j/db_j = C_j * y_j / (b_j + y_j)^2 of the
 * proportional rule, with the same tiny competing-bid floor on y_j the
 * hill climber applies (avoids an infinite marginal on an unbid
 * resource).
 */
inline double
priceResponse(double bid, double others_bids, double capacity)
{
    const double y = std::max(others_bids, kMinCompetingBid);
    const double b = std::max(bid, 0.0);
    const double denom = (b + y) * (b + y);
    return capacity * y / denom;
}

/**
 * @return lambda_j = dU/db_j at the given bids via the chain rule
 * dU/dr_j * dr_j/db_j with dr_j/db_j = C_j * y_j / (b_j + y_j)^2.
 */
double bidMarginal(const UtilityModel &model, size_t resource,
                   std::span<const double> bids,
                   std::span<const double> others,
                   std::span<const double> capacities);

/**
 * Optimize a player's bids for a fixed view of the competition.
 *
 * Re-entrant: pure function of its arguments with call-local scratch
 * only, safe to invoke concurrently (the parallel eval sweeps do).
 *
 * @param model       the player's utility
 * @param budget      the player's budget B_i (>= 0)
 * @param others      y_j: summed competing bids per resource
 * @param capacities  C_j per resource
 * @param config      hill-climber tuning
 */
BidResult optimizeBids(const UtilityModel &model, double budget,
                       std::span<const double> others,
                       std::span<const double> capacities,
                       const BidOptimizerConfig &config = {});

/**
 * Allocation-free core of optimizeBids: writes into `result` (reusing
 * its vector capacity) with scratch buffers supplied by the caller.
 * Two-resource models (every CMP market) are answered by hillClimbPair
 * after the arity and budget checks; the generic loop serves every
 * other resource count.
 *
 * @param initial  optional warm-start bids (length M, non-negative,
 *                 summing to the budget).  When null the climber starts
 *                 from the paper's equal split.  A near-optimal seed
 *                 terminates via the lambda-agreement rule after few
 *                 (often zero) shifts.
 *
 * Same re-entrancy contract as optimizeBids provided each concurrent
 * call uses its own `result` and `scratch`.
 */
void optimizeBidsInto(const UtilityModel &model, double budget,
                      std::span<const double> others,
                      std::span<const double> capacities,
                      const BidOptimizerConfig &config,
                      const double *initial, BidResult &result,
                      BidScratch &scratch);

/** Result of the m == 2 hill climb (see hillClimbPair). */
struct HillClimbPairReply
{
    /** Optimized bids; they sum to the budget. */
    double b0 = 0.0, b1 = 0.0;
    /** Per-resource lambdas at the final bids. */
    double l0 = 0.0, l1 = 0.0;
    /** The player's lambda_i: max over per-resource lambdas. */
    double lambda = 0.0;
    /** Hill-climbing steps taken. */
    int steps = 0;
};

/**
 * hillClimbPair over any gradient callable g(r0, r1, g0, g1).  The
 * whole climb lives in locals: bids, predicted shares, price responses
 * and lambdas.
 */
template <class Gradient>
inline HillClimbPairReply
hillClimbPairWith(const Gradient &gradient, double budget,
                  const double *initial, double o0, double o1, double c0,
                  double c1, const BidOptimizerConfig &config)
{
    double b0, b1;
    if (initial != nullptr) {
        b0 = initial[0];
        b1 = initial[1];
    } else {
        b0 = budget / 2.0;
        b1 = budget / 2.0;
    }
    double r0 = predictedAllocation(b0, o0, c0);
    double r1 = predictedAllocation(b1, o1, c1);
    double d0 = priceResponse(b0, o0, c0);
    double d1 = priceResponse(b1, o1, c1);
    double l0, l1;
    const auto compute_lambdas = [&]() {
        double g0, g1;
        gradient(r0, r1, g0, g1);
        l0 = g0 * d0;
        l1 = g1 * d1;
    };

    int steps = 0;
    if (budget <= 0.0) {
        compute_lambdas();
    } else {
        const double shift_cap = budget / 2.0 / 2.0;
        const double min_shift = config.minShiftFraction * budget;
        double shift = initial != nullptr ? std::min(min_shift, shift_cap)
                                          : shift_cap;
        bool expanding = initial != nullptr;
        // Resource that received money on the previous step, -1 before
        // the first: with two resources the receiver fixes the donor.
        int prev_jmax = -1;
        bool lambdas_current = false;
        for (int step = 0; step < config.maxSteps; ++step) {
            compute_lambdas();
            lambdas_current = true;
            // Highest lambda receives (ties keep resource 0); the donor
            // is the lowest-lambda resource with a positive bid (ties
            // keep resource 0 too).
            const int jmax = l1 > l0 ? 1 : 0;
            int jmin;
            if (b0 > 0.0)
                jmin = b1 > 0.0 && l1 < l0 ? 1 : 0;
            else
                jmin = b1 > 0.0 ? 1 : -1;
            if (jmin < 0 || jmin == jmax)
                break;
            const double lmax = jmax == 1 ? l1 : l0;
            const double lmin = jmax == 1 ? l0 : l1;
            if (lmax <= 0.0 || (lmax - lmin) <= config.lambdaTol * lmax)
                break; // condition (a): lambdas agree within tolerance
            if (expanding && prev_jmax >= 0 && jmax != prev_jmax)
                expanding = false; // direction flipped: start contracting
            prev_jmax = jmax;
            if (jmax == 1) {
                const double amount = std::min(shift, b0);
                b0 -= amount;
                b1 += amount;
            } else {
                const double amount = std::min(shift, b1);
                b1 -= amount;
                b0 += amount;
            }
            r0 = predictedAllocation(b0, o0, c0);
            r1 = predictedAllocation(b1, o1, c1);
            d0 = priceResponse(b0, o0, c0);
            d1 = priceResponse(b1, o1, c1);
            lambdas_current = false;
            ++steps;
            if (expanding) {
                shift *= 2.0;
                if (shift >= shift_cap) {
                    shift = shift_cap;
                    expanding = false;
                }
            } else {
                shift *= 0.5;
                if (shift < min_shift)
                    break; // condition (b): shift below 1% of budget
            }
        }
        if (!lambdas_current)
            compute_lambdas();
    }

    HillClimbPairReply out;
    out.b0 = b0;
    out.b1 = b1;
    out.l0 = l0;
    out.l1 = l1;
    out.lambda = l0 < l1 ? l1 : l0; // std::max_element's pick, NaN too
    out.steps = steps;
    return out;
}

/**
 * The hill climb for m == 2 (every CMP market: cache + power), the only
 * implementation of a two-resource reply.  It is optimizeBidsInto's
 * generic loop specialized expression for expression -- the same
 * seeds, shift schedule, stop tests and tie rules, the same FP
 * operations in the same order -- so its bids, lambdas and step counts
 * are bit-identical to the generic climb's.  What changes is where the
 * state lives: the market's Gauss-Seidel sweep is one serial chain
 * (each reply reads the column sums the previous reply wrote), and
 * keeping the climb in registers takes the scratch-vector round trips
 * off that chain.  When `surface` is non-null (the model's
 * bilinearSurface()), its gradient is evaluated inline instead of
 * through the virtual gradient().
 *
 * @param budget   the player's budget (>= 0; callers clamp FP-noise
 *                 negatives and reject real ones first)
 * @param initial  warm-start bids {b0, b1}, or null for the equal split
 * @param o0, o1   competing bids per resource
 * @param c0, c1   capacities per resource
 */
inline HillClimbPairReply
hillClimbPair(const UtilityModel &model, const BilinearSurface *surface,
              double budget, const double *initial, double o0, double o1,
              double c0, double c1, const BidOptimizerConfig &config)
{
    if (surface != nullptr) {
        return hillClimbPairWith(
            [surface](double r0, double r1, double &g0, double &g1) {
                surface->gradient(r0, r1, g0, g1);
            },
            budget, initial, o0, o1, c0, c1, config);
    }
    return hillClimbPairWith(
        [&model](double r0, double r1, double &g0, double &g1) {
            const double alloc[2] = {r0, r1};
            double grad[2];
            model.gradient(alloc, grad);
            g0 = grad[0];
            g1 = grad[1];
        },
        budget, initial, o0, o1, c0, c1, config);
}

/**
 * Price-anticipating closed-form best response (Feldman, Lai and
 * Zhang, "A price-anticipating resource allocation mechanism for
 * distributed shared clusters"; see PAPERS.md and DESIGN.md 3.2).
 *
 * The player's concave utility is linearized at its current operating
 * point: with g_j = dU/dr_j evaluated at the predicted allocation
 * under `current` bids, the local model is U ~ sum_j g_j C_j x_j with
 * x_j = b_j / (b_j + y_j) the proportional share.  Against fixed
 * competing bids y_j, the exact maximizer of the linearized utility
 * under sum_j b_j = B is a water-filling solution: include resources
 * in decreasing order of marginal-at-zero w_j / y_j (w_j = g_j C_j),
 * and for the included set T bid
 *
 *     b_j = sqrt(w_j y_j) * (B + sum_T y) / sum_T sqrt(w y)  -  y_j,
 *
 * which is positive exactly for the resources T admits.  One utility
 * gradient call and O(m log m) arithmetic replace the hill climb's
 * gradient call per shift, and because the reply lands on the
 * anticipated optimum instead of stepping toward it, the market's
 * sweep count stops thrashing at large n (each player's own bid is a
 * vanishing fraction of the column sums, so the linearization error
 * per sweep is O(1/n)).
 *
 * `damping` in (0, 1] blends the reply with the current bids
 * (b <- b + damping * (reply - b)); 1.0 takes the full reply.
 * `current` supplies the operating point (and the blend base); when
 * null the equal split is used.  Reported lambdas use the operating
 * point gradient with the price response at the NEW bids -- at a
 * fixed point of the sweep map the two coincide, which is where
 * consumers (ReBudget's cut ordering) read them.
 *
 * All degenerate inputs behave like optimizeBidsInto (arity/budget
 * validation, zero-budget and single-resource shortcuts); a fully
 * saturated player (all-zero gradient) keeps its current bids.
 * Zero-allocation and re-entrancy contracts match optimizeBidsInto.
 */
void bestResponseBidsInto(const UtilityModel &model, double budget,
                          std::span<const double> others,
                          std::span<const double> capacities,
                          double damping, const double *current,
                          BidResult &result, BidScratch &scratch);

/** Damped m == 2 best-response reply (see bestResponsePair). */
struct BestResponsePairReply
{
    /** New bids after the damped blend. */
    double b0 = 0.0, b1 = 0.0;
    /** Per-resource lambdas at the published bids. */
    double l0 = 0.0, l1 = 0.0;
    /** The player's lambda_i: max over per-resource lambdas. */
    double lambda = 0.0;
    /** 1 when the blend moved either bid, else 0. */
    int steps = 0;
};

/**
 * m == 2 core of bestResponseBidsInto (every CMP market: cache +
 * power), inlined so the market's sweep loop can bypass the
 * function-call and BidResult marshalling per player -- at 100k
 * players the per-call overhead is most of the reply's cost.  The
 * sorted water-fill degenerates to one cross-multiplied pair
 * comparison, so the whole reply runs straight-line on stack scalars.
 * It makes the same decisions as the generic path (same inclusion
 * logic, same clamps) but reassociates FP freely -- the paired
 * divides are folded into one reciprocal each, and the model is
 * queried through gradientFast() -- which is safe because every
 * m == 2 call deterministically takes this path, so there is no
 * scalar/fast divergence to observe.
 *
 * Precondition: budget > 0 (callers route zero/negative budgets
 * through bestResponseBidsInto's degenerate handling).
 */
inline BestResponsePairReply
bestResponsePair(const UtilityModel &model, double budget, double b0,
                 double b1, double o0, double o1, double c0, double c1,
                 double damping)
{
    const double y0 = o0 > kMinCompetingBid ? o0 : kMinCompetingBid;
    const double y1 = o1 > kMinCompetingBid ? o1 : kMinCompetingBid;
    double op[2];
    const double t0 = b0 + o0, t1 = b1 + o1;
    if (b0 > 0.0 && b1 > 0.0 && o0 > 0.0 && o1 > 0.0) {
        // Common case: both shares well-defined; one divide serves
        // both via the combined reciprocal.
        const double inv = 1.0 / (t0 * t1);
        op[0] = b0 * t1 * inv * c0;
        op[1] = b1 * t0 * inv * c1;
    } else {
        op[0] = b0 <= 0.0 ? 0.0 : (o0 <= 0.0 ? c0 : b0 / t0 * c0);
        op[1] = b1 <= 0.0 ? 0.0 : (o1 <= 0.0 ? c1 : b1 / t1 * c1);
    }
    double grad[2];
    model.gradientFast(std::span<const double>(op, 2),
                       std::span<double>(grad, 2));

    BestResponsePairReply out;
    out.b0 = b0;
    out.b1 = b1;
    const double s0 = std::sqrt(std::max(grad[0], 0.0) * c0 * y0);
    const double s1 = std::sqrt(std::max(grad[1], 0.0) * c1 * y1);
    if (s0 > 0.0 || s1 > 0.0) {
        // Order by s_j / y_j descending; ties keep resource 0 first
        // like the stable generic sort.
        const bool hi0 = s0 * y1 >= s1 * y0;
        const double sh = hi0 ? s0 : s1, yh = hi0 ? y0 : y1;
        const double sl = hi0 ? s1 : s0, yl = hi0 ? y1 : y0;
        // The top resource is always included (its bid is positive
        // whenever it has any weight); the second joins if its bid
        // stays positive under the shared scale.
        double rh, rl;
        if (sl > 0.0 && sl * (budget + (yh + yl)) > yl * (sh + sl)) {
            const double scale = (budget + (yh + yl)) / (sh + sl);
            rh = std::max(0.0, sh * scale - yh);
            rl = std::max(0.0, sl * scale - yl);
        } else {
            const double scale = (budget + yh) / sh;
            rh = std::max(0.0, sh * scale - yh);
            rl = 0.0;
        }
        const double r0 = hi0 ? rh : rl, r1 = hi0 ? rl : rh;
        const double n0 = b0 + damping * (r0 - b0);
        const double n1 = b1 + damping * (r1 - b1);
        out.b0 = n0;
        out.b1 = n1;
        out.steps = (n0 != b0 || n1 != b1) ? 1 : 0;
    }
    // Lambdas at the published bids: grad * dr/db, matching the
    // generic publish (priceResponse floors y and clamps b), with the
    // two divides folded into one combined reciprocal (d0, d1 are
    // strictly positive: y >= kMinCompetingBid).
    const double pb0 = std::max(out.b0, 0.0);
    const double pb1 = std::max(out.b1, 0.0);
    const double d0 = (pb0 + y0) * (pb0 + y0);
    const double d1 = (pb1 + y1) * (pb1 + y1);
    const double inv_d = 1.0 / (d0 * d1);
    out.l0 = grad[0] * (c0 * y0 * d1 * inv_d);
    out.l1 = grad[1] * (c1 * y1 * d0 * inv_d);
    out.lambda = std::max(out.l0, out.l1);
    return out;
}

} // namespace rebudget::market

#endif // REBUDGET_MARKET_BIDDING_H_
