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
#include <span>
#include <vector>

#include "rebudget/market/utility_model.h"
#include "rebudget/util/status.h"

namespace rebudget::market {

/**
 * Tiny competing-bid floor: avoids an infinite marginal when a resource
 * currently has no bids at all (the first epsilon of money would buy
 * the whole capacity).  Applied only by priceResponse(), which the
 * hill climbs, bidMarginal() and rescaleEquilibrium all take dr_j/db_j
 * from, so every lambda they compute sees the same floor.
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

} // namespace rebudget::market

#endif // REBUDGET_MARKET_BIDDING_H_
