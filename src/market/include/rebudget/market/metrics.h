#ifndef REBUDGET_MARKET_METRICS_H_
#define REBUDGET_MARKET_METRICS_H_

/**
 * @file
 * Efficiency and fairness metrics and the paper's theoretical bounds.
 *
 * - Efficiency (Definition 1): sum of player utilities; in the CMP
 *   instantiation this is weighted speedup (Equation 5).
 * - Envy-freeness (Definition 3): min_i U_i(r_i) / max_j U_i(r_j).
 * - Market Utility Range, MUR (Definition 5): min_i lambda_i /
 *   max_i lambda_i.
 * - Market Budget Range, MBR (Definition 6): min_i B_i / max_i B_i.
 * - Theorem 1: PoA >= 1 - 1/(4 MUR) when MUR >= 1/2, else PoA >= MUR.
 * - Theorem 2: equilibrium is (2 sqrt(1 + MBR) - 2)-approximate
 *   envy-free.
 *
 * Error policy: the range metrics take solver outputs, which can carry
 * floating-point noise (a lambda of -1e-15 from the incremental
 * gradient path); values within a small tolerance of zero are clamped
 * to 0 and only genuinely negative or non-finite inputs are rejected,
 * via an error Expected rather than process death.  The utility
 * metrics take parallel arrays whose sizes the caller controls; a
 * mismatch is a caller bug and asserts.
 */

#include <vector>

#include "rebudget/market/utility_model.h"
#include "rebudget/util/matrix.h"
#include "rebudget/util/status.h"

namespace rebudget::market {

/** @return per-player utilities at the given allocation. */
std::vector<double> perPlayerUtilities(
    const std::vector<const UtilityModel *> &models,
    const util::Matrix<double> &alloc);

/** @return efficiency = sum of utilities (Definition 1 / Equation 5). */
double efficiency(const std::vector<const UtilityModel *> &models,
                  const util::Matrix<double> &alloc);

/**
 * Every player's utility at its own row and at the best row of one
 * allocation: the inputs of both Definition 1 and Definition 3.
 */
struct OwnBestUtilities
{
    /** own[i] = U_i(r_i). */
    std::vector<double> own;
    /**
     * best[i] = max_j U_i(r_j) over every row, i's own included.  NaN
     * utilities at other rows are skipped; a NaN own[i] makes best[i]
     * NaN.
     */
    std::vector<double> best;

    /** @return efficiency: the sum of own, in player order. */
    double efficiency() const;

    /**
     * @return envy-freeness: min_i own[i] / best[i], where players with
     * best[i] <= 0 (nothing to envy) contribute 1.
     */
    double envyFreeness() const;
};

/**
 * @return own and best utilities of an allocation.  Calls utility()
 * once per distinct (model pointer, row bits) pair instead of once per
 * (player, row): players that share a model object (ProblemBuilder
 * memoizes one per app) and rows with identical bits are evaluated
 * once.  Utility models are pure functions of the row (see
 * UtilityModel), so the values are bit for bit those of the n^2
 * per-player scan; with nothing shared it makes exactly n^2 calls.
 */
OwnBestUtilities ownAndBestUtilities(
    const std::vector<const UtilityModel *> &models,
    const util::Matrix<double> &alloc);

/**
 * @return envy-freeness of an allocation (Definition 3): for each player
 * i compute U_i(r_i) / max_j U_i(r_j) (the max includes j = i, so each
 * term is <= 1) and return the minimum over players.  Players whose
 * utility is zero everywhere contribute 1 (nothing to envy).  Evaluated
 * through ownAndBestUtilities.
 */
double envyFreeness(const std::vector<const UtilityModel *> &models,
                    const util::Matrix<double> &alloc);

/**
 * @return MUR = min_i lambda_i / max_i lambda_i (Definition 5); 1 when
 * all lambdas are zero (fully satiated market).  Lambdas within FP
 * noise of zero count as zero; an empty set or a genuinely negative
 * lambda yields an error, and so does a NaN or infinite one.
 */
util::Expected<double> marketUtilityRange(
    const std::vector<double> &lambdas);

/**
 * @return MBR = min_i B_i / max_i B_i (Definition 6), with the same
 * noise clamp and error conditions as marketUtilityRange.
 */
util::Expected<double> marketBudgetRange(
    const std::vector<double> &budgets);

/**
 * Time-integrated envy-freeness over tenant lifetimes (the churn
 * extension of Definition 3): `own[i]` is the utility tenant i
 * accumulated over the epochs it was present, `best_other[i]` the best
 * utility any single competitor's allocations would have accumulated
 * for i over those same epochs (the competitor set includes i itself,
 * so each ratio is <= 1).  Returns min_i own[i] / best_other[i];
 * tenants with nothing to envy (best_other <= 0) contribute 1.
 * Parallel-array sizes are the caller's contract (asserts) -- entries
 * are matched positionally, so the caller aligns both vectors in the
 * same tenant order (identity-keyed accumulation handles roster churn
 * before this function is reached).
 */
double lifetimeEnvyFreeness(const std::vector<double> &own,
                            const std::vector<double> &best_other);

/**
 * @return the Theorem 1 Price-of-Anarchy lower bound at the given MUR:
 * 1 - 1/(4 MUR) for MUR >= 1/2, MUR otherwise.  The input is clamped
 * into [0, 1] (ratios can exceed the interval only by FP noise).
 */
double poaLowerBound(double mur);

/**
 * @return the Theorem 2 envy-freeness lower bound at the given MBR:
 * 2 sqrt(1 + MBR) - 2, with the input clamped into [0, 1].
 */
double envyFreenessLowerBound(double mbr);

/**
 * @return the smallest MBR whose Theorem 2 bound meets an envy-freeness
 * target c (inverse of envyFreenessLowerBound): ((c + 2)/2)^2 - 1,
 * clamped into [0, 1].  Used by administrators to translate a fairness
 * requirement into a budget floor (Section 4.2).
 */
double mbrForEnvyFreenessTarget(double target_ef);

} // namespace rebudget::market

#endif // REBUDGET_MARKET_METRICS_H_
