#ifndef REBUDGET_MARKET_MARKET_H_
#define REBUDGET_MARKET_MARKET_H_

/**
 * @file
 * Proportional-share market and equilibrium finding (paper Section 2).
 *
 * The market collects bids b_ij from all players, prices each resource
 * p_j = sum_i b_ij / C_j (Equation 1) and allocates proportionally:
 * r_ij = b_ij / p_j.  Equilibrium is found with the iterative
 * bidding-pricing procedure of Section 2.1: broadcast prices, let each
 * player re-optimize its bids (see bidding.h), repeat until prices
 * fluctuate by less than 1%, with a 30-iteration fail-safe (Section 6.4).
 *
 * Memory discipline: bid and allocation matrices are flat row-major
 * util::Matrix buffers, and the solver exposes an Into-style API
 * (findEquilibriumInto / rescaleEquilibriumInto) writing into a
 * caller-owned EquilibriumResult with scratch supplied via
 * SolveWorkspace.  Repeated solves at a fixed market shape reuse every
 * buffer, so steady-state solving performs zero heap allocations (the
 * contract bench/perf_equilibrium's allocation audit enforces; see
 * DESIGN.md "Solver memory layout").  Prices are maintained as
 * incrementally-updated per-resource bid column sums -- O(1) per bid
 * shift instead of O(n*m) per sweep -- with a full-recompute
 * cross-check available behind MarketConfig::validatePriceSums.
 */

#include <cstddef>
#include <cstdint>
#include <vector>

#include "rebudget/market/bidding.h"
#include "rebudget/market/utility_model.h"
#include "rebudget/util/matrix.h"
#include "rebudget/util/status.h"

namespace rebudget::market {

/** Market tuning (paper defaults). */
struct MarketConfig
{
    /** Relative price-fluctuation threshold for convergence. */
    double priceTol = 0.01;
    /** Fail-safe iteration cap (paper Section 6.4 uses 30). */
    int maxIterations = 30;
    /**
     * Honor warm-start hints: findEquilibrium(budgets, prior) seeds the
     * solve from the prior equilibrium and multi-round consumers
     * (ReBudget's budget rounds, the epoch simulator) chain solves.
     * When false every solve cold-starts from the equal split, which is
     * the A/B baseline for the incremental engine (rebudget_cli
     * --warm-start off, bench/perf_equilibrium).
     */
    bool warmStart = true;
    /**
     * Record a price snapshot after every bidding-pricing round into
     * EquilibriumResult::priceHistory.  Off by default: sweep workloads
     * solve hundreds of thousands of equilibria and never read the
     * trajectories, so the per-round snapshot allocations are pure
     * overhead.  Convergence/trajectory consumers opt in.
     */
    bool recordPriceHistory = false;
    /**
     * Debug cross-check for the incremental price engine: after every
     * sweep, recompute the per-resource bid column sums from scratch and
     * REBUDGET_ASSERT that they agree with the incrementally maintained
     * sums within FP noise (1e-9 relative).  Costs the O(n*m) recompute
     * the incremental engine exists to avoid, so it is off by default
     * and enabled by the solver test-suite and ad-hoc debugging only.
     */
    bool validatePriceSums = false;
    /** Player bid-optimizer tuning. */
    BidOptimizerConfig bid;
};

/** Outcome of an equilibrium computation. */
struct EquilibriumResult
{
    /**
     * Ok, or why the solve could not run at all (bad market setup, bad
     * budgets).  On error the result carries no allocation; callers
     * must check before consuming any other field.  Non-convergence is
     * NOT an error: a fail-safe solve returns Ok with converged=false.
     */
    util::SolveStatus status;
    /** Final bids, [player][resource] (flat row-major). */
    util::Matrix<double> bids;
    /** Final allocation, [player][resource]; columns sum to capacity. */
    util::Matrix<double> alloc;
    /** Final prices per resource. */
    std::vector<double> prices;
    /** Final lambda_i (marginal utility of money) per player. */
    std::vector<double> lambdas;
    /** Budgets the equilibrium was computed with. */
    std::vector<double> budgets;
    /** Bidding-pricing rounds executed. */
    int iterations = 0;
    /**
     * False if the iteration fail-safe triggered.  On an approximated
     * (rescaled) result this is inherited from the prior real solve,
     * not a statement about this round; see `approximated`.
     */
    bool converged = false;
    /** True if this solve was seeded from a prior equilibrium. */
    bool warmStarted = false;
    /**
     * True when this result came from rescaleEquilibrium: a zero-sweep
     * approximation, never a converged equilibrium of its own.
     * Consumers that track convergence or exclude elided rounds (e.g.
     * ReBudget's budgetHistory) must key off this flag.
     */
    bool approximated = false;
    /** Bid hill-climb steps summed over all players and rounds. */
    std::int64_t hillClimbSteps = 0;
    /** Wall-clock seconds spent inside the solve. */
    double solveSeconds = 0.0;
    /**
     * Price snapshot after every bidding-pricing round (size equals
     * iterations; the last entry equals prices).  Used by the
     * convergence analysis and for plotting price trajectories.
     * Only populated when MarketConfig::recordPriceHistory is set;
     * empty otherwise.
     */
    std::vector<std::vector<double>> priceHistory;
};

/**
 * Reusable scratch buffers for the equilibrium solver.  A caller that
 * holds one SolveWorkspace (and one EquilibriumResult per chain slot)
 * across repeated solves of a fixed-shape market performs zero heap
 * allocations per solve after the first: every vector here and every
 * buffer inside the result is resized once and reused.
 *
 * Not thread-safe: concurrent solves need one workspace each (the
 * parallel eval sweeps hold one per worker task).  A workspace carries
 * no market state between solves -- any workspace works with any
 * market; buffers are reshaped on entry.
 */
struct SolveWorkspace
{
    /** Incrementally maintained per-resource bid column sums. */
    std::vector<double> colSums;
    /** Previous sweep's prices (convergence reference). */
    std::vector<double> prices;
    /** Current sweep's prices. */
    std::vector<double> newPrices;
    /** y_j: competing bids seen by the player being optimized. */
    std::vector<double> others;
    /** Predicted allocation scratch (rescale path). */
    std::vector<double> pred;
    /** Utility gradient scratch (rescale path). */
    std::vector<double> grad;
    /** Per-player bid optimization result, reused across players. */
    BidResult bid;
    /** Hill-climber scratch, reused across players and rounds. */
    BidScratch scratch;
};

/** Proportional-share market over a fixed set of players and resources. */
class ProportionalMarket
{
  public:
    /**
     * @param models      one utility model per player (non-owning; must
     *                    outlive the market); all must have the same
     *                    number of resources
     * @param capacities  C_j per resource (finite, > 0)
     * @param config      market tuning
     *
     * A malformed setup (empty players/resources, null model, arity
     * mismatch, a capacity that is not finite and positive, or a
     * config field out of range: a non-positive maxIterations, a
     * priceTol, bid.lambdaTol or bid.minShiftFraction that is NaN,
     * infinite or negative, or a negative bid.maxSteps) does not
     * throw: it is recorded in setupStatus() and every subsequent
     * solve returns that status without running.
     */
    ProportionalMarket(std::vector<const UtilityModel *> models,
                       std::vector<double> capacities,
                       const MarketConfig &config = {});

    /** Ok, or why this market cannot solve (see the constructor). */
    const util::SolveStatus &setupStatus() const { return status_; }

    /**
     * Run the iterative bidding-pricing procedure to (approximate)
     * equilibrium under the given budgets.
     *
     * Re-entrant: all solver scratch state is local to the call, so one
     * market instance may run concurrent solves on distinct budget
     * vectors (and distinct markets are fully independent).  The eval
     * layer's parallel sweeps depend on this.
     *
     * Convenience wrapper over findEquilibriumInto with a call-local
     * workspace; multi-solve callers should hold a SolveWorkspace and
     * use the Into form to stay allocation-free.
     *
     * @param budgets  B_i per player (finite, >= 0; values within FP
     *                 noise of zero are clamped to 0, genuinely negative
     *                 or non-finite budgets yield an InvalidArgument
     *                 status)
     */
    EquilibriumResult findEquilibrium(
        const std::vector<double> &budgets) const;

    /**
     * As above, warm-started from a prior equilibrium of this market
     * (or one of identical shape).
     *
     * Each player's bids are seeded from its prior bids scaled by its
     * budget ratio B_i / B_i^prior (renormalized so they sum exactly to
     * B_i) instead of the equal split, and every bidding round seeds
     * the player's hill climb from its current bids.  Because the seed
     * is a per-player function of that player's own prior bids and
     * budget, the distributed bidding semantics of Section 2.1 are
     * preserved; only the starting point of the fixed-point iteration
     * changes, so the converged equilibrium agrees with a cold solve
     * within the price tolerance.
     *
     * The hint is ignored (cold start) when `prior` is null, when
     * MarketConfig::warmStart is off, or when the prior's shape does
     * not match this market (wrong player/resource count, e.g. a seed
     * produced by a different machine configuration).
     *
     * Re-entrant like the cold overload; `prior` is only read.
     */
    EquilibriumResult findEquilibrium(
        const std::vector<double> &budgets,
        const EquilibriumResult *prior) const;

    /**
     * Allocation-free core of findEquilibrium: solve into a
     * caller-owned result, with scratch buffers supplied by the caller.
     * Semantics are identical to findEquilibrium(budgets, prior) --
     * same convergence behavior, bit-identical numbers.
     *
     * `result` must not alias `prior` (asserted): chained consumers
     * keep two result slots and ping-pong between them (see
     * ReBudgetAllocator).  Every field of `result` is reset; buffers
     * keep their capacity, which is what makes repeated same-shape
     * solves allocation-free.
     *
     * Re-entrant provided each concurrent call uses its own `ws` and
     * `result`.
     */
    void findEquilibriumInto(const std::vector<double> &budgets,
                             const EquilibriumResult *prior,
                             SolveWorkspace &ws,
                             EquilibriumResult &result) const;

    /**
     * Cheap approximate equilibrium for a small budget perturbation:
     * the prior bids are rescaled row-wise to the new budgets (the same
     * seeding rule the warm solve uses) and prices, allocations and
     * every player's lambda_i are re-evaluated at that point -- one
     * utility-gradient call per player, no bidding-pricing sweeps
     * (EquilibriumResult::iterations is 0).
     *
     * The result is NOT a converged equilibrium; it inherits the
     * prior's error plus the (second-order) response the other players
     * would have made to the perturbation.  Multi-round consumers use
     * it to elide full solves for budget deltas below the solver's own
     * price tolerance (e.g. ReBudget's sub-tolerance cut rounds, where
     * only the lambda ordering is consumed) and must finish with a real
     * findEquilibrium before publishing an allocation.
     *
     * The prior must match this market's shape; re-entrant like
     * findEquilibrium.
     */
    EquilibriumResult rescaleEquilibrium(
        const EquilibriumResult &prior,
        const std::vector<double> &budgets) const;

    /**
     * Allocation-free core of rescaleEquilibrium (same result-reuse and
     * no-aliasing contract as findEquilibriumInto).
     */
    void rescaleEquilibriumInto(const EquilibriumResult &prior,
                                const std::vector<double> &budgets,
                                SolveWorkspace &ws,
                                EquilibriumResult &result) const;

    /** @return the number of players N. */
    size_t numPlayers() const { return models_.size(); }

    /** @return the number of resources M. */
    size_t numResources() const { return capacities_.size(); }

    /** @return resource capacities. */
    const std::vector<double> &capacities() const { return capacities_; }

    /** @return the players' utility models. */
    const std::vector<const UtilityModel *> &models() const
    {
        return models_;
    }

    /** @return the market tuning. */
    const MarketConfig &config() const { return config_; }

  private:
    std::vector<const UtilityModel *> models_;
    std::vector<double> capacities_;
    MarketConfig config_;
    util::SolveStatus status_;
    /**
     * Per-player UtilityModel::bilinearSurface() pointers, cached at
     * construction so the two-resource hill climb and the rescale
     * evaluate a non-null surface's gradient inline (one pointer load
     * instead of a virtual call per player per sweep), and call the
     * virtual gradient() for nullptr entries.
     */
    std::vector<const BilinearSurface *> surfaces_;
};

/**
 * Migrate a warm-start seed across a roster change.
 *
 * `prior_index` gives, for each player of the NEW dense order, the
 * dense index that player held in the market `prior` was solved on, or
 * -1 for a newcomer (core::Roster::mapFrom computes exactly this; the
 * market layer deliberately takes the dense mapping, not identities,
 * to stay below core in the layering).  The migrated seed has the new
 * player count: surviving players carry over their prior bid row,
 * allocation row, budget and lambda, so the next
 * findEquilibrium(budgets, &seed) warm-starts them exactly as if the
 * roster had never changed (the per-row budget-ratio seeding rule does
 * the rescale); newcomers get a zero bid row and a zero budget, which
 * the solver treats as "no usable prior row" and cold-seeds with the
 * equal split.  Prices carry over verbatim -- the surviving bids imply
 * nearly the same price point, which is the whole value of migrating.
 *
 * Allocation-only seeds (bids empty, published by MaxEfficiency/EP)
 * migrate their allocation rows the same way and keep bids empty.
 *
 * The seed is marked `approximated` (it is not an equilibrium of the
 * new market) and inherits the prior's `converged` flag.  A failed or
 * shape-inconsistent prior yields a seed whose status says why; the
 * caller falls back to a cold start.
 *
 * @param prior          equilibrium of the market before the change
 * @param prior_index    prior dense index per new player, -1 = newcomer
 * @param num_resources  resource count (must match the prior's)
 * @param seed           output (must not alias `prior`; reset like
 *                       findEquilibriumInto, buffers reused)
 * @return the number of surviving players whose state was migrated
 */
size_t migrateEquilibriumInto(const EquilibriumResult &prior,
                              const std::vector<std::ptrdiff_t> &prior_index,
                              size_t num_resources,
                              EquilibriumResult &seed);

/** Allocating convenience wrapper over migrateEquilibriumInto. */
EquilibriumResult migrateEquilibrium(
    const EquilibriumResult &prior,
    const std::vector<std::ptrdiff_t> &prior_index,
    size_t num_resources);

/**
 * @return prices p_j = sum_i b_ij / C_j for a bid matrix (Equation 1).
 * An empty bid matrix prices every resource at zero; a column count that
 * does not match `capacities` violates the caller contract (asserts).
 */
std::vector<double> computePrices(
    const util::Matrix<double> &bids,
    const std::vector<double> &capacities);

/**
 * @return the proportional allocation r_ij = b_ij / p_j; resources with
 * zero price (no bids) are left unallocated.
 */
util::Matrix<double> proportionalAllocation(
    const util::Matrix<double> &bids,
    const std::vector<double> &capacities);

/**
 * @return true if every resource has at least two players with positive
 * bids (Zhang's strong competitiveness condition, Lemma 1).
 */
bool stronglyCompetitive(const util::Matrix<double> &bids);

} // namespace rebudget::market

#endif // REBUDGET_MARKET_MARKET_H_
