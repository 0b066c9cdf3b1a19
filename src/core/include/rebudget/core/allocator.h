#ifndef REBUDGET_CORE_ALLOCATOR_H_
#define REBUDGET_CORE_ALLOCATOR_H_

/**
 * @file
 * Common interface for multicore resource-allocation mechanisms.
 *
 * An allocation problem consists of one utility model per player and the
 * market capacities (resources *beyond* the guaranteed per-core
 * minimums; see app::AppUtilityModel).  Mechanisms return the allocation
 * plus, for market-based mechanisms, the final budgets, lambdas and
 * convergence accounting used by the evaluation (Sections 6.1-6.4).
 */

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "rebudget/core/roster.h"
#include "rebudget/market/market.h"
#include "rebudget/market/utility_model.h"
#include "rebudget/util/matrix.h"
#include "rebudget/util/solver_stats.h"
#include "rebudget/util/status.h"

namespace rebudget::core {

struct KarmaBank;

/** Inputs of one allocation decision. */
struct AllocationProblem
{
    /** One utility model per player (non-owning). */
    std::vector<const market::UtilityModel *> models;
    /**
     * Stable identity per player, aligned with `models` (see
     * core/roster.h).  Empty means the legacy dense roster 0..n-1 --
     * the default for every fixed-roster caller, and deliberately so:
     * an empty vector keeps the fixed-roster path byte-identical to
     * the pre-roster code.  When non-empty it must have one unique id
     * per model (validated).  Allocators that keep per-tenant state
     * across epochs (KarmaAllocator) key it by these ids; stateless
     * mechanisms ignore them.
     */
    std::vector<PlayerId> playerIds;
    /** Market capacities per resource. */
    std::vector<double> capacities;
    /** Market engine tuning (used by market-based mechanisms). */
    market::MarketConfig marketConfig;
    /**
     * Optional warm-start hint: the equilibrium seed published by a
     * prior allocate() on a similar problem (the previous epoch in the
     * online setting, where consecutive profiles are alike).  Non-owning
     * and only read during allocate(); null means cold start.  Market
     * mechanisms seed their first equilibrium solve from it, the
     * MaxEfficiency oracle resumes hill climbing from its allocation,
     * and mechanisms with closed-form solutions ignore it.  Honored only
     * when marketConfig.warmStart is set (the default).
     */
    const market::EquilibriumResult *warmStart = nullptr;
    /**
     * Record the budget vector of every equilibrium solve into
     * AllocationOutcome::budgetHistory.  Off by default (sweeps solve
     * hundreds of thousands of problems and never read trajectories);
     * the warm-start benchmark and the warm/cold agreement tests turn
     * it on to replay a mechanism's exact solve sequence.
     */
    bool recordBudgetHistory = false;
    /**
     * Optional reusable solver scratch (non-owning).  Market mechanisms
     * run every equilibrium solve through it, so a caller that solves
     * many problems of the same shape (the epoch simulator, a sweep
     * worker) amortizes all solver buffers to zero steady-state heap
     * allocations.  Null means allocate() uses a call-local workspace.
     * Not thread-safe: concurrent allocate() calls must pass distinct
     * workspaces (or null).
     */
    market::SolveWorkspace *workspace = nullptr;
    /**
     * Optional persistent credit state for banking mechanisms
     * (non-owning).  KarmaAllocator reads and UPDATES it on every
     * allocate(), so it follows the workspace's ownership contract,
     * not warmStart's: the caller holds one bank per allocation chain
     * and concurrent allocate() calls must pass distinct banks (or
     * null, which makes banking mechanisms run a call-local transient
     * bank -- correct for one-shot problems, no memory across calls).
     * Non-banking mechanisms ignore it.
     */
    KarmaBank *creditBank = nullptr;

    /** @return the stable identity at dense index i (see playerIds). */
    PlayerId playerIdAt(size_t i) const
    {
        return playerIds.empty() ? static_cast<PlayerId>(i)
                                 : playerIds[i];
    }

    /** @return the dense index of an identity, if present. */
    std::optional<size_t> indexOfPlayer(PlayerId id) const;

    /**
     * Add a tenant at the end of the dense order, between epochs.
     * Materializes playerIds from the implicit dense roster first if
     * needed.  The model pointer follows the same non-owning contract
     * as `models`.
     *
     * @return the new dense index, or an error if the identity is
     * already active.
     */
    util::Expected<size_t> addTenant(PlayerId id,
                                     const market::UtilityModel *model);

    /**
     * Remove a tenant between epochs, shifting later players down one
     * dense index (order-preserving, like Roster::remove).
     *
     * @return the departed tenant's former dense index, or an error if
     * the identity is not active.
     */
    util::Expected<size_t> removeTenant(PlayerId id);
};

/** Outputs of one allocation decision. */
struct AllocationOutcome
{
    /**
     * Ok, or why the mechanism could not produce an allocation (bad
     * config, malformed problem, failed solve).  On error the
     * allocation is empty and only `mechanism`, `status` and `stats`
     * are meaningful.  Non-convergence is NOT an error: a fail-safe
     * allocation returns Ok with converged=false.
     */
    util::SolveStatus status;
    /** Solver health telemetry for this call (see util::SolverStats). */
    util::SolverStats stats;
    /** Mechanism that produced the outcome. */
    std::string mechanism;
    /** Allocation [player][resource] (flat row-major). */
    util::Matrix<double> alloc;
    /** Final budgets per player (market mechanisms only). */
    std::vector<double> budgets;
    /** Final lambda_i per player (market mechanisms only). */
    std::vector<double> lambdas;
    /** Total bidding-pricing rounds across all equilibrium solves. */
    int marketIterations = 0;
    /** ReBudget outer budget-reassignment rounds. */
    int budgetRounds = 0;
    /** False if any equilibrium solve hit the fail-safe. */
    bool converged = true;
    /**
     * Warm-start seed for the next allocate() on a similar problem:
     * market mechanisms publish their final equilibrium; non-market
     * mechanisms that can resume from an allocation (MaxEfficiency, EP)
     * publish an allocation-only seed (bids empty).  Shared so chaining
     * consumers (sim::EpochSimulator) can hold the seed across epochs
     * while outcomes are moved or copied freely.
     */
    std::shared_ptr<const market::EquilibriumResult> equilibrium;
    /**
     * Budget vector of every equilibrium solve, in solve order (only
     * when AllocationProblem::recordBudgetHistory is set; market
     * mechanisms only).  Elided rounds (see
     * ReBudgetConfig::elideStepFraction) are excluded: the history is
     * exactly the sequence of real solves, so replaying it cold/warm
     * reproduces the mechanism's market work.
     */
    std::vector<std::vector<double>> budgetHistory;
};

/** Abstract allocation mechanism. */
class Allocator
{
  public:
    virtual ~Allocator() = default;

    /**
     * @return the mechanism's display name.  The reference must stay
     * valid for the allocator's lifetime: implementations compute the
     * name once at construction (or return a literal-backed static)
     * instead of formatting it on every call.
     */
    virtual const std::string &name() const = 0;

    /**
     * Solve one allocation problem.
     *
     * Thread-safety contract (relied on by eval::BundleRunner, which
     * calls allocate() concurrently from pool workers): implementations
     * must keep all scratch state local to the call -- no mutable
     * members, no globals, no global RNG.  Distinct problems may then
     * be solved concurrently through the same Allocator instance.
     */
    virtual AllocationOutcome allocate(
        const AllocationProblem &problem) const = 0;

    /**
     * Roster-change notification: called by chaining drivers (the eval
     * churn runner, the epoch simulator) after tenants joined or left
     * `problem` and before the first allocate() over the new roster.
     *
     * The default is a no-op, which IS the departing-budget policy for
     * every budget-recomputing mechanism: EqualShare/EqualBudget/
     * Balanced/ReBudget derive budgets from the roster on each call,
     * so a departure implicitly redistributes the departed player's
     * purchasing power across the survivors.  Mechanisms with
     * persistent per-tenant state override this to apply their own
     * policy (KarmaAllocator forfeits a departing tenant's banked
     * credits to the public pool and grants newcomers their initial
     * credit line).
     *
     * Like allocate(), implementations must keep the Allocator itself
     * immutable; any state they touch lives in the problem (e.g.
     * problem.creditBank).
     */
    virtual void onRosterChange(const RosterChange &change,
                                AllocationProblem &problem) const
    {
        (void)change;
        (void)problem;
    }
};

/**
 * Check problem arity, capacities (finite and positive) and player ids
 * without side effects.
 *
 * @return std::nullopt if the problem is well-formed, else a diagnostic
 * describing the first inconsistency.  Used by the eval layer to skip a
 * malformed bundle with a warning instead of killing a whole sweep.
 */
std::optional<std::string> tryValidateProblem(
    const AllocationProblem &problem);

/** @return tryValidateProblem()'s verdict as a SolveStatus. */
util::SolveStatus validateProblemStatus(const AllocationProblem &problem);

/**
 * Fold one equilibrium solve's accounting into an outcome: iteration
 * and hill-climb counters, warm/cold and fail-safe tallies, phase
 * timers, the converged flag (real solves only; an approximated
 * rescale inherits the prior's flag and is counted as an elided round
 * instead), and the solve's status on failure.
 */
void accumulateSolve(AllocationOutcome &outcome,
                     const market::EquilibriumResult &eq);

} // namespace rebudget::core

#endif // REBUDGET_CORE_ALLOCATOR_H_
