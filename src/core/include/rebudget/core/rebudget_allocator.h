#ifndef REBUDGET_CORE_REBUDGET_ALLOCATOR_H_
#define REBUDGET_CORE_REBUDGET_ALLOCATOR_H_

/**
 * @file
 * ReBudget: runtime budget reassignment (paper Section 4.2).
 *
 * ReBudget runs the market to equilibrium, inspects each player's
 * marginal utility of money lambda_i, and cuts the budget of players
 * whose lambda_i is below half of the market maximum (they are
 * over-budgeted: their money buys little utility).  The cut amount
 * (*step*) halves every round (exponential back-off), and the market
 * re-converges between rounds.  The process stops when the step falls
 * below 1% of the initial budget or no player was cut.
 *
 * Two aggressiveness knobs are supported:
 *
 * - **ByStep** (the paper's ReBudget-20 / ReBudget-40): the first-round
 *   step is given explicitly.  The minimum reachable budget is
 *   B - 2*step0 (geometric series), which bounds MBR and hence, via
 *   Theorem 2, worst-case envy-freeness.
 * - **ByFairnessTarget**: the administrator sets the lowest acceptable
 *   envy-freeness; Theorem 2 is inverted to an MBR floor, the initial
 *   step is (1 - MBR) * B / 2, and budgets are clamped to MBR * B, so
 *   the fairness guarantee holds by construction.
 */

#include "rebudget/core/allocator.h"

namespace rebudget::core {

/** ReBudget configuration. */
struct ReBudgetConfig
{
    /** Budget every player starts with. */
    double initialBudget = 100.0;
    /**
     * Explicit first-round reassignment step (ReBudget-step mode).
     * Ignored when efTarget >= 0.  Must be < initialBudget / 2 so the
     * geometric cut series keeps budgets positive.
     */
    double step0 = 20.0;
    /**
     * Lowest acceptable envy-freeness, in [0, 1]; when >= 0 the step
     * and budget floor are derived from it via Theorem 2
     * (ByFairnessTarget mode).  Negative selects the explicit step.
     */
    double efTarget = -1.0;
    /**
     * Explicit budget floor as a fraction of the initial budget (MBR
     * floor).  In ByFairnessTarget mode this is overwritten by the
     * Theorem 2 inversion.
     */
    double mbrFloor = 0.0;
    /**
     * Hard lower bound on any player's budget as a fraction of the
     * initial budget, applied in BOTH modes on top of the mode-derived
     * floor.  This is an input-hardening guardrail: a corrupted or
     * misreported utility can hold a victim's lambda below the cut
     * threshold round after round, and without a floor the geometric
     * cut series would strip that player's purchasing power entirely.
     * The default (5%) sits well below the worst-case MBR of every
     * paper configuration (ReBudget-40 bottoms out at 21.25%), so it
     * never binds on clean inputs.
     */
    double guardrailFloor = 0.05;
    /** Players with lambda_i below this fraction of max lambda are cut. */
    double lambdaCutThreshold = 0.5;
    /** Stop when step < this fraction of the initial budget, in [0, 1). */
    double minStepFraction = 0.01;
    /** Safety cap on budget-reassignment rounds. */
    int maxRounds = 16;
    /**
     * Warm-start solve elision threshold.  When the market runs warm
     * (MarketConfig::warmStart) and the cut applied before a round was
     * at most this fraction of the initial budget, the round reuses the
     * previous equilibrium rescaled to the new budgets (zero
     * bidding-pricing sweeps; lambdas re-evaluated exactly at the
     * rescaled point) instead of running a full solve.  A cut this
     * small perturbs prices by a few percent at most, and the round
     * consumes only the lambda ORDERING against the 2x cut threshold,
     * which such perturbations do not move (on the fig04 bundle suite,
     * mean efficiency and envy-freeness are unchanged vs. elision
     * disabled).  The final published equilibrium is always a real
     * solve.  Set 0 to disable; elision is never active in cold mode,
     * so the A/B baseline (--warm-start off) is unaffected.
     */
    double elideStepFraction = 0.10;
};

/** The ReBudget allocation mechanism. */
class ReBudgetAllocator : public Allocator
{
  public:
    /**
     * A malformed config does not throw: it is recorded in
     * configStatus() and every allocate() returns that status.
     */
    explicit ReBudgetAllocator(const ReBudgetConfig &config = {});

    /** Ok, or why this allocator cannot run (see the constructor). */
    const util::SolveStatus &configStatus() const { return configStatus_; }

    /** Convenience: the paper's ReBudget-step variant. */
    static ReBudgetAllocator withStep(double step0,
                                      double initial_budget = 100.0);

    /** Convenience: administrator fairness-target variant. */
    static ReBudgetAllocator withFairnessTarget(
        double ef_target, double initial_budget = 100.0);

    const std::string &name() const override { return name_; }
    AllocationOutcome allocate(
        const AllocationProblem &problem) const override;

    /** @return the effective budget floor (fraction of initial). */
    double budgetFloorFraction() const { return floorFraction_; }

    /** @return the effective first-round step. */
    double step0() const { return step0_; }

    /**
     * @return the worst-case MBR this configuration can produce, i.e.
     * the guaranteed lower bound on min budget / max budget.
     */
    double worstCaseMbr() const;

  private:
    ReBudgetConfig config_;
    double step0_ = 0.0;
    double floorFraction_ = 0.0;
    util::SolveStatus configStatus_;
    /** Display name, formatted once at construction. */
    std::string name_;
};

} // namespace rebudget::core

#endif // REBUDGET_CORE_REBUDGET_ALLOCATOR_H_
