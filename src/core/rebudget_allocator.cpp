#include "rebudget/core/rebudget_allocator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "rebudget/market/metrics.h"
#include "rebudget/util/logging.h"

namespace rebudget::core {

namespace {

using util::SolveStatus;
using util::StatusCode;

/**
 * Validate a ReBudget config; Ok when allocate() may run.  Every range
 * check is negated (!(in range)), so a NaN fails it instead of slipping
 * past every plain comparison.
 */
SolveStatus
validateReBudgetConfig(const ReBudgetConfig &config)
{
    if (!(config.initialBudget > 0.0 &&
          std::isfinite(config.initialBudget))) {
        return SolveStatus::error(
            StatusCode::InvalidArgument,
            "ReBudget initial budget must be finite and positive");
    }
    if (!(config.lambdaCutThreshold > 0.0 &&
          config.lambdaCutThreshold < 1.0)) {
        return SolveStatus::error(StatusCode::InvalidArgument,
                                  "lambdaCutThreshold must be in (0, 1)");
    }
    if (config.maxRounds <= 0) {
        return SolveStatus::error(StatusCode::InvalidArgument,
                                  "maxRounds must be positive");
    }
    if (!(config.minStepFraction >= 0.0 && config.minStepFraction < 1.0)) {
        return SolveStatus::error(StatusCode::InvalidArgument,
                                  "minStepFraction must be in [0, 1)");
    }
    if (!(config.elideStepFraction >= 0.0 &&
          config.elideStepFraction < 0.5)) {
        return SolveStatus::error(StatusCode::InvalidArgument,
                                  "elideStepFraction must be in [0, 0.5)");
    }
    if (!(config.guardrailFloor >= 0.0 && config.guardrailFloor < 1.0)) {
        return SolveStatus::error(StatusCode::InvalidArgument,
                                  "guardrailFloor must be in [0, 1)");
    }
    // efTarget selects the mode: negative = explicit step, [0, 1] = an
    // envy-freeness target.
    if (!(config.efTarget <= 1.0)) {
        return SolveStatus::error(
            StatusCode::InvalidArgument,
            "efTarget must be negative (step mode) or in [0, 1]");
    }
    if (config.efTarget < 0.0) {
        if (!(config.step0 > 0.0 &&
              config.step0 < config.initialBudget / 2.0)) {
            return SolveStatus::error(
                StatusCode::InvalidArgument,
                "ReBudget step0 must be in (0, B/2) = (0, %f)",
                config.initialBudget / 2.0);
        }
        if (!(config.mbrFloor >= 0.0 && config.mbrFloor <= 1.0)) {
            return SolveStatus::error(StatusCode::InvalidArgument,
                                      "mbrFloor must be in [0, 1]");
        }
    }
    return SolveStatus();
}

} // namespace

ReBudgetAllocator::ReBudgetAllocator(const ReBudgetConfig &config)
    : config_(config), configStatus_(validateReBudgetConfig(config))
{
    if (configStatus_.ok()) {
        if (config_.efTarget >= 0.0) {
            // ByFairnessTarget: derive the MBR floor from Theorem 2 and
            // the initial step from Section 4.2 step (1).
            floorFraction_ =
                market::mbrForEnvyFreenessTarget(config_.efTarget);
            step0_ = (1.0 - floorFraction_) * config_.initialBudget / 2.0;
        } else {
            step0_ = config_.step0;
            floorFraction_ = config_.mbrFloor;
        }
    }
    // Display name, formatted once here instead of on every name() call
    // (sweeps ask for the mechanism name per bundle).
    std::ostringstream ss;
    if (config_.efTarget >= 0.0)
        ss << "ReBudget-EF" << config_.efTarget;
    else
        ss << "ReBudget-" << std::llround(step0_);
    name_ = ss.str();
}

ReBudgetAllocator
ReBudgetAllocator::withStep(double step0, double initial_budget)
{
    ReBudgetConfig cfg;
    cfg.initialBudget = initial_budget;
    cfg.step0 = step0;
    return ReBudgetAllocator(cfg);
}

ReBudgetAllocator
ReBudgetAllocator::withFairnessTarget(double ef_target,
                                      double initial_budget)
{
    ReBudgetConfig cfg;
    cfg.initialBudget = initial_budget;
    cfg.efTarget = ef_target;
    return ReBudgetAllocator(cfg);
}

double
ReBudgetAllocator::worstCaseMbr() const
{
    // A player cut in every round loses at most step0 * (1 + 1/2 + 1/4 +
    // ...) < 2 * step0 before the 1% stopping rule, and never drops below
    // the explicit floor.
    double cuts = 0.0;
    double step = step0_;
    const double min_step =
        config_.minStepFraction * config_.initialBudget;
    for (int r = 0; r < config_.maxRounds && step >= min_step; ++r) {
        cuts += step;
        step *= 0.5;
    }
    const double floor_fraction =
        std::max(floorFraction_, config_.guardrailFloor);
    const double min_budget =
        std::max(config_.initialBudget - cuts,
                 floor_fraction * config_.initialBudget);
    return min_budget / config_.initialBudget;
}

AllocationOutcome
ReBudgetAllocator::allocate(const AllocationProblem &problem) const
{
    const double t0 = util::monotonicSeconds();
    AllocationOutcome outcome;
    outcome.mechanism = name();
    auto fail = [&](util::SolveStatus status) {
        outcome.status = std::move(status);
        outcome.converged = false;
        outcome.stats.allocateSeconds = util::monotonicSeconds() - t0;
        return std::move(outcome);
    };
    if (!configStatus_.ok())
        return fail(configStatus_);
    if (util::SolveStatus st = validateProblemStatus(problem); !st.ok())
        return fail(std::move(st));
    const size_t n = problem.models.size();
    market::ProportionalMarket mkt(problem.models, problem.capacities,
                                   problem.marketConfig);
    if (!mkt.setupStatus().ok())
        return fail(mkt.setupStatus());

    // The guardrail floor backstops the mode-derived floor so budget
    // cuts stay bounded even when lambdas are corrupted (see
    // ReBudgetConfig::guardrailFloor).
    const double floor = std::max(floorFraction_, config_.guardrailFloor) *
                         config_.initialBudget;
    std::vector<double> budgets(n, config_.initialBudget);
    double step = step0_;
    const double min_step =
        config_.minStepFraction * config_.initialBudget;

    // Warm-start chain: the first round may be seeded by the caller
    // (epoch-to-epoch), every later round by the previous round's
    // equilibrium -- consecutive budget vectors differ only by the cut
    // step, so re-convergence from the prior bids is fast.  With
    // marketConfig.warmStart off, the solver ignores the hint and every
    // round cold-starts (the A/B baseline).
    //
    // The rounds solve through a shared workspace and ping-pong between
    // two result slots (the solver requires result != prior), so a
    // multi-round allocate performs no solver heap allocation after the
    // first round -- and none at all when the caller supplies
    // problem.workspace warmed by a previous allocate.
    market::SolveWorkspace local_ws;
    market::SolveWorkspace &ws =
        problem.workspace != nullptr ? *problem.workspace : local_ws;
    market::EquilibriumResult slots[2];
    int cur = 0;
    market::EquilibriumResult *eq = nullptr;
    const market::EquilibriumResult *prior = problem.warmStart;
    const bool warm_mode = problem.marketConfig.warmStart;
    const double elide_below =
        config_.elideStepFraction * config_.initialBudget;
    bool next_elidable = false;
    for (int round = 0; round < config_.maxRounds; ++round) {
        eq = &slots[cur];
        cur ^= 1;
        if (warm_mode && next_elidable) {
            // The cut that produced these budgets was below the elision
            // threshold: reuse the previous equilibrium rescaled to the
            // new budgets (zero sweeps) for this round's lambda
            // ordering instead of re-solving.  The result carries
            // approximated=true; budget-history and convergence
            // accounting key off that flag.
            mkt.rescaleEquilibriumInto(*prior, budgets, ws, *eq);
        } else {
            mkt.findEquilibriumInto(budgets, prior, ws, *eq);
        }
        if (problem.recordBudgetHistory && !eq->approximated)
            outcome.budgetHistory.push_back(budgets);
        prior = eq;
        accumulateSolve(outcome, *eq);
        ++outcome.budgetRounds;
        if (!outcome.status.ok())
            return fail(outcome.status);
        if (step < min_step)
            break; // step exhausted: this equilibrium is final
        // Cut over-budgeted players: lambda below the threshold fraction
        // of the market maximum.  Lambdas are untrusted under fault
        // injection: only finite values participate in the ranking, and
        // a round with no finite positive lambda makes no cuts (the
        // equilibrium just solved is final, exactly as if no player
        // qualified).
        double max_lambda = -std::numeric_limits<double>::infinity();
        for (const double l : eq->lambdas) {
            if (std::isfinite(l))
                max_lambda = std::max(max_lambda, l);
        }
        if (!(max_lambda > 0.0))
            break;
        bool any_cut = false;
        for (size_t i = 0; i < n; ++i) {
            if (std::isfinite(eq->lambdas[i]) &&
                eq->lambdas[i] <
                config_.lambdaCutThreshold * max_lambda) {
                const double cut_to =
                    std::max(budgets[i] - step, floor);
                if (cut_to < budgets[i] - 1e-12) {
                    budgets[i] = cut_to;
                    any_cut = true;
                }
            }
        }
        if (!any_cut)
            break; // stable: this equilibrium is final
        next_elidable = step <= elide_below;
        step *= 0.5;
    }
    if (eq->approximated) {
        // The loop ended on an elided round; the published equilibrium
        // must be real.  Budgets are unchanged since the approximation,
        // which seeds the solve, so this re-converges in a sweep or two.
        market::EquilibriumResult *fin = &slots[cur];
        mkt.findEquilibriumInto(budgets, eq, ws, *fin);
        eq = fin;
        if (problem.recordBudgetHistory && !eq->approximated)
            outcome.budgetHistory.push_back(budgets);
        accumulateSolve(outcome, *eq);
        if (!outcome.status.ok())
            return fail(outcome.status);
    }

    outcome.budgets = std::move(budgets);
    outcome.stats.budgetRounds = outcome.budgetRounds;
    auto seed =
        std::make_shared<market::EquilibriumResult>(std::move(*eq));
    outcome.alloc = seed->alloc;
    outcome.lambdas = seed->lambdas;
    outcome.equilibrium = std::move(seed);
    outcome.stats.allocateSeconds = util::monotonicSeconds() - t0;
    return outcome;
}

} // namespace rebudget::core
