/**
 * @file
 * Bit-identicality regression against the seed solver.  The flattened
 * Matrix/SolveWorkspace engine replaced the nested-vector hot path, and
 * the two-resource hill climb (hillClimbPair) with its inline bilinear
 * gradient replaced the generic climb for m == 2; a verbatim port of
 * the seed's nested-vector solver lives below, driving the ported
 * generic climb and the ported upper_bound gradient (reference_climb.h),
 * and every published artifact (bids, prices, lambdas, allocation,
 * iteration count, hill-climb steps) must match it bitwise -- cold,
 * warm-chained, and rescaled -- on real catalog problems: the fig04
 * bundle suite through every market mechanism, the same suite on
 * fault-damaged models, and the 1024-player market_scale rosters.
 *
 * Any divergence here means a performance change moved the
 * floating-point trajectory, which those changes explicitly must not.
 */

#include "rebudget/market/market.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "rebudget/core/baselines.h"
#include "rebudget/core/rebudget_allocator.h"
#include "rebudget/eval/bundle_runner.h"
#include "rebudget/faults/fault_injector.h"
#include "rebudget/util/rng.h"
#include "rebudget/workloads/bundles.h"
#include "reference_climb.h"

namespace rebudget::market {
namespace {

using reference::refGradient;
using reference::refOptimizeBidsInto;
using reference::refPredictedAllocation;
using reference::refPriceResponse;

/** The seed solver's result shape: nested rows. */
struct RefResult
{
    std::vector<double> budgets;
    std::vector<std::vector<double>> bids;
    std::vector<std::vector<double>> alloc;
    std::vector<double> prices;
    std::vector<double> lambdas;
    int iterations = 0;
    bool converged = false;
    /** Hill-climb steps summed over players and sweeps. */
    std::int64_t steps = 0;
};

void
refComputePricesInto(const std::vector<std::vector<double>> &bids,
                     const std::vector<double> &capacities,
                     std::vector<double> &out)
{
    const size_t m = capacities.size();
    out.assign(m, 0.0);
    for (const auto &row : bids) {
        for (size_t j = 0; j < m; ++j)
            out[j] += row[j];
    }
    for (size_t j = 0; j < m; ++j)
        out[j] /= capacities[j];
}

std::vector<std::vector<double>>
refProportionalAllocation(const std::vector<std::vector<double>> &bids,
                          const std::vector<double> &capacities)
{
    std::vector<double> prices;
    refComputePricesInto(bids, capacities, prices);
    std::vector<std::vector<double>> alloc(
        bids.size(), std::vector<double>(capacities.size(), 0.0));
    for (size_t i = 0; i < bids.size(); ++i) {
        for (size_t j = 0; j < capacities.size(); ++j) {
            if (prices[j] > 0.0)
                alloc[i][j] = bids[i][j] / prices[j];
        }
    }
    return alloc;
}

/**
 * Verbatim port of the seed findEquilibrium (nested vectors, full
 * price recompute every sweep).  Inputs are assumed valid; only the
 * FP-noise budget clamp is kept for fidelity with the production
 * sanitizer.
 */
RefResult
refFindEquilibrium(const std::vector<const UtilityModel *> &models,
                   const std::vector<double> &capacities,
                   const MarketConfig &config,
                   const std::vector<double> &budgets,
                   const RefResult *prior)
{
    const size_t n = models.size();
    const size_t m = capacities.size();
    RefResult result;
    result.budgets = budgets;
    for (double &bv : result.budgets)
        bv = std::max(0.0, bv);

    bool warm = config.warmStart && prior != nullptr &&
                prior->bids.size() == n && prior->budgets.size() == n;
    if (warm) {
        for (const auto &row : prior->bids) {
            if (row.size() != m) {
                warm = false;
                break;
            }
        }
    }

    const std::vector<double> &b = result.budgets;
    result.lambdas.assign(n, 0.0);
    result.bids.assign(n, std::vector<double>(m, 0.0));
    for (size_t i = 0; i < n; ++i) {
        bool seeded = false;
        if (warm && prior->budgets[i] > 0.0) {
            double sum = 0.0;
            for (size_t j = 0; j < m; ++j)
                sum += prior->bids[i][j];
            if (sum > 0.0) {
                const double scale = b[i] / sum;
                for (size_t j = 0; j < m; ++j)
                    result.bids[i][j] = prior->bids[i][j] * scale;
                seeded = true;
            }
        }
        if (!seeded) {
            for (size_t j = 0; j < m; ++j)
                result.bids[i][j] = b[i] / static_cast<double>(m);
        }
    }

    std::vector<double> col_sums(m, 0.0);
    for (size_t j = 0; j < m; ++j) {
        for (size_t i = 0; i < n; ++i)
            col_sums[j] += result.bids[i][j];
    }
    std::vector<double> prices;
    refComputePricesInto(result.bids, capacities, prices);

    std::vector<double> others(m);
    std::vector<double> new_prices(m);
    BidResult br;
    BidScratch scratch;
    for (int iter = 0; iter < config.maxIterations; ++iter) {
        ++result.iterations;
        for (size_t i = 0; i < n; ++i) {
            for (size_t j = 0; j < m; ++j)
                others[j] =
                    std::max(0.0, col_sums[j] - result.bids[i][j]);
            refOptimizeBidsInto(*models[i], b[i], others, capacities,
                                config.bid,
                                warm ? result.bids[i].data() : nullptr, br,
                                scratch);
            for (size_t j = 0; j < m; ++j) {
                col_sums[j] += br.bids[j] - result.bids[i][j];
                result.bids[i][j] = br.bids[j];
            }
            result.lambdas[i] = br.lambda;
            result.steps += br.steps;
        }
        refComputePricesInto(result.bids, capacities, new_prices);
        bool stable = true;
        for (size_t j = 0; j < m; ++j) {
            const double old_p = prices[j];
            const double new_p = new_prices[j];
            const double denom = std::max(old_p, 1e-12);
            if (std::abs(new_p - old_p) / denom > config.priceTol) {
                stable = false;
                break;
            }
        }
        std::swap(prices, new_prices);
        if (stable) {
            result.converged = true;
            break;
        }
    }

    result.prices = std::move(prices);
    result.alloc = refProportionalAllocation(result.bids, capacities);
    return result;
}

/** Verbatim port of the seed rescaleEquilibrium. */
RefResult
refRescaleEquilibrium(const std::vector<const UtilityModel *> &models,
                      const std::vector<double> &capacities,
                      const RefResult &prior,
                      const std::vector<double> &budgets)
{
    const size_t n = models.size();
    const size_t m = capacities.size();
    RefResult result;
    result.budgets = budgets;
    for (double &bv : result.budgets)
        bv = std::max(0.0, bv);
    const std::vector<double> &b = result.budgets;
    result.converged = prior.converged;
    result.lambdas.assign(n, 0.0);
    result.bids.assign(n, std::vector<double>(m, 0.0));
    for (size_t i = 0; i < n; ++i) {
        double sum = 0.0;
        for (size_t j = 0; j < m; ++j)
            sum += prior.bids[i][j];
        if (sum > 0.0) {
            const double scale = b[i] / sum;
            for (size_t j = 0; j < m; ++j)
                result.bids[i][j] = prior.bids[i][j] * scale;
        } else {
            for (size_t j = 0; j < m; ++j)
                result.bids[i][j] = b[i] / static_cast<double>(m);
        }
    }

    refComputePricesInto(result.bids, capacities, result.prices);
    result.alloc = refProportionalAllocation(result.bids, capacities);

    std::vector<double> col_sums(m, 0.0);
    for (size_t j = 0; j < m; ++j) {
        for (size_t i = 0; i < n; ++i)
            col_sums[j] += result.bids[i][j];
    }
    std::vector<double> pred(m);
    std::vector<double> grad(m);
    for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < m; ++j) {
            const double others =
                std::max(0.0, col_sums[j] - result.bids[i][j]);
            pred[j] = refPredictedAllocation(result.bids[i][j], others,
                                             capacities[j]);
        }
        refGradient(*models[i], pred, grad);
        double lambda = 0.0;
        bool first = true;
        for (size_t j = 0; j < m; ++j) {
            const double others =
                std::max(0.0, col_sums[j] - result.bids[i][j]);
            const double l =
                grad[j] * refPriceResponse(result.bids[i][j], others,
                                           capacities[j]);
            if (first || l > lambda) {
                lambda = l;
                first = false;
            }
        }
        result.lambdas[i] = lambda;
    }
    return result;
}

/** Bit patterns of a vector, so NaN and signed zeros compare exactly. */
std::vector<std::uint64_t>
bits(const std::vector<double> &v)
{
    std::vector<std::uint64_t> out(v.size());
    for (size_t i = 0; i < v.size(); ++i)
        out[i] = std::bit_cast<std::uint64_t>(v[i]);
    return out;
}

std::vector<std::vector<std::uint64_t>>
bits(const std::vector<std::vector<double>> &rows)
{
    std::vector<std::vector<std::uint64_t>> out;
    for (const auto &row : rows)
        out.push_back(bits(row));
    return out;
}

void
expectBitIdentical(const EquilibriumResult &eq, const RefResult &ref,
                   const std::string &context)
{
    EXPECT_EQ(eq.iterations, ref.iterations) << context;
    EXPECT_EQ(eq.converged, ref.converged) << context;
    EXPECT_EQ(bits(eq.prices), bits(ref.prices)) << context;
    EXPECT_EQ(bits(eq.lambdas), bits(ref.lambdas)) << context;
    EXPECT_EQ(bits(eq.bids.toNested()), bits(ref.bids)) << context;
    EXPECT_EQ(bits(eq.alloc.toNested()), bits(ref.alloc)) << context;
    EXPECT_EQ(eq.hillClimbSteps, ref.steps) << context;
}

std::vector<workloads::Bundle>
fig04Suite()
{
    // The fig04 evaluation suite in miniature: every category, two
    // bundles each, on the 8-core machine (full 240x64 is bench-only).
    const auto catalog = workloads::classifyCatalog();
    return workloads::generateAllBundles(catalog, 8, 2, 2016);
}

TEST(ReferenceSolver, BitIdenticalOnFig04SuiteColdAndWarm)
{
    const auto bundles = fig04Suite();
    ASSERT_FALSE(bundles.empty());

    // One workspace and ping-ponged result slots across the entire
    // suite: proves reuse carries no state between solves in addition
    // to proving trajectory identity.
    SolveWorkspace ws;
    EquilibriumResult slots[2];
    int cur = 0;

    for (const auto &bundle : bundles) {
        const eval::BundleProblem bp =
            eval::makeBundleProblem(bundle.appNames);
        const auto &models = bp.problem.models;
        const auto &caps = bp.problem.capacities;
        const MarketConfig cfg = bp.problem.marketConfig;
        const ProportionalMarket mkt(models, caps, cfg);
        const size_t n = models.size();

        // Cold solve at equal budgets.
        std::vector<double> budgets(n, 100.0);
        EquilibriumResult *cold = &slots[cur];
        cur ^= 1;
        mkt.findEquilibriumInto(budgets, nullptr, ws, *cold);
        const RefResult ref_cold =
            refFindEquilibrium(models, caps, cfg, budgets, nullptr);
        ASSERT_TRUE(cold->status.ok()) << bundle.name;
        expectBitIdentical(*cold, ref_cold, bundle.name + " cold");

        // Warm chain: ReBudget-style asymmetric cuts, each round
        // seeded from the previous one on both paths independently.
        const EquilibriumResult *prior = cold;
        const RefResult *ref_prior = &ref_cold;
        RefResult ref_warm;
        for (int round = 0; round < 3; ++round) {
            budgets[round % n] *= 0.8;
            EquilibriumResult *warm = &slots[cur];
            cur ^= 1;
            mkt.findEquilibriumInto(budgets, prior, ws, *warm);
            ref_warm = refFindEquilibrium(models, caps, cfg, budgets,
                                          ref_prior);
            expectBitIdentical(*warm, ref_warm,
                               bundle.name + " warm round " +
                                   std::to_string(round));
            prior = warm;
            ref_prior = &ref_warm;
        }

        // Rescale (the sub-tolerance cut elision path).
        std::vector<double> nudged = budgets;
        nudged[0] *= 0.995;
        EquilibriumResult *resc = &slots[cur];
        cur ^= 1;
        mkt.rescaleEquilibriumInto(*prior, nudged, ws, *resc);
        const RefResult ref_resc =
            refRescaleEquilibrium(models, caps, *ref_prior, nudged);
        EXPECT_EQ(resc->prices, ref_resc.prices) << bundle.name;
        EXPECT_EQ(resc->lambdas, ref_resc.lambdas) << bundle.name;
        EXPECT_EQ(resc->bids.toNested(), ref_resc.bids) << bundle.name;
        EXPECT_EQ(resc->alloc.toNested(), ref_resc.alloc) << bundle.name;
    }
}

TEST(ReferenceSolver, ConvenienceWrapperMatchesIntoPath)
{
    // findEquilibrium() is documented as a thin wrapper over the Into
    // API; pin that equivalence on a real bundle, cold and warm.
    const auto bundles = fig04Suite();
    ASSERT_FALSE(bundles.empty());
    const eval::BundleProblem bp =
        eval::makeBundleProblem(bundles.front().appNames);
    const ProportionalMarket mkt(bp.problem.models, bp.problem.capacities,
                                 bp.problem.marketConfig);
    const size_t n = bp.problem.models.size();

    const std::vector<double> b0(n, 100.0);
    const EquilibriumResult cold = mkt.findEquilibrium(b0);
    SolveWorkspace ws;
    EquilibriumResult cold_into;
    mkt.findEquilibriumInto(b0, nullptr, ws, cold_into);
    EXPECT_EQ(cold.bids, cold_into.bids);
    EXPECT_EQ(cold.prices, cold_into.prices);
    EXPECT_EQ(cold.lambdas, cold_into.lambdas);
    EXPECT_EQ(cold.alloc, cold_into.alloc);
    EXPECT_EQ(cold.iterations, cold_into.iterations);

    std::vector<double> b1 = b0;
    b1[0] = 70.0;
    const EquilibriumResult warm = mkt.findEquilibrium(b1, &cold);
    EquilibriumResult warm_into;
    mkt.findEquilibriumInto(b1, &cold_into, ws, warm_into);
    EXPECT_EQ(warm.bids, warm_into.bids);
    EXPECT_EQ(warm.prices, warm_into.prices);
    EXPECT_EQ(warm.iterations, warm_into.iterations);
}

/**
 * The reference allocation of one market mechanism: its final
 * equilibrium and the solver counters summed over its real solves.
 */
struct RefAllocation
{
    RefResult eq;
    std::vector<double> budgets;
    int rounds = 0;
    std::int64_t sweeps = 0;
    std::int64_t steps = 0;
};

/** Utility for Balanced's budgets: the ported interpolant where it
 * applies (catalog models and liars wrapping one). */
double
refUtility(const UtilityModel &model, std::span<const double> alloc)
{
    if (const auto *app = dynamic_cast<const app::AppUtilityModel *>(&model))
        return reference::refAppUtility(*app, alloc);
    if (const auto *liar =
            dynamic_cast<const faults::LiarUtilityModel *>(&model))
        return liar->gain() * refUtility(liar->truth(), alloc);
    return model.utility(alloc);
}

/** One cold solve at the given budgets (EqualBudget and Balanced). */
RefAllocation
refSingleSolve(const core::AllocationProblem &problem,
               std::vector<double> budgets)
{
    RefAllocation out;
    out.eq = refFindEquilibrium(problem.models, problem.capacities,
                                problem.marketConfig, budgets, nullptr);
    out.budgets = std::move(budgets);
    out.rounds = 1;
    out.sweeps = out.eq.iterations;
    out.steps = out.eq.steps;
    return out;
}

/** BalancedBudgetAllocator's budgets (mean 100) over refUtility. */
std::vector<double>
refBalancedBudgets(const core::AllocationProblem &problem)
{
    const size_t n = problem.models.size();
    const std::vector<double> none(problem.capacities.size(), 0.0);
    std::vector<double> budgets(n, 0.0);
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
        const double u_min = refUtility(*problem.models[i], none);
        const double u_max =
            refUtility(*problem.models[i], problem.capacities);
        const double potential =
            u_max > 0.0 ? (u_max - u_min) / u_max : 0.0;
        budgets[i] = std::max(potential, 1e-3);
        sum += budgets[i];
    }
    const double scale = 100.0 * static_cast<double>(n) / sum;
    for (auto &b : budgets)
        b *= scale;
    return budgets;
}

/**
 * ReBudgetAllocator::allocate (step mode, no caller warm start) over
 * the reference solver: the same cut rounds, elided rescales and final
 * real solve.
 */
RefAllocation
refReBudget(const core::AllocationProblem &problem,
            const core::ReBudgetConfig &config)
{
    const size_t n = problem.models.size();
    const auto &models = problem.models;
    const auto &caps = problem.capacities;
    const MarketConfig &mcfg = problem.marketConfig;
    RefAllocation out;
    const double floor = std::max(config.mbrFloor, config.guardrailFloor) *
                         config.initialBudget;
    std::vector<double> budgets(n, config.initialBudget);
    double step = config.step0;
    const double min_step = config.minStepFraction * config.initialBudget;
    const double elide_below =
        config.elideStepFraction * config.initialBudget;
    RefResult prior;
    bool have_prior = false;
    bool approximated = false;
    bool next_elidable = false;
    const auto solve = [&](const std::vector<double> &bv) {
        RefResult eq = refFindEquilibrium(models, caps, mcfg, bv,
                                          have_prior ? &prior : nullptr);
        out.sweeps += eq.iterations;
        out.steps += eq.steps;
        return eq;
    };
    for (int round = 0; round < config.maxRounds; ++round) {
        RefResult eq;
        if (mcfg.warmStart && next_elidable) {
            eq = refRescaleEquilibrium(models, caps, prior, budgets);
            approximated = true;
        } else {
            eq = solve(budgets);
            approximated = false;
        }
        prior = std::move(eq);
        have_prior = true;
        ++out.rounds;
        if (step < min_step)
            break;
        double max_lambda = -std::numeric_limits<double>::infinity();
        for (const double l : prior.lambdas) {
            if (std::isfinite(l))
                max_lambda = std::max(max_lambda, l);
        }
        if (!(max_lambda > 0.0))
            break;
        bool any_cut = false;
        for (size_t i = 0; i < n; ++i) {
            if (std::isfinite(prior.lambdas[i]) &&
                prior.lambdas[i] < config.lambdaCutThreshold * max_lambda) {
                const double cut_to = std::max(budgets[i] - step, floor);
                if (cut_to < budgets[i] - 1e-12) {
                    budgets[i] = cut_to;
                    any_cut = true;
                }
            }
        }
        if (!any_cut)
            break;
        next_elidable = step <= elide_below;
        step *= 0.5;
    }
    if (approximated)
        prior = solve(budgets);
    out.eq = std::move(prior);
    out.budgets = std::move(budgets);
    return out;
}

void
expectOutcomeMatches(const core::AllocationOutcome &out,
                     const RefAllocation &ref, const std::string &context)
{
    ASSERT_TRUE(out.status.ok()) << context << ": " << out.status.toString();
    ASSERT_NE(out.equilibrium, nullptr) << context;
    expectBitIdentical(*out.equilibrium, ref.eq, context);
    EXPECT_EQ(bits(out.budgets), bits(ref.budgets)) << context;
    EXPECT_EQ(out.stats.sweepIterations, ref.sweeps) << context;
    EXPECT_EQ(out.stats.hillClimbSteps, ref.steps) << context;
}

/** Every market mechanism of Figure 4 against its reference. */
void
expectMechanismsMatch(const core::AllocationProblem &problem,
                      const std::string &context)
{
    const core::EqualBudgetAllocator equal;
    const core::BalancedBudgetAllocator balanced;
    expectOutcomeMatches(
        equal.allocate(problem),
        refSingleSolve(problem,
                       std::vector<double>(problem.models.size(), 100.0)),
        context + " EqualBudget");
    expectOutcomeMatches(balanced.allocate(problem),
                         refSingleSolve(problem, refBalancedBudgets(problem)),
                         context + " Balanced");
    for (double step : {20.0, 40.0}) {
        const auto rb = core::ReBudgetAllocator::withStep(step);
        core::ReBudgetConfig cfg;
        cfg.step0 = step;
        const core::AllocationOutcome out = rb.allocate(problem);
        const RefAllocation ref = refReBudget(problem, cfg);
        const std::string ctx = context + " " + rb.name();
        expectOutcomeMatches(out, ref, ctx);
        EXPECT_EQ(out.budgetRounds, ref.rounds) << ctx;
    }
}

std::vector<workloads::Bundle>
fullFig04Suite()
{
    // The committed Figure 4 recipe: 240 bundles on 64 cores.
    return workloads::generateAllBundles(workloads::classifyCatalog(), 64,
                                         40, 2016);
}

TEST(ReferenceSolver, MechanismsBitIdenticalOnFullFig04Suite)
{
    const auto bundles = fullFig04Suite();
    ASSERT_EQ(bundles.size(), 240u);
    for (const auto &bundle : bundles) {
        const eval::BundleProblem bp =
            eval::makeBundleProblem(bundle.appNames);
        expectMechanismsMatch(bp.problem, bundle.name);
        if (HasFailure())
            return;
    }
}

TEST(ReferenceSolver, MechanismsBitIdenticalOnFaultDamagedFig04Suite)
{
    // Damaged models as BundleRunner builds them: NaN-holed, zeroed and
    // scrambled grids (sanitized raw surfaces, inline path), and liars
    // wrapping them (virtual path).
    const auto bundles = fullFig04Suite();
    for (const char *spec : {"corrupt-grid", "liar", "corrupt-grid,liar"}) {
        const auto plan = faults::FaultPlan::parse(spec, 2016);
        ASSERT_TRUE(plan.ok()) << spec;
        const faults::FaultInjector injector(plan.value());
        faults::InjectionStats injected;
        for (const auto &bundle : bundles) {
            eval::BundleProblem bp = eval::makeBundleProblem(bundle.appNames);
            const std::uint64_t scope = util::hashId(bundle.name);
            std::vector<std::shared_ptr<const UtilityModel>> damaged;
            for (size_t i = 0; i < bp.models.size(); ++i) {
                damaged.push_back(injector.maybeLiar(
                    injector.perturbModel(bp.models[i], scope, i, injected),
                    scope, i, injected));
                bp.problem.models[i] = damaged.back().get();
            }
            expectMechanismsMatch(bp.problem, bundle.name + " " + spec);
            if (HasFailure())
                return;
        }
        EXPECT_GT(injected.total(), 0) << spec;
    }
}

TEST(ReferenceSolver, ReBudgetBitIdenticalOnMarketScaleRosters)
{
    // The market_scale benchmark's nine 1024-player rosters.
    core::ReBudgetConfig cfg;
    cfg.step0 = 40.0;
    const auto rb = core::ReBudgetAllocator::withStep(40);
    for (std::uint64_t seed = 101; seed <= 109; ++seed) {
        const eval::BundleProblem bp =
            eval::makeSyntheticBundleProblem(1024, seed);
        const core::AllocationOutcome out = rb.allocate(bp.problem);
        const RefAllocation ref = refReBudget(bp.problem, cfg);
        const std::string ctx = "roster " + std::to_string(seed);
        expectOutcomeMatches(out, ref, ctx);
        EXPECT_EQ(out.budgetRounds, ref.rounds) << ctx;
    }
}

} // namespace
} // namespace rebudget::market
