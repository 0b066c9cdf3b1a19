/**
 * @file
 * Microbenchmark: allocation-mechanism runtime vs. machine size.
 *
 * The paper's scalability argument (Section 1) is that the market is
 * largely distributed: each bidding-pricing round is O(N) player-local
 * optimizations, and rounds stay flat with N.  This benchmark measures
 * wall time per allocation for EqualBudget and ReBudget-40 from 8 to
 * 4096 players, and for the centralized MaxEfficiency oracle (which
 * scales much worse and is infeasible at runtime).
 *
 * Problems come from eval::makeSyntheticBundleProblem -- the same
 * deterministic catalog-roster construction used by perf_equilibrium's
 * scaling sweep and `rebudget_cli --players` -- so the numbers here
 * measure the mechanisms on the real convexified app models, and the
 * memoized per-(app, convexify) AppUtilityModel cache is exercised:
 * problem setup builds at most 24 models regardless of player count.
 * BM_ProblemConstruction pins that claim by timing construction
 * itself (it must scale as O(players) pointer copies, not O(players)
 * grid profiles).
 *
 * BM_ScoreOutcome times eval::scoreOutcome, which evaluates each
 * distinct (model, row) pair once.  Its shared case is that catalog
 * roster; its unshared case gives every player its own model and its
 * own row, where sharing saves nothing and the n^2 utility() calls
 * remain -- no other benchmark scores such a roster.
 */

#include <memory>
#include <vector>

#include <benchmark/benchmark.h>

#include "rebudget/core/baselines.h"
#include "rebudget/core/max_efficiency.h"
#include "rebudget/core/rebudget_allocator.h"
#include "rebudget/eval/bundle_runner.h"
#include "rebudget/util/rng.h"

using namespace rebudget;

namespace {

constexpr uint64_t kSeed = 42;

void
BM_ProblemConstruction(benchmark::State &state)
{
    // Warm the shared model cache once so the loop measures the
    // steady-state cost (roster draw + pointer copies), which is what
    // every repeated-solve consumer actually pays.
    benchmark::DoNotOptimize(
        eval::makeSyntheticBundleProblem(state.range(0), kSeed));
    for (auto _ : state)
        benchmark::DoNotOptimize(
            eval::makeSyntheticBundleProblem(state.range(0), kSeed));
    state.SetComplexityN(state.range(0));
}

void
BM_EqualBudget(benchmark::State &state)
{
    const eval::BundleProblem p =
        eval::makeSyntheticBundleProblem(state.range(0), kSeed);
    const core::EqualBudgetAllocator alloc;
    for (auto _ : state)
        benchmark::DoNotOptimize(alloc.allocate(p.problem));
    state.SetComplexityN(state.range(0));
}

void
BM_ReBudget40(benchmark::State &state)
{
    const eval::BundleProblem p =
        eval::makeSyntheticBundleProblem(state.range(0), kSeed);
    const auto alloc = core::ReBudgetAllocator::withStep(40);
    for (auto _ : state)
        benchmark::DoNotOptimize(alloc.allocate(p.problem));
    state.SetComplexityN(state.range(0));
}

void
BM_MaxEfficiencyOracle(benchmark::State &state)
{
    const eval::BundleProblem p =
        eval::makeSyntheticBundleProblem(state.range(0), kSeed);
    const core::MaxEfficiencyAllocator alloc;
    for (auto _ : state)
        benchmark::DoNotOptimize(alloc.allocate(p.problem));
    state.SetComplexityN(state.range(0));
}

/**
 * range(0) players; range(1) = 1 scores a ReBudget-40 outcome on the
 * synthetic catalog roster (shared models), 0 an outcome with a
 * distinct PowerLawUtility and a distinct row per player.
 */
void
BM_ScoreOutcome(benchmark::State &state)
{
    const auto players = static_cast<size_t>(state.range(0));
    eval::BundleProblem bp;
    core::AllocationOutcome outcome;
    std::vector<std::unique_ptr<market::PowerLawUtility>> unshared;
    if (state.range(1) != 0) {
        bp = eval::makeSyntheticBundleProblem(players, kSeed);
        outcome = core::ReBudgetAllocator::withStep(40).allocate(bp.problem);
    } else {
        util::Rng rng(kSeed);
        const std::vector<double> capacities = {4.0 * players,
                                                10.0 * players};
        bp.problem.capacities = capacities;
        outcome.alloc.assign(players, capacities.size(), 0.0);
        for (size_t i = 0; i < players; ++i) {
            std::vector<double> weights, exponents;
            for (size_t j = 0; j < capacities.size(); ++j) {
                weights.push_back(rng.uniform(0.1, 1.0));
                exponents.push_back(rng.uniform(0.2, 1.0));
                outcome.alloc(i, j) = rng.uniform(0.0, 2.0) *
                                      capacities[j] / players;
            }
            unshared.push_back(std::make_unique<market::PowerLawUtility>(
                std::move(weights), std::move(exponents), capacities));
            bp.problem.models.push_back(unshared.back().get());
            outcome.budgets.push_back(rng.uniform(50.0, 100.0));
            outcome.lambdas.push_back(rng.uniform(0.1, 1.0));
        }
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(eval::scoreOutcome(bp.problem, outcome));
}

} // namespace

BENCHMARK(BM_ScoreOutcome)
    ->ArgNames({"players", "shared"})
    ->ArgsProduct({{64, 256}, {1, 0}});
BENCHMARK(BM_ProblemConstruction)
    ->RangeMultiplier(8)
    ->Range(8, 32768)
    ->Complexity();
BENCHMARK(BM_EqualBudget)->RangeMultiplier(2)->Range(8, 4096)->Complexity();
BENCHMARK(BM_ReBudget40)->RangeMultiplier(2)->Range(8, 4096)->Complexity();
BENCHMARK(BM_MaxEfficiencyOracle)
    ->RangeMultiplier(2)
    ->Range(8, 512)
    ->Complexity();
