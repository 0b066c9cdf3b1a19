/**
 * @file
 * Warm-start benchmark: cold vs. warm equilibrium solves.
 *
 * Part A isolates the market engine: at 8/16/64 players, a ReBudget-like
 * budget walk (a sequence of slowly shrinking budget vectors) is solved
 * twice -- cold (every solve starts from equal-split bids) and warm
 * (every solve seeds from the previous equilibrium) -- and cumulative
 * bidding-pricing iterations plus wall-clock are compared.
 *
 * Part B measures the end-to-end effect on the paper's Figure 4 sweep:
 * the full bundle suite is evaluated with market warm starts off and on,
 * and for each market mechanism the cumulative iterations and wall-clock
 * are compared.  Agreement is checked per SOLVE: each mechanism's exact
 * budget trajectory (recorded from an instrumented cold run) is
 * replayed with every vector solved both cold and warm -- seeded from
 * the cold equilibrium of the previous vector, exactly the (prior,
 * budgets) pairs the runtime hot path produces -- and the allocation
 * difference (relative to capacity) between the paired solves is
 * reported as median / p99 / max.  The acceptance claim is a >= 2x
 * iteration reduction for ReBudget with paired solves agreeing within
 * the market's tolerance class: the convergence test is price
 * fluctuation < priceTol per sweep, which leaves each solve's
 * allocations ~1% of capacity away from the exact fixed point (a cold
 * solve vs. a priceTol=1e-4 reference differs by up to 1.3%), so two
 * independent solves agree to the sum of their bands -- median
 * well under priceTol, max about 2x priceTol.  Relative price
 * differences run far larger than allocation differences because the
 * convexified utilities have linear segments: the money split across
 * resources is non-unique along flat-lambda directions even where the
 * allocation is pinned.  The end-to-end allocation difference between
 * the two full sweeps is also reported, but it measures trajectory
 * divergence, not solver error: ReBudget's lambda-threshold cuts sit
 * on razor-thin margins, so an equilibrium-equivalent warm solve can
 * still flip a cut decision and walk the budgets to a
 * (quality-equivalent) neighboring fixed point.
 *
 * Part C pins the flattened solver's memory contract: after a sizing
 * pass, repeated warm solves through findEquilibriumInto with a reused
 * SolveWorkspace and ping-ponged result slots must perform ZERO heap
 * allocations (counted by this binary's own operator new override,
 * including the align_val_t overloads the 64-byte Matrix buffers go
 * through) -- the benchmark aborts otherwise -- and the per-sweep cost
 * (nanoseconds per bidding-pricing sweep) is reported per market size.
 *
 * Part D is the scaling sweep: the same synthetic budget walk at
 * 1k/10k/100k players through the hill-climb solver (rows tagged mode
 * "hill_climb"), whose solve/sweep/update-step counters must match the
 * committed BENCH_market.json exactly.  It inherits Part C's
 * zero-allocation contract and aborts on violation.
 *
 * Output: a human-readable summary on stdout and a JSON artifact
 * (default BENCH_market.json; see EXPERIMENTS.md).
 *
 * Flags: --smoke (tiny configuration for CI; scaling runs 1k only),
 * --scaling-smoke (Part D only at 1k players -- the scaling_smoke
 * CTest entry), --out PATH, --jobs N.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "rebudget/core/baselines.h"
#include "rebudget/core/rebudget_allocator.h"
#include "rebudget/eval/bundle_runner.h"
#include "rebudget/market/market.h"
#include "rebudget/market/utility_model.h"
#include "rebudget/util/logging.h"
#include "rebudget/util/rng.h"
#include "rebudget/util/table.h"
#include "rebudget/workloads/bundles.h"

// ---------------------------------------------------------------------
// Heap allocation counter: every operator new in this binary bumps an
// atomic, so Part C can assert that steady-state solves are
// allocation-free.  Counting is process-wide (all threads) but Part C
// only reads the counter around a single-threaded measurement loop.
// ---------------------------------------------------------------------

namespace {
std::atomic<std::int64_t> g_heap_allocs{0};

void *
countedAlloc(std::size_t size)
{
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t size, std::size_t align)
{
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    if (align < sizeof(void *))
        align = sizeof(void *);
    void *p = nullptr;
    if (posix_memalign(&p, align, size ? size : 1) == 0)
        return p;
    throw std::bad_alloc();
}
} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

// Over-aligned variants: util::Matrix allocates its 64-byte-aligned
// buffer through ::operator new(size, align_val_t), so the audit must
// intercept these too or steady-state matrix growth would go uncounted.

void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, static_cast<std::size_t>(align));
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, static_cast<std::size_t>(align));
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

using namespace rebudget;

namespace {

double
nowMs()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double, std::milli>(
               clock::now().time_since_epoch())
        .count();
}

// ---------------------------------------------------------------------
// Part A: synthetic budget walk against the raw market engine.
// ---------------------------------------------------------------------

struct SyntheticResult
{
    size_t players = 0;
    int rounds = 0;
    long coldIterations = 0;
    long warmIterations = 0;
    double coldMs = 0.0;
    double warmMs = 0.0;
};

struct SyntheticProblem
{
    std::vector<std::unique_ptr<market::PowerLawUtility>> owned;
    std::vector<const market::UtilityModel *> models;
    std::vector<double> capacities;
};

SyntheticProblem
makeSynthetic(size_t players, uint64_t seed)
{
    util::Rng rng(seed);
    SyntheticProblem p;
    p.capacities = {players * 3.0, players * 9.0};
    for (size_t i = 0; i < players; ++i) {
        p.owned.push_back(std::make_unique<market::PowerLawUtility>(
            std::vector<double>{rng.uniform(0.1, 1.0),
                                rng.uniform(0.1, 1.0)},
            std::vector<double>{rng.uniform(0.2, 1.0),
                                rng.uniform(0.2, 1.0)},
            p.capacities));
        p.models.push_back(p.owned.back().get());
    }
    return p;
}

/**
 * ReBudget-like walk: start from equal budgets and repeatedly cut a
 * rotating third of the players by a halving step -- the budget
 * trajectory the runtime hot path actually sees between equilibrium
 * solves.
 */
std::vector<std::vector<double>>
budgetWalk(size_t players, int rounds)
{
    std::vector<std::vector<double>> walk;
    std::vector<double> budgets(players, 100.0);
    double step = 40.0;
    walk.push_back(budgets);
    for (int r = 1; r < rounds; ++r) {
        for (size_t i = 0; i < players; ++i) {
            if (i % 3 == static_cast<size_t>(r % 3))
                budgets[i] = std::max(budgets[i] - step, 20.0);
        }
        step = std::max(step * 0.7, 1.0);
        walk.push_back(budgets);
    }
    return walk;
}

SyntheticResult
runSynthetic(size_t players, int rounds)
{
    const SyntheticProblem p = makeSynthetic(players, 42);
    const auto walk = budgetWalk(players, rounds);

    SyntheticResult out;
    out.players = players;
    out.rounds = rounds;

    market::MarketConfig cold_cfg;
    cold_cfg.warmStart = false;
    market::ProportionalMarket cold_mkt(p.models, p.capacities, cold_cfg);
    {
        const double t0 = nowMs();
        for (const auto &budgets : walk)
            out.coldIterations +=
                cold_mkt.findEquilibrium(budgets).iterations;
        out.coldMs = nowMs() - t0;
    }

    market::MarketConfig warm_cfg;
    warm_cfg.warmStart = true;
    market::ProportionalMarket warm_mkt(p.models, p.capacities, warm_cfg);
    {
        const double t0 = nowMs();
        market::EquilibriumResult eq;
        const market::EquilibriumResult *prior = nullptr;
        for (const auto &budgets : walk) {
            eq = warm_mkt.findEquilibrium(budgets, prior);
            prior = &eq;
            out.warmIterations += eq.iterations;
        }
        out.warmMs = nowMs() - t0;
    }
    return out;
}

// ---------------------------------------------------------------------
// Part C: steady-state memory contract and per-sweep cost of the
// flattened Into-API hot path.
// ---------------------------------------------------------------------

struct SteadyStateResult
{
    size_t players = 0;
    int countedSolves = 0;
    /** Heap allocations during the counted solves; the contract is 0. */
    std::int64_t countedAllocs = 0;
    /** Bidding-pricing sweeps performed by the counted solves. */
    long sweeps = 0;
    double nsPerSweep = 0.0;
    double usPerSolve = 0.0;
};

SteadyStateResult
runSteadyState(size_t players, int reps)
{
    const SyntheticProblem p = makeSynthetic(players, 42);
    market::MarketConfig cfg;
    cfg.warmStart = true;
    const market::ProportionalMarket mkt(p.models, p.capacities, cfg);
    const auto walk = budgetWalk(players, 12);

    market::SolveWorkspace ws;
    market::EquilibriumResult slots[2];
    int cur = 0;
    const market::EquilibriumResult *prior = nullptr;
    // Sizing pass: the first traversal grows every workspace and result
    // buffer to its steady-state footprint.
    for (const auto &budgets : walk) {
        market::EquilibriumResult *eq = &slots[cur];
        cur ^= 1;
        mkt.findEquilibriumInto(budgets, prior, ws, *eq);
        prior = eq;
    }

    SteadyStateResult out;
    out.players = players;
    const std::int64_t a0 =
        g_heap_allocs.load(std::memory_order_relaxed);
    const double t0 = nowMs();
    for (int rep = 0; rep < reps; ++rep) {
        for (const auto &budgets : walk) {
            market::EquilibriumResult *eq = &slots[cur];
            cur ^= 1;
            mkt.findEquilibriumInto(budgets, prior, ws, *eq);
            prior = eq;
            out.sweeps += eq->iterations;
            ++out.countedSolves;
        }
    }
    const double elapsed_ms = nowMs() - t0;
    out.countedAllocs =
        g_heap_allocs.load(std::memory_order_relaxed) - a0;
    out.nsPerSweep =
        out.sweeps > 0 ? elapsed_ms * 1e6 / out.sweeps : 0.0;
    out.usPerSolve = out.countedSolves > 0
                         ? elapsed_ms * 1e3 / out.countedSolves
                         : 0.0;
    if (out.countedAllocs != 0) {
        util::fatal("steady-state contract violated: %lld heap "
                    "allocations across %d warm solves at %zu players "
                    "(expected 0)",
                    static_cast<long long>(out.countedAllocs),
                    out.countedSolves, players);
    }
    return out;
}

// ---------------------------------------------------------------------
// Part D: synthetic scaling sweep at 1k-100k players.
// ---------------------------------------------------------------------

/** The solver Part D measures; the JSON rows carry it as "mode". */
constexpr const char *kScalingMode = "hill_climb";

struct ScalingResult
{
    size_t players = 0;
    int countedSolves = 0;
    std::int64_t countedAllocs = 0;
    long sweeps = 0;
    /** Hill-climb steps summed over the counted solves. */
    std::int64_t updateSteps = 0;
    double nsPerSweep = 0.0;
    double usPerSolve = 0.0;
};

/**
 * One scaling measurement: the Part C loop (sizing pass, then counted
 * warm reps over the 12-round budget walk) at `players` scale.  Aborts
 * on any steady-state heap allocation.
 */
ScalingResult
runScaling(size_t players, int reps)
{
    const SyntheticProblem p = makeSynthetic(players, 42);
    market::MarketConfig cfg;
    cfg.warmStart = true;
    const market::ProportionalMarket mkt(p.models, p.capacities, cfg);
    const auto walk = budgetWalk(players, 12);

    market::SolveWorkspace ws;
    market::EquilibriumResult slots[2];
    int cur = 0;
    const market::EquilibriumResult *prior = nullptr;
    for (const auto &budgets : walk) {
        market::EquilibriumResult *eq = &slots[cur];
        cur ^= 1;
        mkt.findEquilibriumInto(budgets, prior, ws, *eq);
        prior = eq;
    }

    ScalingResult out;
    out.players = players;
    const std::int64_t a0 =
        g_heap_allocs.load(std::memory_order_relaxed);
    const double t0 = nowMs();
    for (int rep = 0; rep < reps; ++rep) {
        for (const auto &budgets : walk) {
            market::EquilibriumResult *eq = &slots[cur];
            cur ^= 1;
            mkt.findEquilibriumInto(budgets, prior, ws, *eq);
            prior = eq;
            out.sweeps += eq->iterations;
            out.updateSteps += eq->hillClimbSteps;
            ++out.countedSolves;
        }
    }
    const double elapsed_ms = nowMs() - t0;
    out.countedAllocs =
        g_heap_allocs.load(std::memory_order_relaxed) - a0;
    out.nsPerSweep =
        out.sweeps > 0 ? elapsed_ms * 1e6 / out.sweeps : 0.0;
    out.usPerSolve = out.countedSolves > 0
                         ? elapsed_ms * 1e3 / out.countedSolves
                         : 0.0;
    if (out.countedAllocs != 0) {
        util::fatal("scaling contract violated: %lld heap allocations "
                    "across %d warm solves at %zu players (expected 0)",
                    static_cast<long long>(out.countedAllocs),
                    out.countedSolves, players);
    }
    return out;
}

/** Part D over the full size grid; smoke runs 1k players only. */
std::vector<ScalingResult>
runScalingSweep(bool smoke, util::TablePrinter &table)
{
    // Reps are fixed per size (not per smoke mode): the 1k rows of a
    // --smoke or --scaling-smoke run carry the same deterministic
    // solve/sweep/step counters as the committed full-run baseline, so
    // tools/bench_compare.py can diff them exactly.
    const std::vector<std::pair<size_t, int>> plan =
        smoke ? std::vector<std::pair<size_t, int>>{{1000, 40}}
              : std::vector<std::pair<size_t, int>>{
                    {1000, 40}, {10000, 10}, {100000, 4}};
    std::vector<ScalingResult> rows;
    for (const auto &[players, reps] : plan) {
        const ScalingResult s = runScaling(players, reps);
        table.addRow({std::to_string(s.players), kScalingMode,
                      std::to_string(s.countedSolves),
                      std::to_string(s.countedAllocs),
                      std::to_string(s.sweeps),
                      std::to_string(s.updateSteps),
                      util::formatDouble(s.nsPerSweep, 1),
                      util::formatDouble(s.usPerSolve, 2)});
        rows.push_back(s);
    }
    return rows;
}

void
appendScalingJson(std::ostringstream &js,
                  const std::vector<ScalingResult> &rows)
{
    js << "  \"scaling\": [\n";
    for (size_t k = 0; k < rows.size(); ++k) {
        const auto &s = rows[k];
        js << "    {\"players\": " << s.players << ", \"mode\": \""
           << kScalingMode << "\", \"solves\": " << s.countedSolves
           << ", \"counted_allocs\": " << s.countedAllocs
           << ", \"sweeps\": " << s.sweeps
           << ", \"update_steps\": " << s.updateSteps
           << ", \"ns_per_sweep\": " << util::formatDouble(s.nsPerSweep, 1)
           << ", \"us_per_solve\": " << util::formatDouble(s.usPerSolve, 2)
           << "}" << (k + 1 < rows.size() ? "," : "") << "\n";
    }
    js << "  ]";
}

// ---------------------------------------------------------------------
// Part B: the Figure 4 bundle suite, warm starts off vs. on.
// ---------------------------------------------------------------------

struct SuiteMechanismResult
{
    std::string mechanism;
    long coldIterations = 0;
    long warmIterations = 0;
    /** Per-solve agreement: for every (prior, budgets) pair of the
     * replayed trajectory, the max |warm - cold| / capacity over
     * allocation entries of the paired solves. */
    std::vector<double> solveAllocDiffs;
    /** Per-solve agreement: max relative price difference. */
    double maxSolvePriceDiffRel = 0.0;
    /** End-to-end sweep divergence (trajectory, not solver error). */
    double maxEndToEndAllocDiffFrac = 0.0;

    double solveDiffQuantile(double q) const
    {
        if (solveAllocDiffs.empty())
            return 0.0;
        std::vector<double> d = solveAllocDiffs;
        std::sort(d.begin(), d.end());
        const size_t idx = std::min(
            d.size() - 1, static_cast<size_t>(q * (d.size() - 1) + 0.5));
        return d[idx];
    }
};

struct SuiteResult
{
    uint32_t cores = 0;
    size_t bundles = 0;
    double coldMs = 0.0;
    double warmMs = 0.0;
    std::vector<SuiteMechanismResult> mechanisms;
};

SuiteResult
runSuite(uint32_t cores, int per_category, unsigned jobs)
{
    const auto catalog = workloads::classifyCatalog();
    const auto bundles =
        workloads::generateAllBundles(catalog, cores, per_category, 2016);

    const core::EqualBudgetAllocator equal_budget;
    const auto rb20 = core::ReBudgetAllocator::withStep(20);
    const auto rb40 = core::ReBudgetAllocator::withStep(40);
    const std::vector<const core::Allocator *> mechanisms{
        &equal_budget, &rb20, &rb40};

    auto sweep = [&](bool warm, double &ms) {
        eval::BundleRunnerOptions opts;
        opts.jobs = jobs;
        opts.keepOutcomes = true;
        opts.marketConfig.warmStart = warm;
        const eval::BundleRunner runner(mechanisms, opts);
        const double t0 = nowMs();
        auto evals = runner.run(bundles);
        ms = nowMs() - t0;
        return evals;
    };

    SuiteResult out;
    out.cores = cores;
    const auto cold = sweep(false, out.coldMs);
    const auto warm = sweep(true, out.warmMs);

    std::vector<SuiteMechanismResult> results(mechanisms.size());
    for (size_t mi = 0; mi < mechanisms.size(); ++mi)
        results[mi].mechanism = mechanisms[mi]->name();

    for (size_t b = 0; b < cold.size(); ++b) {
        if (cold[b].skipped || warm[b].skipped)
            continue;
        ++out.bundles;
        const auto bp = eval::makeBundleProblem(bundles[b].appNames);
        const auto &capacities = bp.problem.capacities;
        market::MarketConfig warm_cfg = bp.problem.marketConfig;
        warm_cfg.warmStart = true;
        const market::ProportionalMarket mkt(bp.problem.models,
                                             capacities, warm_cfg);

        for (size_t mi = 0; mi < mechanisms.size(); ++mi) {
            SuiteMechanismResult &mr = results[mi];
            mr.coldIterations += cold[b].scores[mi].marketIterations;
            mr.warmIterations += warm[b].scores[mi].marketIterations;

            // Per-solve agreement: replay the mechanism's exact solve
            // sequence (the cold run's budget trajectory).  Each budget
            // vector is solved cold and warm -- seeded from the cold
            // equilibrium of the previous vector, i.e. exactly the
            // (prior, budgets) pairs the runtime hot path produces --
            // and the two solves must land on the same equilibrium.
            core::AllocationProblem rp = bp.problem;
            rp.marketConfig.warmStart = false;
            rp.recordBudgetHistory = true;
            const core::AllocationOutcome traced =
                mechanisms[mi]->allocate(rp);
            market::EquilibriumResult prev;
            for (size_t r = 0; r < traced.budgetHistory.size(); ++r) {
                const auto &budgets = traced.budgetHistory[r];
                market::EquilibriumResult ec =
                    mkt.findEquilibrium(budgets);
                // Round 0 has no prior; check the identity re-solve
                // (same budgets, seeded by its own equilibrium) there.
                const market::EquilibriumResult ew =
                    mkt.findEquilibrium(budgets, r > 0 ? &prev : &ec);
                double solve_diff = 0.0;
                for (size_t i = 0; i < ec.alloc.size(); ++i) {
                    for (size_t j = 0; j < ec.alloc[i].size(); ++j) {
                        const double diff =
                            std::abs(ew.alloc[i][j] - ec.alloc[i][j]) /
                            capacities[j];
                        solve_diff = std::max(solve_diff, diff);
                    }
                }
                mr.solveAllocDiffs.push_back(solve_diff);
                for (size_t j = 0; j < ec.prices.size(); ++j) {
                    const double denom = std::max(ec.prices[j], 1e-12);
                    mr.maxSolvePriceDiffRel = std::max(
                        mr.maxSolvePriceDiffRel,
                        std::abs(ew.prices[j] - ec.prices[j]) / denom);
                }
                prev = std::move(ec);
            }

            // End-to-end sweep divergence (trajectory effects included).
            const auto &ca = cold[b].outcomes[mi].alloc;
            const auto &wa = warm[b].outcomes[mi].alloc;
            for (size_t i = 0; i < ca.size(); ++i) {
                for (size_t j = 0; j < ca[i].size(); ++j) {
                    const double diff =
                        std::abs(wa[i][j] - ca[i][j]) / capacities[j];
                    mr.maxEndToEndAllocDiffFrac =
                        std::max(mr.maxEndToEndAllocDiffFrac, diff);
                }
            }
        }
    }
    out.mechanisms = std::move(results);
    return out;
}

double
ratio(long cold, long warm)
{
    return warm > 0 ? static_cast<double>(cold) /
                          static_cast<double>(warm)
                    : 0.0;
}

void
writeJson(const std::string &path, bool smoke,
          const std::vector<SyntheticResult> &synthetic,
          const std::vector<SteadyStateResult> &steady,
          const std::vector<ScalingResult> &scaling,
          const SuiteResult &suite)
{
    std::ostringstream js;
    js << "{\n";
    js << "  \"benchmark\": \"perf_equilibrium\",\n";
    js << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
    js << "  \"synthetic_budget_walk\": [\n";
    for (size_t k = 0; k < synthetic.size(); ++k) {
        const auto &s = synthetic[k];
        js << "    {\"players\": " << s.players
           << ", \"rounds\": " << s.rounds
           << ", \"cold_iterations\": " << s.coldIterations
           << ", \"warm_iterations\": " << s.warmIterations
           << ", \"iteration_ratio\": "
           << util::formatDouble(ratio(s.coldIterations, s.warmIterations),
                                 3)
           << ", \"cold_ms\": " << util::formatDouble(s.coldMs, 3)
           << ", \"warm_ms\": " << util::formatDouble(s.warmMs, 3)
           << ", \"speedup\": "
           << util::formatDouble(
                  s.warmMs > 0.0 ? s.coldMs / s.warmMs : 0.0, 3)
           << "}" << (k + 1 < synthetic.size() ? "," : "") << "\n";
    }
    js << "  ],\n";
    js << "  \"steady_state\": [\n";
    for (size_t k = 0; k < steady.size(); ++k) {
        const auto &s = steady[k];
        js << "    {\"players\": " << s.players
           << ", \"solves\": " << s.countedSolves
           << ", \"counted_allocs\": " << s.countedAllocs
           << ", \"sweeps\": " << s.sweeps
           << ", \"ns_per_sweep\": " << util::formatDouble(s.nsPerSweep, 1)
           << ", \"us_per_solve\": " << util::formatDouble(s.usPerSolve, 2)
           << "}" << (k + 1 < steady.size() ? "," : "") << "\n";
    }
    js << "  ],\n";
    appendScalingJson(js, scaling);
    js << ",\n";
    js << "  \"bundle_suite\": {\n";
    js << "    \"cores\": " << suite.cores << ",\n";
    js << "    \"bundles\": " << suite.bundles << ",\n";
    js << "    \"cold_ms\": " << util::formatDouble(suite.coldMs, 3)
       << ",\n";
    js << "    \"warm_ms\": " << util::formatDouble(suite.warmMs, 3)
       << ",\n";
    js << "    \"mechanisms\": [\n";
    for (size_t k = 0; k < suite.mechanisms.size(); ++k) {
        const auto &m = suite.mechanisms[k];
        js << "      {\"mechanism\": \"" << m.mechanism << "\""
           << ", \"cold_iterations\": " << m.coldIterations
           << ", \"warm_iterations\": " << m.warmIterations
           << ", \"iteration_ratio\": "
           << util::formatDouble(ratio(m.coldIterations, m.warmIterations),
                                 3)
           << ", \"solve_alloc_diff_p50\": "
           << util::formatDouble(m.solveDiffQuantile(0.5), 6)
           << ", \"solve_alloc_diff_p99\": "
           << util::formatDouble(m.solveDiffQuantile(0.99), 6)
           << ", \"solve_alloc_diff_max\": "
           << util::formatDouble(m.solveDiffQuantile(1.0), 6)
           << ", \"max_solve_price_diff_rel\": "
           << util::formatDouble(m.maxSolvePriceDiffRel, 6)
           << ", \"max_endtoend_alloc_diff_frac\": "
           << util::formatDouble(m.maxEndToEndAllocDiffFrac, 6) << "}"
           << (k + 1 < suite.mechanisms.size() ? "," : "") << "\n";
    }
    js << "    ]\n";
    js << "  }\n";
    js << "}\n";

    std::ofstream f(path);
    if (!f)
        util::fatal("cannot write %s", path.c_str());
    f << js.str();
}

/** --scaling-smoke artifact: the scaling rows alone. */
void
writeScalingJson(const std::string &path,
                 const std::vector<ScalingResult> &scaling)
{
    std::ostringstream js;
    js << "{\n";
    js << "  \"benchmark\": \"perf_equilibrium_scaling\",\n";
    appendScalingJson(js, scaling);
    js << "\n}\n";

    std::ofstream f(path);
    if (!f)
        util::fatal("cannot write %s", path.c_str());
    f << js.str();
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    bool scaling_only = false;
    std::string out_path = "BENCH_market.json";
    for (int a = 1; a < argc; ++a) {
        if (std::strcmp(argv[a], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[a], "--scaling-smoke") == 0) {
            scaling_only = true;
        } else if (std::strcmp(argv[a], "--out") == 0 && a + 1 < argc) {
            out_path = argv[++a];
        }
    }
    const auto jobs_arg = eval::parseJobsArg(argc, argv);
    if (!jobs_arg.ok())
        util::fatal("%s", jobs_arg.status().message().c_str());
    const unsigned jobs = jobs_arg.value();

    if (scaling_only) {
        util::printBanner(std::cout,
                          "Part D: scaling sweep (1k players, "
                          "scaling-smoke)");
        util::TablePrinter td({"players", "mode", "solves", "heap allocs",
                               "sweeps", "update steps", "ns/sweep",
                               "us/solve"});
        const auto scaling = runScalingSweep(/*smoke=*/true, td);
        td.print(std::cout);
        writeScalingJson(out_path, scaling);
        std::cout << "wrote " << out_path << "\n";
        return 0;
    }

    const std::vector<size_t> sizes =
        smoke ? std::vector<size_t>{8} : std::vector<size_t>{8, 16, 64};
    // Part A rounds and all of Part C are identical in smoke and full
    // mode: the solver is deterministic, so their iteration/sweep
    // counters from a --smoke run are directly comparable against a
    // committed full-run baseline (tools/bench_compare.py relies on
    // this).
    const int rounds = 12;
    const uint32_t suite_cores = smoke ? 8 : 64;
    const int per_category = smoke ? 2 : 40;

    util::printBanner(std::cout,
                      "Part A: synthetic budget walk (raw market)");
    util::TablePrinter ta({"players", "rounds", "cold iters", "warm iters",
                           "iter ratio", "cold ms", "warm ms", "speedup"});
    std::vector<SyntheticResult> synthetic;
    for (size_t players : sizes) {
        const SyntheticResult s = runSynthetic(players, rounds);
        ta.addRow({std::to_string(s.players), std::to_string(s.rounds),
                   std::to_string(s.coldIterations),
                   std::to_string(s.warmIterations),
                   util::formatDouble(
                       ratio(s.coldIterations, s.warmIterations), 2),
                   util::formatDouble(s.coldMs, 2),
                   util::formatDouble(s.warmMs, 2),
                   util::formatDouble(
                       s.warmMs > 0.0 ? s.coldMs / s.warmMs : 0.0, 2)});
        synthetic.push_back(s);
    }
    ta.print(std::cout);

    util::printBanner(std::cout,
                      "Part C: steady-state memory contract "
                      "(warm Into-API solves)");
    util::TablePrinter tc({"players", "solves", "heap allocs", "sweeps",
                           "ns/sweep", "us/solve"});
    std::vector<SteadyStateResult> steady;
    for (size_t players : std::vector<size_t>{8, 16, 64}) {
        const SteadyStateResult s = runSteadyState(players, 20);
        tc.addRow({std::to_string(s.players),
                   std::to_string(s.countedSolves),
                   std::to_string(s.countedAllocs),
                   std::to_string(s.sweeps),
                   util::formatDouble(s.nsPerSweep, 1),
                   util::formatDouble(s.usPerSolve, 2)});
        steady.push_back(s);
    }
    tc.print(std::cout);

    util::printBanner(std::cout,
                      "Part D: scaling sweep (1k-100k players)");
    util::TablePrinter td({"players", "mode", "solves", "heap allocs",
                           "sweeps", "update steps", "ns/sweep",
                           "us/solve"});
    const std::vector<ScalingResult> scaling =
        runScalingSweep(smoke, td);
    td.print(std::cout);

    util::printBanner(std::cout,
                      "Part B: Figure 4 bundle suite, warm starts "
                      "off vs on");
    const SuiteResult suite = runSuite(suite_cores, per_category, jobs);
    util::TablePrinter tb({"mechanism", "cold iters", "warm iters",
                           "iter ratio", "solve diff p50", "solve diff p99",
                           "solve diff max", "end-to-end diff"});
    for (const auto &m : suite.mechanisms) {
        tb.addRow({m.mechanism, std::to_string(m.coldIterations),
                   std::to_string(m.warmIterations),
                   util::formatDouble(
                       ratio(m.coldIterations, m.warmIterations), 2),
                   util::formatDouble(m.solveDiffQuantile(0.5), 6),
                   util::formatDouble(m.solveDiffQuantile(0.99), 6),
                   util::formatDouble(m.solveDiffQuantile(1.0), 6),
                   util::formatDouble(m.maxEndToEndAllocDiffFrac, 6)});
    }
    tb.print(std::cout);
    std::cout << "suite wall-clock: cold "
              << util::formatDouble(suite.coldMs, 1) << " ms, warm "
              << util::formatDouble(suite.warmMs, 1) << " ms\n";

    writeJson(out_path, smoke, synthetic, steady, scaling, suite);
    std::cout << "wrote " << out_path << "\n";
    return 0;
}
