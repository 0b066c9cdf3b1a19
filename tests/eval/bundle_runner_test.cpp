/**
 * @file
 * eval::BundleRunner: the parallel sweep engine must be deterministic
 * (bit-identical outcomes at 1, 2, and hardware-concurrency threads),
 * skip malformed bundles non-fatally, and expose name-based mechanism
 * lookup so consumers never rely on positional coupling.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <thread>
#include <vector>

#include "rebudget/core/baselines.h"
#include "rebudget/core/max_efficiency.h"
#include "rebudget/core/rebudget_allocator.h"
#include "rebudget/eval/bundle_runner.h"
#include "rebudget/util/logging.h"
#include "rebudget/workloads/bundles.h"

using namespace rebudget;

namespace {

std::vector<workloads::Bundle>
smallSuite(uint32_t cores, uint32_t per_category)
{
    const auto catalog = workloads::classifyCatalog();
    return workloads::generateAllBundles(catalog, cores, per_category,
                                         2016);
}

void
expectIdentical(const eval::BundleEvaluation &a,
                const eval::BundleEvaluation &b)
{
    EXPECT_EQ(a.bundle, b.bundle);
    EXPECT_EQ(a.skipped, b.skipped);
    ASSERT_EQ(a.scores.size(), b.scores.size());
    for (size_t m = 0; m < a.scores.size(); ++m) {
        // Bit-identical, not approximately equal: the parallel sweep
        // must not change any floating-point result.
        EXPECT_EQ(a.scores[m].efficiency, b.scores[m].efficiency);
        EXPECT_EQ(a.scores[m].envyFreeness, b.scores[m].envyFreeness);
        EXPECT_EQ(a.scores[m].mur, b.scores[m].mur);
        EXPECT_EQ(a.scores[m].mbr, b.scores[m].mbr);
        EXPECT_EQ(a.scores[m].marketIterations,
                  b.scores[m].marketIterations);
        EXPECT_EQ(a.scores[m].budgetRounds, b.scores[m].budgetRounds);
        EXPECT_EQ(a.scores[m].converged, b.scores[m].converged);
        EXPECT_EQ(a.scores[m].status.ok(), b.scores[m].status.ok());
        // Solver counters are deterministic; the embedded wall-clock
        // timers are the one allowed difference between runs.
        EXPECT_EQ(a.scores[m].stats.sweepIterations,
                  b.scores[m].stats.sweepIterations);
        EXPECT_EQ(a.scores[m].stats.hillClimbSteps,
                  b.scores[m].stats.hillClimbSteps);
        EXPECT_EQ(a.scores[m].stats.failSafeTrips,
                  b.scores[m].stats.failSafeTrips);
        EXPECT_EQ(a.scores[m].stats.warmStartedSolves,
                  b.scores[m].stats.warmStartedSolves);
        EXPECT_EQ(a.scores[m].stats.coldStartedSolves,
                  b.scores[m].stats.coldStartedSolves);
        EXPECT_EQ(a.scores[m].stats.elidedRescales,
                  b.scores[m].stats.elidedRescales);
    }
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (size_t m = 0; m < a.outcomes.size(); ++m) {
        EXPECT_EQ(a.outcomes[m].mechanism, b.outcomes[m].mechanism);
        EXPECT_EQ(a.outcomes[m].alloc, b.outcomes[m].alloc);
        EXPECT_EQ(a.outcomes[m].budgets, b.outcomes[m].budgets);
        EXPECT_EQ(a.outcomes[m].lambdas, b.outcomes[m].lambdas);
        EXPECT_EQ(a.outcomes[m].marketIterations,
                  b.outcomes[m].marketIterations);
        EXPECT_EQ(a.outcomes[m].budgetRounds,
                  b.outcomes[m].budgetRounds);
        EXPECT_EQ(a.outcomes[m].converged, b.outcomes[m].converged);
    }
}

} // namespace

TEST(BundleRunner, DeterminismAcrossThreadCounts)
{
    const auto bundles = smallSuite(8, 2);
    ASSERT_FALSE(bundles.empty());

    const core::EqualShareAllocator share;
    const core::EqualBudgetAllocator equal;
    const auto rb40 = core::ReBudgetAllocator::withStep(40);
    const core::MaxEfficiencyAllocator max_eff;
    const std::vector<const core::Allocator *> mechanisms = {
        &share, &equal, &rb40, &max_eff};

    auto run = [&](unsigned jobs) {
        eval::BundleRunnerOptions opts;
        opts.jobs = jobs;
        opts.keepOutcomes = true;
        const eval::BundleRunner runner(mechanisms, opts);
        return runner.run(bundles);
    };

    const auto serial = run(1);
    const auto two = run(2);
    const unsigned hw =
        std::max(1u, std::thread::hardware_concurrency());
    const auto many = run(hw);

    ASSERT_EQ(serial.size(), bundles.size());
    ASSERT_EQ(two.size(), bundles.size());
    ASSERT_EQ(many.size(), bundles.size());
    for (size_t i = 0; i < bundles.size(); ++i) {
        expectIdentical(serial[i], two[i]);
        expectIdentical(serial[i], many[i]);
    }
}

TEST(BundleRunner, MechanismNamesAndIndexLookup)
{
    const core::EqualShareAllocator share;
    const core::EqualBudgetAllocator equal;
    const core::MaxEfficiencyAllocator max_eff;
    const eval::BundleRunner runner({&share, &equal, &max_eff});

    ASSERT_EQ(runner.mechanismNames().size(), 3u);
    EXPECT_EQ(runner.mechanismNames()[0], "EqualShare");
    EXPECT_EQ(runner.mechanismIndex("EqualShare"), 0u);
    EXPECT_EQ(runner.mechanismIndex("EqualBudget"), 1u);
    EXPECT_EQ(runner.mechanismIndex("MaxEfficiency"), 2u);
    EXPECT_EQ(runner.mechanismIndex("Bogus"), std::nullopt);
}

TEST(BundleRunner, MalformedMechanismSetIsRecorded)
{
    // An empty or null mechanism set does not throw: the runner records
    // why and reports every bundle as skipped with that reason.
    const eval::BundleRunner empty({});
    EXPECT_FALSE(empty.setupStatus().ok());

    const core::EqualShareAllocator share;
    const eval::BundleRunner with_null({&share, nullptr});
    EXPECT_FALSE(with_null.setupStatus().ok());

    const auto bundles = smallSuite(8, 1);
    ASSERT_FALSE(bundles.empty());
    const auto ev = with_null.evaluate(bundles.front());
    EXPECT_TRUE(ev.skipped);
    EXPECT_FALSE(ev.skipReason.empty());
}

TEST(BundleRunner, NonConvergenceIsRecordedNotDropped)
{
    // Starve the solver (one bidding-pricing sweep) on a real catalog
    // bundle: the fail-safe trips, but the pipeline still completes and
    // the evaluation is recorded with converged=false -- figure data is
    // flagged, never silently dropped.
    const auto bundles = smallSuite(8, 1);
    ASSERT_FALSE(bundles.empty());

    const core::EqualBudgetAllocator equal;
    eval::BundleRunnerOptions opts;
    opts.marketConfig.maxIterations = 1;
    const eval::BundleRunner runner({&equal}, opts);

    const auto ev = runner.evaluate(bundles.front());
    EXPECT_FALSE(ev.skipped);
    ASSERT_EQ(ev.scores.size(), 1u);
    EXPECT_TRUE(ev.scores[0].status.ok());
    EXPECT_FALSE(ev.scores[0].converged);
    EXPECT_GT(ev.scores[0].stats.failSafeTrips, 0);
    // The fail-safe allocation is still scorable.
    EXPECT_GT(ev.scores[0].efficiency, 0.0);

    // ...and the aggregate keeps the distinction visible.
    const auto agg =
        eval::aggregateSweepStats({ev}, runner.mechanismNames());
    ASSERT_EQ(agg.size(), 1u);
    EXPECT_EQ(agg[0].bundlesEvaluated, 1);
    EXPECT_EQ(agg[0].bundlesConverged, 0);
    EXPECT_GT(agg[0].stats.failSafeTrips, 0);
}

TEST(BundleRunner, MechanismFailureBecomesRecordedSkip)
{
    // A mechanism whose config can never run (maxRounds=0) fails its
    // allocate(); the bundle is recorded as skipped with the mechanism's
    // own diagnostic instead of killing the sweep.
    const auto bundles = smallSuite(8, 1);
    ASSERT_FALSE(bundles.empty());

    core::ReBudgetConfig bad;
    bad.maxRounds = 0;
    const core::ReBudgetAllocator broken{bad};
    const core::EqualBudgetAllocator equal;
    const eval::BundleRunner runner({&broken, &equal});

    const auto evals =
        runner.run({bundles.front(), bundles.front()});
    ASSERT_EQ(evals.size(), 2u);
    for (const auto &ev : evals) {
        EXPECT_TRUE(ev.skipped);
        EXPECT_NE(ev.skipReason.find("ReBudget"), std::string::npos);
        EXPECT_TRUE(ev.scores.empty());
    }
}

TEST(BundleRunner, SweepStatsJsonIsSchemaStable)
{
    const auto bundles = smallSuite(8, 1);
    ASSERT_FALSE(bundles.empty());
    const core::EqualBudgetAllocator equal;
    const eval::BundleRunner runner({&equal});
    const auto evals = runner.run({bundles.front()});
    const auto agg =
        eval::aggregateSweepStats(evals, runner.mechanismNames());
    const std::string json = eval::sweepStatsJson(agg, 3);
    EXPECT_NE(json.find("\"schema\": \"rebudget.solver_stats.v3\""),
              std::string::npos);
    EXPECT_NE(json.find("\"skipped_bundles\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"mechanism\": \"EqualBudget\""),
              std::string::npos);
    EXPECT_NE(json.find("\"bundles_evaluated\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"bundles_converged\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"sweep_iterations\""), std::string::npos);
}

TEST(BundleRunner, ParseJobsArg)
{
    const char *good[] = {"prog", "--jobs", "4"};
    auto jobs = eval::parseJobsArg(3, const_cast<char **>(good));
    ASSERT_TRUE(jobs.ok());
    EXPECT_EQ(jobs.value(), 4u);

    const char *absent[] = {"prog", "--other"};
    jobs = eval::parseJobsArg(2, const_cast<char **>(absent));
    ASSERT_TRUE(jobs.ok());
    EXPECT_EQ(jobs.value(), 0u);

    const char *missing[] = {"prog", "--jobs"};
    EXPECT_FALSE(eval::parseJobsArg(2, const_cast<char **>(missing)).ok());

    const char *bad[] = {"prog", "--jobs", "zero"};
    EXPECT_FALSE(eval::parseJobsArg(3, const_cast<char **>(bad)).ok());

    const char *negative[] = {"prog", "--jobs", "-2"};
    EXPECT_FALSE(
        eval::parseJobsArg(3, const_cast<char **>(negative)).ok());
}

TEST(BundleRunner, SkipsMalformedBundleNonFatally)
{
    const auto good = smallSuite(8, 1);
    ASSERT_FALSE(good.empty());

    workloads::Bundle bad = good.front();
    bad.name = "bad-bundle";
    bad.appNames = {"no_such_app_xyz", "mcf", "vpr", "hmmer",
                    "milc", "swim", "apsi", "gcc"};

    std::vector<workloads::Bundle> bundles = {bad, good.front()};

    const core::EqualBudgetAllocator equal;
    const eval::BundleRunner runner({&equal});
    const auto evals = runner.run(bundles);

    ASSERT_EQ(evals.size(), 2u);
    EXPECT_TRUE(evals[0].skipped);
    EXPECT_FALSE(evals[0].skipReason.empty());
    EXPECT_TRUE(evals[0].scores.empty());
    EXPECT_FALSE(evals[1].skipped);
    ASSERT_EQ(evals[1].scores.size(), 1u);
    EXPECT_GT(evals[1].scores[0].efficiency, 0.0);
}

TEST(BundleRunner, TryValidateProblemDiagnoses)
{
    // Well-formed problems pass...
    const auto bp = eval::makeBundleProblem({"mcf", "vpr", "hmmer",
                                             "milc"});
    EXPECT_FALSE(core::tryValidateProblem(bp.problem).has_value());

    // ...and arity mismatches produce a diagnostic instead of dying.
    core::AllocationProblem broken = bp.problem;
    broken.capacities.push_back(3.0);
    const auto err = core::tryValidateProblem(broken);
    ASSERT_TRUE(err.has_value());
    EXPECT_FALSE(err->empty());

    core::AllocationProblem empty;
    EXPECT_TRUE(core::tryValidateProblem(empty).has_value());

    // Non-finite capacities are rejected too (every ordered comparison
    // lets NaN through), and the oracle, whose greedy fill never ends
    // on a NaN capacity, returns the diagnosis instead of running.
    const core::MaxEfficiencyAllocator oracle;
    for (double cap : {std::nan(""), std::numeric_limits<double>::infinity(),
                       -std::numeric_limits<double>::infinity()}) {
        core::AllocationProblem bad_cap = bp.problem;
        bad_cap.capacities[1] = cap;
        EXPECT_TRUE(core::tryValidateProblem(bad_cap).has_value()) << cap;
        const auto out = oracle.allocate(bad_cap);
        EXPECT_EQ(out.status.code(), util::StatusCode::InvalidArgument)
            << cap;
        EXPECT_TRUE(out.alloc.empty()) << cap;
    }
}

TEST(BundleRunner, SyntheticRosterDeterministicAndModelCacheShared)
{
    const auto a = eval::syntheticAppNames(1000, 7);
    const auto b = eval::syntheticAppNames(1000, 7);
    const auto c = eval::syntheticAppNames(1000, 8);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);

    // The memoized per-(app, convexify) cache: a 1000-player problem
    // must hold at most one model instance per catalog app.
    const eval::BundleProblem bp = eval::makeSyntheticBundleProblem(1000, 7);
    ASSERT_EQ(bp.problem.models.size(), 1000u);
    std::set<const market::UtilityModel *> distinct(
        bp.problem.models.begin(), bp.problem.models.end());
    EXPECT_LE(distinct.size(), 24u);

    const eval::BundleProblem again =
        eval::makeSyntheticBundleProblem(1000, 7);
    for (size_t i = 0; i < 1000; ++i)
        EXPECT_EQ(bp.problem.models[i], again.problem.models[i]) << i;
}
