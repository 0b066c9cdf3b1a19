#include "rebudget/core/rebudget_allocator.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "rebudget/core/baselines.h"
#include "rebudget/core/max_efficiency.h"
#include "rebudget/market/metrics.h"
#include "rebudget/util/logging.h"
#include "rebudget/util/rng.h"

namespace rebudget::core {
namespace {

struct Fixture
{
    std::vector<std::unique_ptr<market::PowerLawUtility>> models;
    AllocationProblem problem;
};

// A heterogeneous market where some players are nearly satiated (low
// lambda) and others starved: the setting ReBudget is built for.
Fixture
skewedFixture(uint64_t seed, size_t players)
{
    util::Rng rng(seed);
    Fixture f;
    f.problem.capacities = {20.0, 20.0};
    for (size_t i = 0; i < players; ++i) {
        const bool satiable = i % 2 == 0;
        const double e = satiable ? 0.15 : 0.95;
        f.models.push_back(std::make_unique<market::PowerLawUtility>(
            std::vector<double>{rng.uniform(0.5, 1.0),
                                rng.uniform(0.5, 1.0)},
            std::vector<double>{e, e}, f.problem.capacities));
        f.problem.models.push_back(f.models.back().get());
    }
    return f;
}

TEST(ReBudget, NameEncodesStep)
{
    EXPECT_EQ(ReBudgetAllocator::withStep(20).name(), "ReBudget-20");
    EXPECT_EQ(ReBudgetAllocator::withStep(40).name(), "ReBudget-40");
}

TEST(ReBudget, FairnessTargetNameAndFloor)
{
    const auto alloc = ReBudgetAllocator::withFairnessTarget(0.5);
    EXPECT_EQ(alloc.name(), "ReBudget-EF0.5");
    // Theorem 2 inverse: MBR = ((0.5+2)/2)^2 - 1 = 0.5625.
    EXPECT_NEAR(alloc.budgetFloorFraction(), 0.5625, 1e-9);
    // Step (1) of Section 4.2: step0 = (1 - MBR) * B / 2.
    EXPECT_NEAR(alloc.step0(), (1.0 - 0.5625) * 50.0, 1e-9);
}

TEST(ReBudget, BudgetsNeverBelowGeometricFloor)
{
    Fixture f = skewedFixture(1, 6);
    const auto alloc = ReBudgetAllocator::withStep(20);
    const auto out = alloc.allocate(f.problem);
    // Worst case cut series: 20 + 10 + 5 + 2.5 + 1.25 = 38.75.
    for (double b : out.budgets) {
        EXPECT_GE(b, 100.0 - 38.75 - 1e-9);
        EXPECT_LE(b, 100.0 + 1e-9);
    }
}

TEST(ReBudget, WorstCaseMbrMatchesCutSeries)
{
    EXPECT_NEAR(ReBudgetAllocator::withStep(20).worstCaseMbr(), 0.6125,
                1e-9);
    EXPECT_NEAR(ReBudgetAllocator::withStep(40).worstCaseMbr(), 0.2125,
                1e-9);
}

TEST(ReBudget, GuardrailFloorBoundsBudgetCuts)
{
    // An aggressive config whose geometric cut series would otherwise
    // strip a player near to zero: the guardrail floor must bind.
    ReBudgetConfig cfg;
    cfg.step0 = 45.0;
    cfg.minStepFraction = 1e-6;
    cfg.maxRounds = 64;
    cfg.guardrailFloor = 0.25;
    const ReBudgetAllocator alloc{cfg};
    ASSERT_TRUE(alloc.configStatus().ok());
    // Ungated cuts: 45 * (1 + 1/2 + ...) -> 90, i.e. MBR 0.10; the
    // guardrail holds the bound at 0.25.
    EXPECT_NEAR(alloc.worstCaseMbr(), 0.25, 1e-9);

    Fixture f = skewedFixture(3, 6);
    const auto out = alloc.allocate(f.problem);
    ASSERT_TRUE(out.status.ok());
    for (double b : out.budgets)
        EXPECT_GE(b, 25.0 - 1e-9);
}

TEST(ReBudget, DefaultGuardrailNeverBindsOnPaperConfigs)
{
    // 5% sits below ReBudget-40's 21.25% worst case, so enabling it by
    // default cannot change any paper result.
    ReBudgetConfig cfg;
    EXPECT_DOUBLE_EQ(cfg.guardrailFloor, 0.05);
    EXPECT_NEAR(ReBudgetAllocator::withStep(40).worstCaseMbr(), 0.2125,
                1e-9);
}

TEST(ReBudget, FairnessTargetEnforcesMbrFloor)
{
    Fixture f = skewedFixture(2, 6);
    const auto alloc = ReBudgetAllocator::withFairnessTarget(0.6);
    const auto out = alloc.allocate(f.problem);
    const double mbr = market::marketBudgetRange(out.budgets).value();
    EXPECT_GE(mbr, alloc.budgetFloorFraction() - 1e-9);
    // Theorem 2 then guarantees the administrator's target.
    EXPECT_GE(market::envyFreenessLowerBound(mbr), 0.6 - 1e-9);
}

TEST(ReBudget, CutsOnlyLowLambdaPlayers)
{
    Fixture f = skewedFixture(3, 6);
    const auto out = ReBudgetAllocator::withStep(20).allocate(f.problem);
    // Whoever kept the full initial budget must not have had the lowest
    // lambda... verify the complementary property: every cut player's
    // final lambda is below the maximum (they were over-budgeted).
    const double max_lambda =
        *std::max_element(out.lambdas.begin(), out.lambdas.end());
    for (size_t i = 0; i < out.budgets.size(); ++i) {
        if (out.budgets[i] < 100.0 - 1e-9) {
            EXPECT_LT(out.lambdas[i], max_lambda + 1e-12);
        }
    }
}

TEST(ReBudget, ImprovesEfficiencyOverEqualBudgetOnSkewedMarkets)
{
    int improved = 0;
    int trials = 0;
    for (uint64_t seed = 10; seed < 20; ++seed) {
        Fixture f = skewedFixture(seed, 6);
        const double eq = market::efficiency(
            f.problem.models,
            EqualBudgetAllocator().allocate(f.problem).alloc);
        const double rb = market::efficiency(
            f.problem.models,
            ReBudgetAllocator::withStep(40).allocate(f.problem).alloc);
        ++trials;
        if (rb >= eq - 1e-9)
            ++improved;
    }
    // Budget reassignment is a heuristic; it must help in the vast
    // majority of skewed markets.
    EXPECT_GE(improved, trials - 1);
}

TEST(ReBudget, MoreAggressiveStepMovesMurTowardOne)
{
    Fixture f = skewedFixture(4, 6);
    const auto eq = EqualBudgetAllocator().allocate(f.problem);
    const auto rb40 =
        ReBudgetAllocator::withStep(40).allocate(f.problem);
    const double mur_eq = market::marketUtilityRange(eq.lambdas).value();
    const double mur_rb = market::marketUtilityRange(rb40.lambdas).value();
    EXPECT_GE(mur_rb, mur_eq - 0.05);
}

TEST(ReBudget, EnvyBoundHoldsAtEquilibrium)
{
    for (uint64_t seed = 30; seed < 36; ++seed) {
        Fixture f = skewedFixture(seed, 6);
        const auto out =
            ReBudgetAllocator::withStep(40).allocate(f.problem);
        const double ef =
            market::envyFreeness(f.problem.models, out.alloc);
        const double bound = market::envyFreenessLowerBound(
            market::marketBudgetRange(out.budgets).value());
        EXPECT_GE(ef, bound - 0.05) << "seed " << seed;
    }
}

TEST(ReBudget, StableMarketTerminatesWithoutCuts)
{
    // Identical players: lambdas equal, nothing to cut, outcome matches
    // EqualBudget after one round.
    Fixture f;
    f.problem.capacities = {10.0, 10.0};
    for (int i = 0; i < 4; ++i) {
        f.models.push_back(std::make_unique<market::PowerLawUtility>(
            std::vector<double>{1.0, 1.0}, std::vector<double>{0.5, 0.5},
            f.problem.capacities));
        f.problem.models.push_back(f.models.back().get());
    }
    const auto out = ReBudgetAllocator::withStep(20).allocate(f.problem);
    EXPECT_EQ(out.budgetRounds, 1);
    for (double b : out.budgets)
        EXPECT_DOUBLE_EQ(b, 100.0);
}

TEST(ReBudget, ReportsAccounting)
{
    Fixture f = skewedFixture(5, 6);
    const auto out = ReBudgetAllocator::withStep(40).allocate(f.problem);
    EXPECT_GE(out.budgetRounds, 1);
    EXPECT_GE(out.marketIterations, out.budgetRounds);
    EXPECT_EQ(out.alloc.size(), 6u);
}

TEST(ReBudget, AllocationExhaustsCapacity)
{
    Fixture f = skewedFixture(6, 6);
    const auto out = ReBudgetAllocator::withStep(20).allocate(f.problem);
    for (size_t j = 0; j < 2; ++j) {
        double sum = 0.0;
        for (const auto &row : out.alloc)
            sum += row[j];
        EXPECT_NEAR(sum, f.problem.capacities[j], 1e-9);
    }
}

TEST(ReBudget, BudgetHistoryExcludesElidedRounds)
{
    // An aggressive elision threshold makes every post-cut round below
    // the bar reuse a rescaled equilibrium; the recorded budget history
    // must list exactly the real solves, so replaying it reproduces the
    // mechanism's market work without the elided rounds.
    ReBudgetConfig cfg;
    cfg.step0 = 20.0;
    cfg.elideStepFraction = 0.4;
    const ReBudgetAllocator alloc{cfg};
    ASSERT_TRUE(alloc.configStatus().ok());

    // Nearly-satiated players bid almost nothing, so their lambda falls
    // below half the hungry players' and they get cut -- skewedFixture's
    // lambda spread stays above the cut threshold.
    Fixture f;
    f.problem.capacities = {20.0, 20.0};
    for (int i = 0; i < 6; ++i) {
        const bool satiated = i % 2 == 0;
        const double w = satiated ? 0.05 : 1.0;
        const double e = satiated ? 0.10 : 0.95;
        f.models.push_back(std::make_unique<market::PowerLawUtility>(
            std::vector<double>{w, w}, std::vector<double>{e, e},
            f.problem.capacities));
        f.problem.models.push_back(f.models.back().get());
    }
    f.problem.recordBudgetHistory = true;
    const auto out = alloc.allocate(f.problem);
    ASSERT_TRUE(out.status.ok());
    EXPECT_GT(out.stats.elidedRescales, 0);
    EXPECT_EQ(out.budgetHistory.size(),
              static_cast<size_t>(out.stats.equilibriumSolves));
    // The published equilibrium is always a real solve.
    ASSERT_NE(out.equilibrium, nullptr);
    EXPECT_FALSE(out.equilibrium->approximated);

    // Elided rounds leave no history entry, so the history stays
    // strictly below the round count (each elided round's real-solve
    // slot is at most the single final re-solve).
    EXPECT_LE(out.budgetHistory.size(),
              static_cast<size_t>(out.budgetRounds));

    // With elision disabled every round is a real solve: history and
    // round count agree exactly.
    cfg.elideStepFraction = 0.0;
    const auto full = ReBudgetAllocator{cfg}.allocate(f.problem);
    ASSERT_TRUE(full.status.ok());
    EXPECT_EQ(full.stats.elidedRescales, 0);
    EXPECT_EQ(full.budgetHistory.size(),
              static_cast<size_t>(full.budgetRounds));
}

TEST(ReBudget, RejectsBadConfig)
{
    // A bad config is recorded in configStatus() instead of throwing;
    // allocate() echoes it as a failed outcome.
    ReBudgetConfig bad;
    bad.initialBudget = 0.0;
    EXPECT_FALSE(ReBudgetAllocator{bad}.configStatus().ok());

    bad = ReBudgetConfig{};
    bad.step0 = 60.0; // >= B/2
    EXPECT_FALSE(ReBudgetAllocator{bad}.configStatus().ok());

    bad = ReBudgetConfig{};
    bad.step0 = 0.0;
    EXPECT_FALSE(ReBudgetAllocator{bad}.configStatus().ok());

    bad = ReBudgetConfig{};
    bad.lambdaCutThreshold = 1.0;
    EXPECT_FALSE(ReBudgetAllocator{bad}.configStatus().ok());

    bad = ReBudgetConfig{};
    bad.mbrFloor = 2.0;
    EXPECT_FALSE(ReBudgetAllocator{bad}.configStatus().ok());

    bad = ReBudgetConfig{};
    bad.guardrailFloor = 1.0;
    EXPECT_FALSE(ReBudgetAllocator{bad}.configStatus().ok());

    bad = ReBudgetConfig{};
    bad.guardrailFloor = -0.1;
    EXPECT_FALSE(ReBudgetAllocator{bad}.configStatus().ok());

    bad = ReBudgetConfig{};
    bad.maxRounds = 0;
    const ReBudgetAllocator alloc{bad};
    EXPECT_FALSE(alloc.configStatus().ok());
    Fixture f = skewedFixture(2, 3);
    const auto out = alloc.allocate(f.problem);
    EXPECT_FALSE(out.status.ok());
    EXPECT_FALSE(out.converged);
    EXPECT_TRUE(out.alloc.empty());
    EXPECT_EQ(out.stats.failedSolves, 0);
}

TEST(ReBudget, RejectsNonFiniteAndOutOfRangeConfig)
{
    // Every field gets a negated range check, so NaN is rejected too.
    // Before, a NaN efTarget skipped the step-mode checks (step0 = 1e9
    // then cut every low-lambda player to the guardrail floor) and a
    // NaN lambdaCutThreshold silently disabled every cut.
    const double nan = std::nan("");
    const double inf = HUGE_VAL;
    std::vector<std::pair<const char *, ReBudgetConfig>> bad;
    const auto add = [&bad](const char *what, auto mutate) {
        ReBudgetConfig cfg;
        mutate(cfg);
        bad.emplace_back(what, cfg);
    };
    add("initialBudget NaN",
        [&](ReBudgetConfig &c) { c.initialBudget = nan; });
    add("initialBudget inf",
        [&](ReBudgetConfig &c) { c.initialBudget = inf; });
    add("step0 NaN", [&](ReBudgetConfig &c) { c.step0 = nan; });
    add("efTarget NaN, step0 1e9", [&](ReBudgetConfig &c) {
        c.efTarget = nan;
        c.step0 = 1e9;
    });
    add("efTarget 1.5", [](ReBudgetConfig &c) { c.efTarget = 1.5; });
    add("efTarget inf", [&](ReBudgetConfig &c) { c.efTarget = inf; });
    add("mbrFloor NaN", [&](ReBudgetConfig &c) { c.mbrFloor = nan; });
    add("guardrailFloor NaN",
        [&](ReBudgetConfig &c) { c.guardrailFloor = nan; });
    add("lambdaCutThreshold NaN",
        [&](ReBudgetConfig &c) { c.lambdaCutThreshold = nan; });
    add("minStepFraction NaN",
        [&](ReBudgetConfig &c) { c.minStepFraction = nan; });
    add("minStepFraction -0.01",
        [](ReBudgetConfig &c) { c.minStepFraction = -0.01; });
    add("minStepFraction 1",
        [](ReBudgetConfig &c) { c.minStepFraction = 1.0; });
    add("elideStepFraction NaN",
        [&](ReBudgetConfig &c) { c.elideStepFraction = nan; });
    Fixture f = skewedFixture(2, 3);
    for (const auto &[what, cfg] : bad) {
        const ReBudgetAllocator alloc{cfg};
        EXPECT_EQ(alloc.configStatus().code(),
                  util::StatusCode::InvalidArgument)
            << what;
        EXPECT_EQ(alloc.allocate(f.problem).status.code(),
                  util::StatusCode::InvalidArgument)
            << what;
    }

    // The range ends that stay legal.
    ReBudgetConfig edge;
    edge.minStepFraction = 0.0;
    edge.elideStepFraction = 0.0;
    edge.guardrailFloor = 0.0;
    EXPECT_TRUE(ReBudgetAllocator{edge}.configStatus().ok());
    edge = ReBudgetConfig{};
    edge.efTarget = 1.0;
    edge.step0 = 1e9; // ignored in fairness-target mode
    EXPECT_TRUE(ReBudgetAllocator{edge}.configStatus().ok());
    edge = ReBudgetConfig{};
    edge.efTarget = -HUGE_VAL; // step mode
    EXPECT_TRUE(ReBudgetAllocator{edge}.configStatus().ok());
}

// The paper's knob: sweeping the step trades efficiency against
// fairness monotonically (statistically).
class StepKnob : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(StepKnob, LargerStepNeverLessEfficientMuchLessFair)
{
    Fixture f = skewedFixture(GetParam(), 8);
    const auto rb10 = ReBudgetAllocator::withStep(10).allocate(f.problem);
    const auto rb40 = ReBudgetAllocator::withStep(40).allocate(f.problem);
    const double eff10 =
        market::efficiency(f.problem.models, rb10.alloc);
    const double eff40 =
        market::efficiency(f.problem.models, rb40.alloc);
    EXPECT_GE(eff40, eff10 - 0.03 * eff10);
    const double mbr10 = market::marketBudgetRange(rb10.budgets).value();
    const double mbr40 = market::marketBudgetRange(rb40.budgets).value();
    EXPECT_LE(mbr40, mbr10 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StepKnob,
                         ::testing::Range(uint64_t{50}, uint64_t{58}));

} // namespace
} // namespace rebudget::core
