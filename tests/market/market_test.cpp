#include "rebudget/market/market.h"

#include <cmath>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "rebudget/util/logging.h"

namespace rebudget::market {
namespace {

// Two symmetric players over two symmetric resources.
std::vector<std::unique_ptr<PowerLawUtility>>
symmetricPlayers(size_t n)
{
    std::vector<std::unique_ptr<PowerLawUtility>> models;
    for (size_t i = 0; i < n; ++i) {
        models.push_back(std::make_unique<PowerLawUtility>(
            std::vector<double>{1.0, 1.0}, std::vector<double>{0.5, 0.5},
            std::vector<double>{10.0, 10.0}));
    }
    return models;
}

std::vector<const UtilityModel *>
ptrs(const std::vector<std::unique_ptr<PowerLawUtility>> &models)
{
    std::vector<const UtilityModel *> out;
    for (const auto &m : models)
        out.push_back(m.get());
    return out;
}

TEST(ComputePrices, Equation1)
{
    // p_j = sum of bids / capacity.
    const util::Matrix<double> bids = {{4.0, 2.0}, {6.0, 2.0}};
    const auto prices = computePrices(bids, {10.0, 2.0});
    EXPECT_DOUBLE_EQ(prices[0], 1.0);
    EXPECT_DOUBLE_EQ(prices[1], 2.0);
}

TEST(ProportionalAllocation, ColumnsSumToCapacity)
{
    const util::Matrix<double> bids = {{4.0, 1.0}, {6.0, 3.0}};
    const auto alloc = proportionalAllocation(bids, {10.0, 8.0});
    EXPECT_NEAR(alloc[0][0] + alloc[1][0], 10.0, 1e-12);
    EXPECT_NEAR(alloc[0][1] + alloc[1][1], 8.0, 1e-12);
    EXPECT_DOUBLE_EQ(alloc[0][0], 4.0);
    EXPECT_DOUBLE_EQ(alloc[1][0], 6.0);
}

TEST(ProportionalAllocation, UnbidResourceUnallocated)
{
    const util::Matrix<double> bids = {{1.0, 0.0}, {1.0, 0.0}};
    const auto alloc = proportionalAllocation(bids, {4.0, 4.0});
    EXPECT_DOUBLE_EQ(alloc[0][1], 0.0);
    EXPECT_DOUBLE_EQ(alloc[1][1], 0.0);
}

TEST(StronglyCompetitive, RequiresTwoBiddersPerResource)
{
    EXPECT_TRUE(stronglyCompetitive({{1.0, 1.0}, {1.0, 1.0}}));
    EXPECT_FALSE(stronglyCompetitive({{1.0, 0.0}, {1.0, 1.0}}));
    EXPECT_FALSE(stronglyCompetitive({}));
}

TEST(Market, SymmetricPlayersGetEqualShares)
{
    const auto models = symmetricPlayers(4);
    ProportionalMarket mkt(ptrs(models), {10.0, 10.0});
    const auto eq = mkt.findEquilibrium({100, 100, 100, 100});
    EXPECT_TRUE(eq.converged);
    for (size_t i = 0; i < 4; ++i) {
        EXPECT_NEAR(eq.alloc[i][0], 2.5, 0.1);
        EXPECT_NEAR(eq.alloc[i][1], 2.5, 0.1);
    }
}

TEST(Market, AllocationExhaustsCapacity)
{
    const auto models = symmetricPlayers(3);
    ProportionalMarket mkt(ptrs(models), {12.0, 6.0});
    const auto eq = mkt.findEquilibrium({50, 100, 150});
    for (size_t j = 0; j < 2; ++j) {
        double sum = 0.0;
        for (size_t i = 0; i < 3; ++i)
            sum += eq.alloc[i][j];
        EXPECT_NEAR(sum, mkt.capacities()[j], 1e-9);
    }
}

TEST(Market, RicherPlayerGetsMore)
{
    const auto models = symmetricPlayers(2);
    ProportionalMarket mkt(ptrs(models), {10.0, 10.0});
    const auto eq = mkt.findEquilibrium({150.0, 50.0});
    EXPECT_GT(eq.alloc[0][0], eq.alloc[1][0]);
    EXPECT_GT(eq.alloc[0][1], eq.alloc[1][1]);
    // With identical utilities, allocation tracks budget share.
    EXPECT_NEAR(eq.alloc[0][0] / eq.alloc[1][0], 3.0, 0.2);
}

TEST(Market, PricesReflectBudgets)
{
    // Total money 200 chasing capacities {10, 10} with symmetric players:
    // sum of price*capacity = total budget.
    const auto models = symmetricPlayers(2);
    ProportionalMarket mkt(ptrs(models), {10.0, 10.0});
    const auto eq = mkt.findEquilibrium({100.0, 100.0});
    const double spent = eq.prices[0] * 10.0 + eq.prices[1] * 10.0;
    EXPECT_NEAR(spent, 200.0, 1e-6);
}

TEST(Market, HeterogeneousPreferencesSpecialize)
{
    // Player 0 values resource 0 much more; player 1 the opposite.
    std::vector<std::unique_ptr<PowerLawUtility>> models;
    models.push_back(std::make_unique<PowerLawUtility>(
        std::vector<double>{9.0, 1.0}, std::vector<double>{0.5, 0.5},
        std::vector<double>{10.0, 10.0}));
    models.push_back(std::make_unique<PowerLawUtility>(
        std::vector<double>{1.0, 9.0}, std::vector<double>{0.5, 0.5},
        std::vector<double>{10.0, 10.0}));
    ProportionalMarket mkt(ptrs(models), {10.0, 10.0});
    const auto eq = mkt.findEquilibrium({100.0, 100.0});
    EXPECT_GT(eq.alloc[0][0], 6.0);
    EXPECT_GT(eq.alloc[1][1], 6.0);
}

TEST(Market, ConvergesWithinFewIterations)
{
    const auto models = symmetricPlayers(8);
    ProportionalMarket mkt(ptrs(models), {32.0, 32.0});
    const auto eq = mkt.findEquilibrium(std::vector<double>(8, 100.0));
    EXPECT_TRUE(eq.converged);
    EXPECT_LE(eq.iterations, 5); // paper Section 6.4: typically <= 3
}

TEST(Market, EquilibriumIsApproximateBestResponse)
{
    // No player can improve its utility by re-optimizing its own bids at
    // the equilibrium competition (within tolerance).
    const auto models = symmetricPlayers(3);
    ProportionalMarket mkt(ptrs(models), {9.0, 9.0});
    const std::vector<double> budgets = {120.0, 90.0, 60.0};
    const auto eq = mkt.findEquilibrium(budgets);
    for (size_t i = 0; i < 3; ++i) {
        std::vector<double> others(2, 0.0);
        for (size_t j = 0; j < 2; ++j) {
            for (size_t k = 0; k < 3; ++k) {
                if (k != i)
                    others[j] += eq.bids[k][j];
            }
        }
        const double current = models[i]->utility(eq.alloc[i]);
        const BidResult best = optimizeBids(*models[i], budgets[i],
                                            others, mkt.capacities());
        std::vector<double> best_alloc(2);
        for (size_t j = 0; j < 2; ++j) {
            best_alloc[j] = predictedAllocation(best.bids[j], others[j],
                                                mkt.capacities()[j]);
        }
        EXPECT_LE(models[i]->utility(best_alloc), current + 0.02);
    }
}

TEST(Market, ZeroBudgetPlayerGetsNothing)
{
    const auto models = symmetricPlayers(2);
    ProportionalMarket mkt(ptrs(models), {10.0, 10.0});
    const auto eq = mkt.findEquilibrium({100.0, 0.0});
    EXPECT_NEAR(eq.alloc[1][0], 0.0, 1e-9);
    EXPECT_NEAR(eq.alloc[0][0], 10.0, 1e-9);
}

TEST(Market, LambdasPopulated)
{
    const auto models = symmetricPlayers(2);
    ProportionalMarket mkt(ptrs(models), {10.0, 10.0});
    const auto eq = mkt.findEquilibrium({100.0, 100.0});
    ASSERT_EQ(eq.lambdas.size(), 2u);
    EXPECT_GT(eq.lambdas[0], 0.0);
    EXPECT_NEAR(eq.lambdas[0], eq.lambdas[1], 0.1 * eq.lambdas[0]);
}

TEST(Market, RejectsBadConstruction)
{
    // Malformed setups no longer throw: the rejection is recorded in
    // setupStatus() and every solve echoes it.
    const auto models = symmetricPlayers(2);
    EXPECT_FALSE(ProportionalMarket({}, {1.0, 1.0}).setupStatus().ok());
    EXPECT_FALSE(ProportionalMarket(ptrs(models), {}).setupStatus().ok());
    EXPECT_FALSE(ProportionalMarket(ptrs(models), {1.0, -1.0})
                     .setupStatus()
                     .ok());
    const ProportionalMarket arity(ptrs(models), {1.0}); // arity mismatch
    EXPECT_FALSE(arity.setupStatus().ok());
    const auto eq = arity.findEquilibrium({100.0, 100.0});
    EXPECT_FALSE(eq.status.ok());
    EXPECT_FALSE(eq.converged);
    EXPECT_TRUE(eq.alloc.empty());
}

TEST(Market, RejectsOutOfRangeConfig)
{
    // A NaN priceTol used to report convergence after one sweep.
    const auto models = symmetricPlayers(2);
    const double nan = std::nan("");
    std::vector<std::pair<std::string, MarketConfig>> bad;
    for (double v : {nan, HUGE_VAL, -0.01}) {
        const std::string at = " = " + std::to_string(v);
        MarketConfig cfg;
        cfg.priceTol = v;
        bad.emplace_back("priceTol" + at, cfg);
        cfg = MarketConfig{};
        cfg.bid.lambdaTol = v;
        bad.emplace_back("bid.lambdaTol" + at, cfg);
        cfg = MarketConfig{};
        cfg.bid.minShiftFraction = v;
        bad.emplace_back("bid.minShiftFraction" + at, cfg);
    }
    MarketConfig steps;
    steps.bid.maxSteps = -1;
    bad.emplace_back("bid.maxSteps = -1", steps);
    for (const auto &[what, cfg] : bad) {
        const ProportionalMarket mkt(ptrs(models), {10.0, 10.0}, cfg);
        EXPECT_EQ(mkt.setupStatus().code(),
                  util::StatusCode::InvalidArgument)
            << what;
        const auto eq = mkt.findEquilibrium({100.0, 100.0});
        EXPECT_EQ(eq.status.code(), util::StatusCode::InvalidArgument)
            << what;
        EXPECT_FALSE(eq.converged) << what;
        EXPECT_TRUE(eq.alloc.empty()) << what;
    }
}

TEST(Market, AcceptsConfigRangeEnds)
{
    // Zero tolerances (an exact fixed point) and a zero step budget are
    // legal.
    const auto models = symmetricPlayers(2);
    MarketConfig cfg;
    cfg.priceTol = 0.0;
    cfg.bid.lambdaTol = 0.0;
    cfg.bid.minShiftFraction = 0.0;
    cfg.bid.maxSteps = 0;
    const ProportionalMarket mkt(ptrs(models), {10.0, 10.0}, cfg);
    EXPECT_TRUE(mkt.setupStatus().ok());
    EXPECT_TRUE(mkt.findEquilibrium({100.0, 100.0}).status.ok());
}

TEST(Market, RejectsBadBudgets)
{
    const auto models = symmetricPlayers(2);
    ProportionalMarket mkt(ptrs(models), {10.0, 10.0});
    EXPECT_FALSE(mkt.findEquilibrium({1.0}).status.ok());
    EXPECT_FALSE(mkt.findEquilibrium({1.0, -2.0}).status.ok());
}

TEST(Market, RejectsNonFiniteCapacities)
{
    // NaN and +inf pass a `c <= 0.0` test; unchecked, a NaN capacity
    // solves "converged" to NaN prices and +inf to zero prices.
    const auto models = symmetricPlayers(2);
    for (double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
        const ProportionalMarket mkt(ptrs(models), {10.0, bad});
        EXPECT_EQ(mkt.setupStatus().code(),
                  util::StatusCode::InvalidArgument)
            << bad;
        const auto eq = mkt.findEquilibrium({100.0, 100.0});
        EXPECT_EQ(eq.status.code(), util::StatusCode::InvalidArgument)
            << bad;
        EXPECT_FALSE(eq.converged) << bad;
        EXPECT_TRUE(eq.alloc.empty()) << bad;
    }
}

TEST(Market, RejectsNonFiniteBudgets)
{
    // NaN and +inf pass a `b < 0.0` test; unchecked, a NaN budget
    // solves "converged" to NaN prices and +inf to an infinite price
    // with a NaN allocation.  Cold, warm and rescale solves all reject.
    const auto models = symmetricPlayers(2);
    const ProportionalMarket mkt(ptrs(models), {10.0, 10.0});
    const EquilibriumResult prior = mkt.findEquilibrium({100.0, 100.0});
    ASSERT_TRUE(prior.status.ok());
    for (double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
        const std::vector<double> budgets = {100.0, bad};
        const auto cold = mkt.findEquilibrium(budgets);
        EXPECT_EQ(cold.status.code(), util::StatusCode::InvalidArgument)
            << bad;
        EXPECT_FALSE(cold.converged) << bad;
        EXPECT_TRUE(cold.alloc.empty()) << bad;
        const auto warm = mkt.findEquilibrium(budgets, &prior);
        EXPECT_EQ(warm.status.code(), util::StatusCode::InvalidArgument)
            << bad;
        EXPECT_TRUE(warm.alloc.empty()) << bad;
        const auto rescaled = mkt.rescaleEquilibrium(prior, budgets);
        EXPECT_EQ(rescaled.status.code(),
                  util::StatusCode::InvalidArgument)
            << bad;
        EXPECT_TRUE(rescaled.alloc.empty()) << bad;
    }
}

TEST(Market, ClampsNoiseNegativeBudgets)
{
    // ReBudget's geometric cuts can leave a donor budget a few ulps
    // below zero; the solve treats that as zero instead of rejecting.
    const auto models = symmetricPlayers(2);
    ProportionalMarket mkt(ptrs(models), {10.0, 10.0});
    const auto eq = mkt.findEquilibrium({100.0, -1e-13});
    ASSERT_TRUE(eq.status.ok());
    EXPECT_DOUBLE_EQ(eq.budgets[1], 0.0);
    EXPECT_NEAR(eq.alloc[1][0], 0.0, 1e-9);
}

TEST(Market, PriceHistoryTracksIterations)
{
    const auto models = symmetricPlayers(3);
    MarketConfig cfg;
    cfg.recordPriceHistory = true; // trajectories are opt-in
    ProportionalMarket mkt(ptrs(models), {9.0, 9.0}, cfg);
    const auto eq = mkt.findEquilibrium({120.0, 90.0, 60.0});
    ASSERT_EQ(eq.priceHistory.size(),
              static_cast<size_t>(eq.iterations));
    EXPECT_EQ(eq.priceHistory.back(), eq.prices);
    // The recorded trajectory must satisfy the convergence criterion at
    // the final step: every price moved by < 1% from the previous round.
    if (eq.converged && eq.priceHistory.size() >= 2) {
        const auto &last = eq.priceHistory.back();
        const auto &prev = eq.priceHistory[eq.priceHistory.size() - 2];
        for (size_t j = 0; j < last.size(); ++j) {
            EXPECT_LE(std::abs(last[j] - prev[j]) /
                          std::max(prev[j], 1e-12),
                      0.01 + 1e-9);
        }
    }
}

TEST(Market, FailSafeRespectsIterationCap)
{
    const auto models = symmetricPlayers(4);
    MarketConfig cfg;
    cfg.maxIterations = 2;
    cfg.priceTol = 1e-9; // practically unreachable
    ProportionalMarket mkt(ptrs(models), {10.0, 10.0}, cfg);
    const auto eq = mkt.findEquilibrium(std::vector<double>(4, 100.0));
    EXPECT_LE(eq.iterations, 2);
}

// Scaling sweep: equilibrium must converge and exhaust capacity from 2
// to 64 symmetric players.
class MarketScale : public ::testing::TestWithParam<size_t>
{
};

TEST_P(MarketScale, ConvergesAndExhaustsCapacity)
{
    const size_t n = GetParam();
    const auto models = symmetricPlayers(n);
    ProportionalMarket mkt(ptrs(models),
                           {static_cast<double>(4 * n),
                            static_cast<double>(4 * n)});
    const auto eq =
        mkt.findEquilibrium(std::vector<double>(n, 100.0));
    EXPECT_TRUE(eq.converged);
    for (size_t j = 0; j < 2; ++j) {
        double sum = 0.0;
        for (size_t i = 0; i < n; ++i)
            sum += eq.alloc[i][j];
        EXPECT_NEAR(sum, 4.0 * n, 1e-6);
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MarketScale,
                         ::testing::Values(2, 4, 8, 16, 32, 64));

} // namespace
} // namespace rebudget::market
