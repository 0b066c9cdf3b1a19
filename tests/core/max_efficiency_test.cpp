#include "rebudget/core/max_efficiency.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "rebudget/core/baselines.h"
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

Fixture
randomFixture(uint64_t seed, size_t players)
{
    util::Rng rng(seed);
    Fixture f;
    f.problem.capacities = {rng.uniform(5, 40), rng.uniform(5, 40)};
    for (size_t i = 0; i < players; ++i) {
        f.models.push_back(std::make_unique<market::PowerLawUtility>(
            std::vector<double>{rng.uniform(0.1, 1), rng.uniform(0.1, 1)},
            std::vector<double>{rng.uniform(0.3, 1), rng.uniform(0.3, 1)},
            f.problem.capacities));
        f.problem.models.push_back(f.models.back().get());
    }
    return f;
}

TEST(MaxEfficiency, ExhaustsCapacity)
{
    Fixture f = randomFixture(1, 4);
    const auto out = MaxEfficiencyAllocator().allocate(f.problem);
    for (size_t j = 0; j < 2; ++j) {
        double sum = 0.0;
        for (const auto &row : out.alloc)
            sum += row[j];
        EXPECT_NEAR(sum, f.problem.capacities[j],
                    1e-6 * f.problem.capacities[j]);
    }
}

TEST(MaxEfficiency, AllAllocationsNonNegative)
{
    Fixture f = randomFixture(2, 6);
    const auto out = MaxEfficiencyAllocator().allocate(f.problem);
    for (const auto &row : out.alloc) {
        for (double x : row)
            EXPECT_GE(x, 0.0);
    }
}

TEST(MaxEfficiency, MatchesClosedFormSingleResource)
{
    // U_i = sqrt(r / C_i) with normalization constants C_0 = 40 and
    // C_1 = 10: marginals 0.5/sqrt(r*C_i) equalize at r_1 = 4*r_0, so
    // with 10 units available the optimum is r_0 = 2, r_1 = 8.
    Fixture f;
    f.problem.capacities = {10.0};
    for (double c : {40.0, 10.0}) {
        f.models.push_back(std::make_unique<market::PowerLawUtility>(
            std::vector<double>{1.0}, std::vector<double>{0.5},
            std::vector<double>{c}));
        f.problem.models.push_back(f.models.back().get());
    }
    const auto out = MaxEfficiencyAllocator().allocate(f.problem);
    EXPECT_NEAR(out.alloc[0][0], 2.0, 0.15);
    EXPECT_NEAR(out.alloc[1][0], 8.0, 0.15);
}

TEST(MaxEfficiency, DominatesEqualShareAndMarket)
{
    for (uint64_t seed = 10; seed < 18; ++seed) {
        Fixture f = randomFixture(seed, 5);
        const double opt = market::efficiency(
            f.problem.models,
            MaxEfficiencyAllocator().allocate(f.problem).alloc);
        const double share = market::efficiency(
            f.problem.models,
            EqualShareAllocator().allocate(f.problem).alloc);
        const double mkt = market::efficiency(
            f.problem.models,
            EqualBudgetAllocator().allocate(f.problem).alloc);
        EXPECT_GE(opt, share - 1e-6) << "seed " << seed;
        EXPECT_GE(opt, mkt - 0.02 * mkt) << "seed " << seed;
    }
}

TEST(MaxEfficiency, LocalExchangeCannotImprove)
{
    Fixture f = randomFixture(3, 4);
    MaxEfficiencyConfig cfg;
    const auto out = MaxEfficiencyAllocator(cfg).allocate(f.problem);
    const double base =
        market::efficiency(f.problem.models, out.alloc);
    // Moving a quantum between any pair must not improve efficiency.
    for (size_t j = 0; j < 2; ++j) {
        const double q = f.problem.capacities[j] * cfg.quantumFraction;
        for (size_t from = 0; from < 4; ++from) {
            if (out.alloc[from][j] < q)
                continue;
            for (size_t to = 0; to < 4; ++to) {
                if (from == to)
                    continue;
                auto trial = out.alloc;
                trial[from][j] -= q;
                trial[to][j] += q;
                EXPECT_LE(market::efficiency(f.problem.models, trial),
                          base + 1e-9);
            }
        }
    }
}

TEST(MaxEfficiency, FinerQuantumNeverWorse)
{
    Fixture f = randomFixture(4, 4);
    MaxEfficiencyConfig coarse;
    coarse.quantumFraction = 1.0 / 32.0;
    MaxEfficiencyConfig fine;
    fine.quantumFraction = 1.0 / 1024.0;
    const double e_coarse = market::efficiency(
        f.problem.models,
        MaxEfficiencyAllocator(coarse).allocate(f.problem).alloc);
    const double e_fine = market::efficiency(
        f.problem.models,
        MaxEfficiencyAllocator(fine).allocate(f.problem).alloc);
    EXPECT_GE(e_fine, e_coarse - 1e-6);
}

TEST(MaxEfficiency, RejectsBadQuantum)
{
    // A bad config is recorded in configStatus() and echoed by every
    // allocate() instead of throwing from the constructor.
    MaxEfficiencyConfig bad;
    bad.quantumFraction = 0.0;
    EXPECT_FALSE(MaxEfficiencyAllocator{bad}.configStatus().ok());
    bad.quantumFraction = std::nan("");
    EXPECT_FALSE(MaxEfficiencyAllocator{bad}.configStatus().ok());
    bad.quantumFraction = 2.0;
    const MaxEfficiencyAllocator alloc{bad};
    EXPECT_FALSE(alloc.configStatus().ok());
    Fixture f = randomFixture(3, 2);
    const auto out = alloc.allocate(f.problem);
    EXPECT_FALSE(out.status.ok());
    EXPECT_TRUE(out.alloc.empty());
}

TEST(MaxEfficiency, NanPoisonedWarmSeedFallsBackToColdResult)
{
    // A seed with a NaN entry is not a usable starting point: the
    // oracle must ignore it and return the cold result, bit for bit,
    // instead of climbing from (and publishing) the NaN.
    Fixture f = randomFixture(6, 4);
    const MaxEfficiencyAllocator oracle;
    const auto cold = oracle.allocate(f.problem);
    ASSERT_TRUE(cold.status.ok());

    market::EquilibriumResult seed;
    seed.alloc = cold.alloc;
    seed.alloc(1, 0) = std::nan("");
    f.problem.warmStart = &seed;
    const auto warm = oracle.allocate(f.problem);
    ASSERT_TRUE(warm.status.ok());
    EXPECT_EQ(warm.stats.hillClimbSteps, cold.stats.hillClimbSteps);
    ASSERT_EQ(warm.alloc.rows(), cold.alloc.rows());
    ASSERT_EQ(warm.alloc.cols(), cold.alloc.cols());
    for (size_t i = 0; i < cold.alloc.rows(); ++i) {
        for (size_t j = 0; j < cold.alloc.cols(); ++j) {
            EXPECT_EQ(std::bit_cast<uint64_t>(warm.alloc(i, j)),
                      std::bit_cast<uint64_t>(cold.alloc(i, j)))
                << i << "," << j;
        }
    }
}

TEST(MaxEfficiency, SinglePlayerTakesEverything)
{
    Fixture f = randomFixture(5, 1);
    const auto out = MaxEfficiencyAllocator().allocate(f.problem);
    EXPECT_NEAR(out.alloc[0][0], f.problem.capacities[0], 1e-6);
    EXPECT_NEAR(out.alloc[0][1], f.problem.capacities[1], 1e-6);
}

} // namespace
} // namespace rebudget::core
