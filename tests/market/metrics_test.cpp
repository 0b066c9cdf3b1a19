#include "rebudget/market/metrics.h"

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "rebudget/util/logging.h"

namespace rebudget::market {
namespace {

std::unique_ptr<PowerLawUtility>
model2(double w0, double w1)
{
    return std::make_unique<PowerLawUtility>(
        std::vector<double>{w0, w1}, std::vector<double>{0.5, 0.5},
        std::vector<double>{10.0, 10.0});
}

TEST(Efficiency, SumsUtilities)
{
    const auto a = model2(1, 1);
    const auto b = model2(1, 1);
    const std::vector<const UtilityModel *> models = {a.get(), b.get()};
    const util::Matrix<double> alloc = {{10.0, 10.0}, {0.0, 0.0}};
    EXPECT_NEAR(efficiency(models, alloc), 1.0, 1e-12);
    const auto utils = perPlayerUtilities(models, alloc);
    EXPECT_NEAR(utils[0], 1.0, 1e-12);
    EXPECT_NEAR(utils[1], 0.0, 1e-12);
}

TEST(EfficiencyDeathTest, MismatchedArityAsserts)
{
    // Parallel-array mismatches are caller bugs, not data errors: they
    // trip the always-on assert rather than the recoverable path.
    const auto a = model2(1, 1);
    const std::vector<const UtilityModel *> models = {a.get()};
    EXPECT_DEATH(efficiency(models, {}), "players/allocations mismatch");
}

TEST(EnvyFreeness, EqualSplitIsEnvyFree)
{
    const auto a = model2(1, 1);
    const auto b = model2(1, 1);
    const std::vector<const UtilityModel *> models = {a.get(), b.get()};
    const util::Matrix<double> alloc = {{5.0, 5.0}, {5.0, 5.0}};
    EXPECT_DOUBLE_EQ(envyFreeness(models, alloc), 1.0);
}

TEST(EnvyFreeness, StarvedPlayerEnvies)
{
    const auto a = model2(1, 1);
    const auto b = model2(1, 1);
    const std::vector<const UtilityModel *> models = {a.get(), b.get()};
    const util::Matrix<double> alloc = {{9.0, 9.0}, {1.0, 1.0}};
    // Player 1's own utility vs. what it would get with player 0's
    // bundle: sqrt(0.1)/sqrt(0.9).
    EXPECT_NEAR(envyFreeness(models, alloc),
                std::sqrt(0.1) / std::sqrt(0.9), 1e-9);
}

TEST(EnvyFreeness, SpecializedAllocationCanBeEnvyFree)
{
    // Each player holds exactly what it values: no envy despite unequal
    // bundles.
    const auto a = model2(1, 0.0001);
    const auto b = model2(0.0001, 1);
    const std::vector<const UtilityModel *> models = {a.get(), b.get()};
    const util::Matrix<double> alloc = {{10.0, 0.0}, {0.0, 10.0}};
    EXPECT_GT(envyFreeness(models, alloc), 0.99);
}

TEST(EnvyFreeness, NeverExceedsOne)
{
    const auto a = model2(2, 1);
    const auto b = model2(1, 3);
    const std::vector<const UtilityModel *> models = {a.get(), b.get()};
    const util::Matrix<double> alloc = {{3.0, 7.0}, {7.0, 3.0}};
    EXPECT_LE(envyFreeness(models, alloc), 1.0);
}

/** Forwards to a model and counts utility() calls (test-only state). */
class CountingUtility : public UtilityModel
{
  public:
    explicit CountingUtility(const UtilityModel &inner) : inner_(inner) {}
    size_t numResources() const override { return inner_.numResources(); }
    double utility(std::span<const double> alloc) const override
    {
        ++calls;
        return inner_.utility(alloc);
    }
    mutable int calls = 0;

  private:
    const UtilityModel &inner_;
};

TEST(OwnBestUtilities, EvaluatesEachDistinctModelAndRowOnce)
{
    // Six players on two shared models over three distinct row bit
    // patterns: 2 x 3 utility() calls instead of 6 x 6.  +0.0 and -0.0
    // are different bits, hence different rows.
    const auto a = model2(1, 1);
    const auto b = model2(2, 1);
    const CountingUtility ca(*a), cb(*b);
    const std::vector<const UtilityModel *> models = {&ca, &cb, &ca,
                                                      &ca, &cb, &cb};
    const util::Matrix<double> alloc = {{2.0, 0.0}, {2.0, -0.0},
                                        {2.0, 0.0}, {5.0, 5.0},
                                        {5.0, 5.0}, {2.0, -0.0}};
    const OwnBestUtilities u = ownAndBestUtilities(models, alloc);
    EXPECT_EQ(ca.calls, 3);
    EXPECT_EQ(cb.calls, 3);
    EXPECT_EQ(u.best[0], a->utility(alloc[3]));
    EXPECT_EQ(u.own[4], b->utility(alloc[3]));
}

TEST(OwnBestUtilities, UnsharedRosterMakesNSquaredCalls)
{
    std::vector<std::unique_ptr<PowerLawUtility>> inner;
    std::vector<std::unique_ptr<CountingUtility>> counted;
    std::vector<const UtilityModel *> models;
    util::Matrix<double> alloc(5, 2);
    for (size_t i = 0; i < 5; ++i) {
        inner.push_back(model2(1.0 + i, 1.0));
        counted.push_back(std::make_unique<CountingUtility>(*inner[i]));
        models.push_back(counted[i].get());
        alloc(i, 0) = 1.0 + i;
        alloc(i, 1) = 0.5 * i;
    }
    ownAndBestUtilities(models, alloc);
    for (const auto &c : counted)
        EXPECT_EQ(c->calls, 5);
}

TEST(OwnBestUtilitiesDeathTest, MismatchedArityAsserts)
{
    const auto a = model2(1, 1);
    const std::vector<const UtilityModel *> models = {a.get()};
    EXPECT_DEATH(ownAndBestUtilities(models, {}),
                 "players/allocations mismatch");
}

TEST(Mur, Definition)
{
    EXPECT_DOUBLE_EQ(marketUtilityRange({1.0, 2.0, 4.0}).value(), 0.25);
    EXPECT_DOUBLE_EQ(marketUtilityRange({3.0, 3.0}).value(), 1.0);
}

TEST(Mur, AllZeroLambdasIsOne)
{
    EXPECT_DOUBLE_EQ(marketUtilityRange({0.0, 0.0}).value(), 1.0);
}

TEST(Mur, ZeroMinIsZero)
{
    EXPECT_DOUBLE_EQ(marketUtilityRange({0.0, 5.0}).value(), 0.0);
}

TEST(Mur, RejectsBadInput)
{
    const auto empty = marketUtilityRange({});
    ASSERT_FALSE(empty.ok());
    EXPECT_EQ(empty.status().code(), util::StatusCode::InvalidArgument);
    const auto negative = marketUtilityRange({-1.0, 1.0});
    ASSERT_FALSE(negative.ok());
    EXPECT_EQ(negative.status().code(), util::StatusCode::Numerical);
    // A NaN makes minmax_element's answer depend on its position (0.5
    // for {0.5, NaN, 1}, NaN for {NaN, 0.5, 1}); any non-finite lambda
    // is an error wherever it sits.
    const double nan = std::nan("");
    for (const std::vector<double> &bad :
         {std::vector<double>{0.5, nan, 1.0},
          std::vector<double>{nan, 0.5, 1.0},
          std::vector<double>{0.5, 1.0, nan}, std::vector<double>{nan},
          std::vector<double>{1.0, HUGE_VAL},
          std::vector<double>{-HUGE_VAL, 1.0}}) {
        const auto mur = marketUtilityRange(bad);
        ASSERT_FALSE(mur.ok());
        EXPECT_EQ(mur.status().code(), util::StatusCode::Numerical);
    }
}

TEST(Mur, ClampsFloatingPointNoiseToZero)
{
    // An incremental-gradient lambda can undershoot zero by an ulp or
    // two (e.g. -1e-15); that is noise, not a pathological market.
    const auto mur = marketUtilityRange({-1e-15, 1.0});
    ASSERT_TRUE(mur.ok());
    EXPECT_DOUBLE_EQ(mur.value(), 0.0);
    // Same within tolerance for a large-magnitude set.
    const auto scaled = marketUtilityRange({-1e-10, 1e3});
    ASSERT_TRUE(scaled.ok());
    EXPECT_DOUBLE_EQ(scaled.value(), 0.0);
}

TEST(Mbr, Definition)
{
    EXPECT_DOUBLE_EQ(marketBudgetRange({50.0, 100.0}).value(), 0.5);
    EXPECT_DOUBLE_EQ(marketBudgetRange({100.0, 100.0}).value(), 1.0);
}

TEST(Mbr, RejectsBadInput)
{
    EXPECT_FALSE(marketBudgetRange({}).ok());
    EXPECT_FALSE(marketBudgetRange({-1.0}).ok());
    // An infinite budget would make every ratio 0 ({1, inf} -> 0).
    const double nan = std::nan("");
    for (const std::vector<double> &bad :
         {std::vector<double>{1.0, HUGE_VAL},
          std::vector<double>{HUGE_VAL, HUGE_VAL},
          std::vector<double>{1.0, nan}, std::vector<double>{nan, 1.0},
          std::vector<double>{-HUGE_VAL, 1.0}}) {
        const auto mbr = marketBudgetRange(bad);
        ASSERT_FALSE(mbr.ok());
        EXPECT_EQ(mbr.status().code(), util::StatusCode::Numerical);
    }
}

TEST(Mbr, ClampsFloatingPointNoiseToZero)
{
    const auto mbr = marketBudgetRange({-1e-15, 100.0});
    ASSERT_TRUE(mbr.ok());
    EXPECT_DOUBLE_EQ(mbr.value(), 0.0);
}

TEST(PoaBound, Theorem1Shape)
{
    // MUR >= 1/2: PoA >= 1 - 1/(4 MUR); at MUR = 1/2 exactly 0.5.
    EXPECT_DOUBLE_EQ(poaLowerBound(0.5), 0.5);
    EXPECT_DOUBLE_EQ(poaLowerBound(1.0), 0.75);
    // MUR < 1/2: PoA >= MUR (continuous at 1/2).
    EXPECT_DOUBLE_EQ(poaLowerBound(0.3), 0.3);
    EXPECT_DOUBLE_EQ(poaLowerBound(0.0), 0.0);
}

TEST(PoaBound, MonotoneInMur)
{
    double prev = -1.0;
    for (double mur = 0.0; mur <= 1.0; mur += 0.05) {
        const double b = poaLowerBound(mur);
        EXPECT_GE(b, prev);
        prev = b;
    }
}

TEST(PoaBound, AtLeastHalfAboveHalfMur)
{
    for (double mur = 0.5; mur <= 1.0; mur += 0.05)
        EXPECT_GE(poaLowerBound(mur), 0.5);
}

TEST(PoaBound, ClampsOutOfRangeInput)
{
    EXPECT_DOUBLE_EQ(poaLowerBound(-0.1), poaLowerBound(0.0));
    EXPECT_DOUBLE_EQ(poaLowerBound(1.1), poaLowerBound(1.0));
}

TEST(EfBound, Theorem2Shape)
{
    // MBR = 1 (equal budgets): 2*sqrt(2) - 2 = 0.828 (Lemma 3).
    EXPECT_NEAR(envyFreenessLowerBound(1.0), 0.8284271, 1e-6);
    EXPECT_DOUBLE_EQ(envyFreenessLowerBound(0.0), 0.0);
}

TEST(EfBound, MonotoneInMbr)
{
    double prev = -1.0;
    for (double mbr = 0.0; mbr <= 1.0; mbr += 0.05) {
        const double b = envyFreenessLowerBound(mbr);
        EXPECT_GT(b, prev);
        prev = b;
    }
}

TEST(EfBound, PaperReBudgetValues)
{
    // ReBudget-20 min budget 61.25 -> bound ~0.54; ReBudget-40 min
    // budget 21.25 -> bound ~0.20 (paper Section 6.2 quotes 0.53/0.19
    // from the slightly looser 2*step bound).
    EXPECT_NEAR(envyFreenessLowerBound(0.6125), 0.5399, 1e-3);
    EXPECT_NEAR(envyFreenessLowerBound(0.2125), 0.2023, 1e-3);
}

TEST(EfBound, InverseRoundTrips)
{
    for (double mbr = 0.05; mbr <= 1.0; mbr += 0.05) {
        const double ef = envyFreenessLowerBound(mbr);
        EXPECT_NEAR(mbrForEnvyFreenessTarget(ef), mbr, 1e-9);
    }
}

TEST(EfBound, InverseClampsExtremes)
{
    EXPECT_DOUBLE_EQ(mbrForEnvyFreenessTarget(-1.0), 0.0);
    EXPECT_DOUBLE_EQ(mbrForEnvyFreenessTarget(0.9), 1.0);
}

} // namespace
} // namespace rebudget::market
