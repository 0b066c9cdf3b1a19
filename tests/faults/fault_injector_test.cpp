/**
 * @file
 * faults::FaultInjector: deterministic per-stream forks (the --jobs
 * bit-identity contract), each fault class fires and is repaired, and a
 * disabled plan is a strict no-op that returns inputs by identity.
 */

#include "rebudget/faults/fault_injector.h"

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "rebudget/app/catalog.h"
#include "rebudget/app/utility.h"
#include "rebudget/cache/miss_curve.h"
#include "rebudget/util/rng.h"

namespace rebudget::faults {
namespace {

cache::MissCurve
sampleCurve()
{
    return cache::MissCurve({1000.0, 600.0, 350.0, 200.0, 120.0, 80.0});
}

std::shared_ptr<const app::AppUtilityModel>
sampleModel()
{
    app::RawUtilityGrid raw;
    raw.name = "sample";
    raw.cacheKnots = {1.0, 2.0, 4.0, 8.0};
    raw.powerKnots = {5.0, 10.0, 20.0};
    raw.grid = {0.10, 0.15, 0.20, 0.30, 0.35, 0.40,
                0.50, 0.55, 0.60, 0.70, 0.80, 0.95};
    raw.minWatts = 5.0;
    return std::make_shared<app::AppUtilityModel>(std::move(raw));
}

TEST(FaultInjector, DisabledPlanReturnsInputsByIdentity)
{
    const FaultInjector injector{FaultPlan{}};
    InjectionStats stats;
    const auto model = sampleModel();
    EXPECT_EQ(injector.perturbModel(model, 1, 2, stats), model);
    const std::shared_ptr<const market::UtilityModel> as_market = model;
    EXPECT_EQ(injector.maybeLiar(as_market, 1, 2, stats), as_market);
    EXPECT_DOUBLE_EQ(injector.biasPowerReading(7.5, 1, 2, 3, stats), 7.5);
    EXPECT_FALSE(injector.staleProfile(1, 2, 3, stats));
    const cache::MissCurve curve = sampleCurve();
    const cache::MissCurve out =
        injector.perturbMissCurve(curve, 1, 2, 3, stats);
    EXPECT_EQ(out.samples(), curve.samples());
    EXPECT_EQ(stats.total(), 0);
}

TEST(FaultInjector, ForkIsPureFunctionOfKeys)
{
    FaultPlan plan;
    plan.seed = 99;
    const FaultInjector a{plan};
    const FaultInjector b{plan};
    util::Rng ra = a.fork(10, 3, FaultStream::Curve, 7);
    util::Rng rb = b.fork(10, 3, FaultStream::Curve, 7);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(ra.next(), rb.next());
    // Different stream or salt -> different stream.
    util::Rng rc = a.fork(10, 3, FaultStream::Grid, 7);
    util::Rng rd = a.fork(10, 3, FaultStream::Curve, 8);
    const uint64_t base = a.fork(10, 3, FaultStream::Curve, 7).next();
    EXPECT_NE(base, rc.next());
    EXPECT_NE(base, rd.next());
}

TEST(FaultInjector, CurveNoiseIsDeterministicAndRepaired)
{
    FaultPlan plan;
    plan.curveNoise.gaussianRel = 0.3;
    plan.curveNoise.dropProbability = 0.2;
    const FaultInjector injector{plan};

    InjectionStats s1, s2;
    util::SolverStats h1;
    const cache::MissCurve out1 =
        injector.perturbMissCurve(sampleCurve(), 5, 0, 1, s1, &h1);
    const cache::MissCurve out2 =
        injector.perturbMissCurve(sampleCurve(), 5, 0, 1, s2);
    EXPECT_EQ(out1.samples(), out2.samples());
    EXPECT_EQ(s1.curveCellsPerturbed, s2.curveCellsPerturbed);
    EXPECT_GT(s1.curveCellsPerturbed, 0);

    // Repaired: non-increasing, finite, non-negative.
    const std::vector<double> &samples = out1.samples();
    for (size_t i = 0; i < samples.size(); ++i) {
        EXPECT_TRUE(std::isfinite(samples[i]));
        EXPECT_GE(samples[i], 0.0);
        if (i > 0) {
            EXPECT_LE(samples[i], samples[i - 1]);
        }
    }
    // Noise at 30% relative will produce monotone violations on this
    // curve; the repair must have been recorded.
    EXPECT_GE(h1.repairedCurves, 0);
}

TEST(FaultInjector, CurveQuantizationSnapsToStep)
{
    FaultPlan plan;
    plan.curveNoise.quantizeStep = 100.0;
    const FaultInjector injector{plan};
    InjectionStats stats;
    const cache::MissCurve out =
        injector.perturbMissCurve(sampleCurve(), 1, 0, 0, stats);
    for (double v : out.samples())
        EXPECT_DOUBLE_EQ(std::fmod(v, 100.0), 0.0);
    EXPECT_GT(stats.curveCellsPerturbed, 0);
}

TEST(FaultInjector, PowerBiasShiftsReadings)
{
    FaultPlan plan;
    plan.powerBias = 0.10;
    const FaultInjector injector{plan};
    InjectionStats stats;
    EXPECT_DOUBLE_EQ(injector.biasPowerReading(10.0, 1, 0, 0, stats),
                     11.0);
    EXPECT_EQ(stats.powerReadingsBiased, 1);
    // Readings never go negative even under a large negative bias.
    plan.powerBias = -2.0;
    const FaultInjector crush{plan};
    EXPECT_DOUBLE_EQ(crush.biasPowerReading(10.0, 1, 0, 0, stats), 0.0);
}

TEST(FaultInjector, PowerNoiseIsDeterministicPerStream)
{
    FaultPlan plan;
    plan.powerNoise.gaussianRel = 0.2;
    const FaultInjector injector{plan};
    InjectionStats stats;
    const double a = injector.biasPowerReading(10.0, 4, 1, 9, stats);
    const double b = injector.biasPowerReading(10.0, 4, 1, 9, stats);
    EXPECT_DOUBLE_EQ(a, b);
    EXPECT_NE(a, injector.biasPowerReading(10.0, 4, 1, 10, stats));
}

TEST(FaultInjector, StaleProfileRateZeroAndOne)
{
    FaultPlan always;
    always.staleProfileRate = 1.0;
    const FaultInjector on{always};
    InjectionStats stats;
    EXPECT_TRUE(on.staleProfile(1, 0, 0, stats));
    EXPECT_EQ(stats.staleProfiles, 1);
}

TEST(FaultInjector, LiarSelectionIsStablePerPlayer)
{
    FaultPlan plan;
    plan.liarFraction = 0.5;
    const FaultInjector injector{plan};
    int liars = 0;
    for (uint64_t player = 0; player < 64; ++player) {
        const bool first = injector.isLiar(11, player);
        EXPECT_EQ(first, injector.isLiar(11, player));
        liars += first;
    }
    // Roughly half at fraction 0.5; the exact set is seed-determined.
    EXPECT_GT(liars, 16);
    EXPECT_LT(liars, 48);
}

TEST(FaultInjector, LiarWrapperScalesReportsKeepsTruth)
{
    FaultPlan plan;
    plan.liarFraction = 1.0;
    plan.liarGain = 4.0;
    const FaultInjector injector{plan};
    InjectionStats stats;
    const std::shared_ptr<const market::UtilityModel> truth =
        sampleModel();
    const auto wrapped = injector.maybeLiar(truth, 1, 0, stats);
    ASSERT_NE(wrapped, truth);
    EXPECT_EQ(stats.liarPlayers, 1);

    const auto *liar = dynamic_cast<const LiarUtilityModel *>(
        wrapped.get());
    ASSERT_NE(liar, nullptr);
    EXPECT_DOUBLE_EQ(liar->gain(), 4.0);
    const std::vector<double> alloc = {1.0, 2.0};
    EXPECT_DOUBLE_EQ(wrapped->utility(alloc),
                     4.0 * truth->utility(alloc));
    EXPECT_DOUBLE_EQ(wrapped->marginal(0, alloc),
                     4.0 * truth->marginal(0, alloc));
    std::vector<double> g_lie(2), g_truth(2);
    wrapped->gradient(alloc, g_lie);
    truth->gradient(alloc, g_truth);
    EXPECT_DOUBLE_EQ(g_lie[0], 4.0 * g_truth[0]);
    EXPECT_DOUBLE_EQ(g_lie[1], 4.0 * g_truth[1]);
    // Scoring reaches the unscaled truth through truth().
    EXPECT_DOUBLE_EQ(liar->truth().utility(alloc), truth->utility(alloc));
}

TEST(FaultInjector, GridCorruptionIsSanitizedAndDeterministic)
{
    FaultPlan plan;
    plan.gridNanRate = 0.3;
    plan.gridZeroColumnRate = 0.3;
    plan.gridScrambleRate = 0.5;
    const FaultInjector injector{plan};
    const auto model = sampleModel();

    InjectionStats s1, s2;
    util::SolverStats h1;
    const auto out1 = injector.perturbModel(model, 21, 3, s1, &h1);
    const auto out2 = injector.perturbModel(model, 21, 3, s2);
    ASSERT_NE(out1, model);
    EXPECT_GT(s1.gridCellsCorrupted + s1.gridColumnsZeroed +
                  s1.gridRowsScrambled,
              0);
    EXPECT_EQ(s1.gridCellsCorrupted, s2.gridCellsCorrupted);
    EXPECT_EQ(s1.gridColumnsZeroed, s2.gridColumnsZeroed);
    EXPECT_EQ(s1.gridRowsScrambled, s2.gridRowsScrambled);
    EXPECT_EQ(h1.sanitizedGrids, 1);

    // Identical corruption streams rebuild identical models.
    for (size_t ci = 0; ci < model->cacheKnots().size(); ++ci)
        for (size_t pi = 0; pi < model->powerKnots().size(); ++pi)
            EXPECT_DOUBLE_EQ(out1->gridValue(ci, pi),
                             out2->gridValue(ci, pi));

    // And the rebuilt surface is finite and monotone along both axes.
    const size_t np = model->powerKnots().size();
    for (size_t ci = 0; ci < model->cacheKnots().size(); ++ci) {
        for (size_t pi = 0; pi < np; ++pi) {
            const double v = out1->gridValue(ci, pi);
            EXPECT_TRUE(std::isfinite(v));
            EXPECT_GE(v, 0.0);
            if (ci > 0) {
                EXPECT_GE(v, out1->gridValue(ci - 1, pi));
            }
            if (pi > 0) {
                EXPECT_GE(v, out1->gridValue(ci, pi - 1));
            }
        }
    }
}

TEST(FaultInjector, DifferentPlayersGetDifferentDamage)
{
    FaultPlan plan;
    plan.curveNoise.gaussianRel = 0.2;
    const FaultInjector injector{plan};
    InjectionStats stats;
    const auto a =
        injector.perturbMissCurve(sampleCurve(), 1, 0, 0, stats);
    const auto b =
        injector.perturbMissCurve(sampleCurve(), 1, 1, 0, stats);
    EXPECT_NE(a.samples(), b.samples());
}

} // namespace
} // namespace rebudget::faults
