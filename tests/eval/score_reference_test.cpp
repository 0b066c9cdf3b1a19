/**
 * @file
 * Bit-identicality regression for scoring.  market::ownAndBestUtilities
 * evaluates each distinct (model, row bits) pair once; verbatim ports
 * of the per-player scans it replaced live below (efficiency over
 * perPlayerUtilities, envyFreeness's n^2 double loop, the churn
 * runner's own/best loop and lifetimeEnvyFreeness).  Every score must
 * match them bit for bit: on the full fig04 suite under all six
 * mechanisms through BundleRunner::evaluate, on one churn scenario
 * through evaluateChurn, and on hand-picked and random fixtures with
 * NaN, negative, signed-zero and all-zero utilities, rows that differ
 * only in the sign of a zero, shared and unshared models, and n = 1.
 *
 * The best values match exactly, the sign of a zero best included:
 * both sides end on the first row, in index order, that attains the
 * maximum (see market/metrics.cpp).
 */

#include "rebudget/market/metrics.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rebudget/core/baselines.h"
#include "rebudget/core/karma_allocator.h"
#include "rebudget/core/max_efficiency.h"
#include "rebudget/core/rebudget_allocator.h"
#include "rebudget/eval/bundle_runner.h"
#include "rebudget/eval/churn.h"
#include "rebudget/util/rng.h"
#include "rebudget/workloads/bundles.h"

namespace rebudget {
namespace {

using Models = std::vector<const market::UtilityModel *>;

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
           std::bit_cast<std::uint64_t>(b);
}

// --- Verbatim ports of the per-player scans ------------------------------

double
refEfficiency(const Models &models, const util::Matrix<double> &alloc)
{
    std::vector<double> utils(models.size());
    for (size_t i = 0; i < models.size(); ++i)
        utils[i] = models[i]->utility(alloc[i]);
    double sum = 0.0;
    for (double u : utils)
        sum += u;
    return sum;
}

double
refEnvyFreeness(const Models &models, const util::Matrix<double> &alloc)
{
    double ef = 1.0;
    for (size_t i = 0; i < models.size(); ++i) {
        const double own = models[i]->utility(alloc[i]);
        double best_other = own;
        for (size_t j = 0; j < alloc.size(); ++j) {
            if (j == i)
                continue;
            best_other = std::max(best_other,
                                  models[i]->utility(alloc[j]));
        }
        if (best_other <= 0.0)
            continue; // utility zero everywhere: nothing to envy
        ef = std::min(ef, own / best_other);
    }
    return ef;
}

/** The churn runner's per-player loop: own and best per dense index. */
market::OwnBestUtilities
refOwnBest(const Models &models, const util::Matrix<double> &alloc)
{
    const size_t n = models.size();
    market::OwnBestUtilities out;
    for (size_t i = 0; i < n; ++i) {
        const double own = models[i]->utility(alloc[i]);
        double best = own;
        for (size_t j = 0; j < n; ++j) {
            if (j != i)
                best = std::max(best, models[i]->utility(alloc[j]));
        }
        out.own.push_back(own);
        out.best.push_back(best);
    }
    return out;
}

double
refLifetimeEnvyFreeness(const std::vector<double> &own,
                        const std::vector<double> &best_other)
{
    double ef = 1.0;
    for (size_t i = 0; i < own.size(); ++i) {
        if (best_other[i] <= 0.0)
            continue; // zero utility everywhere: nothing to envy
        ef = std::min(ef, own[i] / best_other[i]);
    }
    return ef;
}

/** Cases worth seeing at least once across a suite of comparisons. */
struct Coverage
{
    /** Players whose best is a zero while their own utility is < 0. */
    int zeroBestNegativeOwn = 0;
    int nanOwn = 0;
};

/**
 * Compare every scoring entry point on one allocation against the
 * ports, bit for bit.
 */
void
expectMatchesReference(const Models &models,
                       const util::Matrix<double> &alloc,
                       const std::string &context, Coverage &coverage)
{
    const market::OwnBestUtilities want = refOwnBest(models, alloc);
    const market::OwnBestUtilities got =
        market::ownAndBestUtilities(models, alloc);
    ASSERT_EQ(got.own.size(), want.own.size()) << context;
    ASSERT_EQ(got.best.size(), want.best.size()) << context;
    for (size_t i = 0; i < want.own.size(); ++i) {
        EXPECT_TRUE(sameBits(got.own[i], want.own[i]))
            << context << " own[" << i << "] " << got.own[i] << " vs "
            << want.own[i];
        EXPECT_TRUE(sameBits(got.best[i], want.best[i]))
            << context << " best[" << i << "] " << got.best[i] << " vs "
            << want.best[i];
        coverage.zeroBestNegativeOwn +=
            want.best[i] == 0.0 && want.own[i] < 0.0;
        coverage.nanOwn += std::isnan(want.own[i]);
    }
    const double eff = refEfficiency(models, alloc);
    const double ef = refEnvyFreeness(models, alloc);
    EXPECT_TRUE(sameBits(market::efficiency(models, alloc), eff)) << context;
    EXPECT_TRUE(sameBits(got.efficiency(), eff)) << context;
    EXPECT_TRUE(sameBits(market::envyFreeness(models, alloc), ef))
        << context;
    EXPECT_TRUE(sameBits(got.envyFreeness(), ef)) << context;
}

// --- Fixtures -------------------------------------------------------------

/**
 * Utility drawn from a palette by a hash of (salt, row bits): a pure
 * function of the row, as UtilityModel requires, that can return NaN,
 * infinities, negatives, either zero and repeated values.
 */
class PaletteUtility final : public market::UtilityModel
{
  public:
    PaletteUtility(size_t resources, std::vector<double> palette,
                   std::uint64_t salt)
        : resources_(resources), palette_(std::move(palette)), salt_(salt)
    {
    }
    size_t numResources() const override { return resources_; }
    double utility(std::span<const double> alloc) const override
    {
        std::uint64_t h = salt_;
        for (double x : alloc)
            h = util::mix64(h ^ std::bit_cast<std::uint64_t>(x));
        return palette_[h % palette_.size()];
    }

  private:
    size_t resources_;
    std::vector<double> palette_;
    std::uint64_t salt_;
};

const double kNan = std::numeric_limits<double>::quiet_NaN();
const double kInf = std::numeric_limits<double>::infinity();

const std::vector<std::vector<double>> kPalettes = {
    {kNan, -1.0, -0.0, 0.0, 0.25, 0.5, 0.5, 1.0}, // mixed
    {-2.0, -0.5, -0.0, 0.0},                      // max is a zero
    {-3.0, -1.0, -0.0},                           // max is -0 or < 0
    {0.0, -0.0},                                  // all zero
    {kNan},                                       // all NaN
    {0.125, 0.25, 1.0},                           // positive
    {-kInf, kInf, 1.0, kNan},                     // infinities
};

struct PaletteFixture
{
    std::vector<std::unique_ptr<PaletteUtility>> pool;
    Models models;
    util::Matrix<double> alloc;
};

/**
 * A random roster: up to 12 players over 1-3 resources drawing from a
 * shared pool of models and of rows, some rows copied with the sign of
 * every zero flipped; every fifth seed gives each player its own model
 * and its own random row instead.
 */
PaletteFixture
randomFixture(std::uint64_t seed)
{
    util::Rng rng(seed);
    PaletteFixture f;
    const size_t n = 1 + rng.uniformInt(12);
    const size_t m = 1 + rng.uniformInt(3);
    const bool unshared = seed % 5 == 0;
    const size_t k = unshared ? n : 1 + rng.uniformInt(n);
    for (size_t p = 0; p < k; ++p) {
        f.pool.push_back(std::make_unique<PaletteUtility>(
            m, kPalettes[rng.uniformInt(kPalettes.size())],
            rng.uniformInt(std::numeric_limits<std::uint64_t>::max())));
    }
    for (size_t i = 0; i < n; ++i)
        f.models.push_back(
            f.pool[unshared ? i : rng.uniformInt(k)].get());

    const std::vector<double> entries = {0.0, -0.0, 0.5, 1.0, 2.5};
    std::vector<std::vector<double>> row_pool(unshared
                                                  ? n
                                                  : 1 + rng.uniformInt(n));
    for (auto &row : row_pool) {
        for (size_t j = 0; j < m; ++j)
            row.push_back(unshared ? rng.uniform(0.0, 4.0)
                                   : entries[rng.uniformInt(
                                         entries.size())]);
    }
    std::vector<std::vector<double>> rows;
    for (size_t i = 0; i < n; ++i) {
        std::vector<double> row =
            row_pool[unshared ? i : rng.uniformInt(row_pool.size())];
        if (!unshared && rng.uniformInt(4) == 0) {
            for (double &x : row) {
                if (x == 0.0)
                    x = -x;
            }
        }
        rows.push_back(std::move(row));
    }
    f.alloc = util::Matrix<double>(rows);
    return f;
}

TEST(ScoreReference, BitIdenticalOnRandomFixtures)
{
    Coverage coverage;
    for (std::uint64_t seed = 1; seed <= 20000; ++seed) {
        const PaletteFixture f = randomFixture(seed);
        expectMatchesReference(f.models, f.alloc,
                               "seed " + std::to_string(seed), coverage);
        if (HasFailure())
            return; // one seed's diagnostics are enough
    }
    EXPECT_GT(coverage.zeroBestNegativeOwn, 0);
    EXPECT_GT(coverage.nanOwn, 0);
}

TEST(ScoreReference, BitIdenticalOnHandPickedFixtures)
{
    Coverage coverage;
    const PaletteUtility mixed(2, kPalettes[0], 7);
    const PaletteUtility nonpositive(2, kPalettes[1], 11);
    const PaletteUtility zeros(2, kPalettes[3], 13);
    const PaletteUtility nans(2, kPalettes[4], 17);
    const market::PowerLawUtility power({1.0, 0.5}, {0.5, 0.7},
                                        {10.0, 10.0});

    // n = 1: own is best.
    const util::Matrix<double> one_row = {{3.0, 4.0}};
    expectMatchesReference({&power}, one_row, "n=1 power", coverage);
    expectMatchesReference({&mixed}, one_row, "n=1 mixed", coverage);
    expectMatchesReference({&nans}, one_row, "n=1 NaN", coverage);

    // All-zero utilities: every player contributes 1.
    const Models all_zero = {&zeros, &zeros, &zeros};
    const util::Matrix<double> zero_alloc = {
        {0.0, 1.0}, {-0.0, 1.0}, {2.0, 0.0}};
    expectMatchesReference(all_zero, zero_alloc, "all zero", coverage);
    EXPECT_EQ(market::envyFreeness(all_zero, zero_alloc), 1.0);

    // Rows that differ only in the sign of a zero are distinct rows;
    // a model that sees them differently must keep them apart.
    for (std::uint64_t salt = 0; salt < 64; ++salt) {
        const PaletteUtility signs(2, kPalettes[1], salt);
        const util::Matrix<double> alloc = {
            {0.0, 1.0}, {-0.0, 1.0}, {0.0, -0.0}, {-0.0, 0.0}, {1.0, 1.0}};
        expectMatchesReference({&signs, &signs, &signs, &signs, &signs},
                               alloc, "zero signs " + std::to_string(salt),
                               coverage);
    }

    // Several pointers to one model mixed with distinct models, over
    // duplicated rows.
    const market::PowerLawUtility other({0.3, 1.0}, {0.9, 0.4},
                                        {10.0, 10.0});
    const util::Matrix<double> repeated_rows = {
        {1.0, 2.0}, {1.0, 2.0}, {4.0, 0.0}, {1.0, 2.0},
        {4.0, -0.0}, {0.0, 6.0}, {4.0, 0.0}};
    expectMatchesReference(
        {&power, &mixed, &power, &other, &nonpositive, &power, &mixed},
        repeated_rows, "mixed sharing", coverage);

    // A fully unshared roster: its own model and its own row each.
    std::vector<std::unique_ptr<market::PowerLawUtility>> own_models;
    Models unshared;
    std::vector<std::vector<double>> rows;
    util::Rng rng(2016);
    for (size_t i = 0; i < 40; ++i) {
        own_models.push_back(std::make_unique<market::PowerLawUtility>(
            std::vector<double>{rng.uniform(0.1, 1.0),
                                rng.uniform(0.1, 1.0)},
            std::vector<double>{rng.uniform(0.2, 1.0),
                                rng.uniform(0.2, 1.0)},
            std::vector<double>{10.0, 10.0}));
        unshared.push_back(own_models.back().get());
        rows.push_back({rng.uniform(0.0, 0.5), rng.uniform(0.0, 0.5)});
    }
    expectMatchesReference(unshared, util::Matrix<double>(rows), "unshared",
                           coverage);

    EXPECT_GT(coverage.zeroBestNegativeOwn, 0);
    EXPECT_GT(coverage.nanOwn, 0);
}

// --- Production paths -----------------------------------------------------

/** One allocate() call as the runner made it. */
struct RecordedCall
{
    Models models;
    std::vector<core::PlayerId> playerIds;
    core::AllocationOutcome outcome;
};

/**
 * Forwards to a mechanism and records every allocate() call.  Only for
 * single-threaded runners: the record is a mutable member.
 */
class RecordingAllocator final : public core::Allocator
{
  public:
    explicit RecordingAllocator(const core::Allocator &inner)
        : inner_(inner)
    {
    }
    const std::string &name() const override { return inner_.name(); }
    core::AllocationOutcome
    allocate(const core::AllocationProblem &problem) const override
    {
        core::AllocationOutcome out = inner_.allocate(problem);
        calls.push_back({problem.models, problem.playerIds, out});
        return out;
    }
    void onRosterChange(const core::RosterChange &change,
                        core::AllocationProblem &problem) const override
    {
        inner_.onRosterChange(change, problem);
    }

    mutable std::vector<RecordedCall> calls;

  private:
    const core::Allocator &inner_;
};

TEST(ScoreReference, BitIdenticalOnFig04Suite)
{
    // The full Figure 4 suite, scored by BundleRunner::evaluate exactly
    // as bench/fig04_efficiency_fairness scores it.
    const auto bundles = workloads::generateAllBundles(
        workloads::classifyCatalog(), 64, 40, 2016);
    ASSERT_EQ(bundles.size(), 240u);
    const core::EqualShareAllocator equal_share;
    const core::EqualBudgetAllocator equal_budget;
    const core::BalancedBudgetAllocator balanced;
    const auto rb20 = core::ReBudgetAllocator::withStep(20);
    const auto rb40 = core::ReBudgetAllocator::withStep(40);
    const core::MaxEfficiencyAllocator max_eff;
    std::vector<std::unique_ptr<RecordingAllocator>> recorders;
    std::vector<const core::Allocator *> mechanisms;
    for (const core::Allocator *m :
         std::vector<const core::Allocator *>{&equal_share, &equal_budget,
                                              &balanced, &rb20, &rb40,
                                              &max_eff}) {
        recorders.push_back(std::make_unique<RecordingAllocator>(*m));
        mechanisms.push_back(recorders.back().get());
    }
    const eval::BundleRunner runner(mechanisms);

    Coverage coverage;
    int scored = 0;
    for (const auto &bundle : bundles) {
        for (const auto &r : recorders)
            r->calls.clear();
        const eval::BundleEvaluation ev = runner.evaluate(bundle);
        ASSERT_FALSE(ev.skipped) << bundle.name << ": " << ev.skipReason;
        ASSERT_EQ(ev.scores.size(), recorders.size());
        for (size_t m = 0; m < recorders.size(); ++m) {
            const std::string ctx = bundle.name + " " + ev.scores[m].mechanism;
            ASSERT_EQ(recorders[m]->calls.size(), 1u) << ctx;
            const RecordedCall &call = recorders[m]->calls[0];
            ASSERT_TRUE(ev.scores[m].status.ok()) << ctx;
            const util::Matrix<double> &alloc = call.outcome.alloc;
            EXPECT_TRUE(sameBits(ev.scores[m].efficiency,
                                 refEfficiency(call.models, alloc)))
                << ctx;
            EXPECT_TRUE(sameBits(ev.scores[m].envyFreeness,
                                 refEnvyFreeness(call.models, alloc)))
                << ctx;
            expectMatchesReference(call.models, alloc, ctx, coverage);
            scored += 1;
        }
        if (HasFailure())
            return;
    }
    EXPECT_EQ(scored, 240 * 6);
}

TEST(ScoreReference, BitIdenticalOnChurnScenario)
{
    // A churn storm with a changing roster: per-epoch scores, per-tenant
    // lifetime sums and lifetime envy-freeness, recomputed from the
    // recorded epochs with the ported loops.
    const auto bundles = workloads::generateAllBundles(
        workloads::classifyCatalog(), 8, 1, 2016);
    ASSERT_FALSE(bundles.empty());
    eval::ChurnSpec spec;
    spec.epochs = 8;
    spec.joinRate = 0.3;
    spec.leaveRate = 0.3;
    spec.seed = 2016;

    const auto rb40 = core::ReBudgetAllocator::withStep(40);
    const core::KarmaAllocator karma;
    const RecordingAllocator rec_rb40(rb40);
    const RecordingAllocator rec_karma(karma);
    const std::vector<const RecordingAllocator *> recorders = {&rec_rb40,
                                                               &rec_karma};
    const eval::BundleRunner runner({&rec_rb40, &rec_karma});
    const eval::ChurnEvaluation ev =
        runner.evaluateChurn(bundles[0], spec);
    ASSERT_FALSE(ev.skipped) << ev.skipReason;
    ASSERT_EQ(ev.results.size(), recorders.size());

    std::uint32_t joins = 0, leaves = 0;
    for (size_t m = 0; m < recorders.size(); ++m) {
        const eval::MechanismChurnResult &res = ev.results[m];
        const std::vector<RecordedCall> &calls = recorders[m]->calls;
        ASSERT_EQ(calls.size(), spec.epochs) << res.mechanism;
        ASSERT_EQ(res.epochs.size(), spec.epochs) << res.mechanism;

        std::map<core::PlayerId, double> utility_sums, best_sums;
        for (size_t e = 0; e < calls.size(); ++e) {
            const std::string ctx =
                res.mechanism + " epoch " + std::to_string(e);
            const RecordedCall &call = calls[e];
            const eval::ChurnEpochRecord &rec = res.epochs[e];
            joins += rec.joins;
            leaves += rec.leaves;
            ASSERT_TRUE(call.outcome.status.ok()) << ctx;
            ASSERT_TRUE(rec.scored) << ctx;
            const util::Matrix<double> &alloc = call.outcome.alloc;
            EXPECT_TRUE(sameBits(rec.efficiency,
                                 refEfficiency(call.models, alloc)))
                << ctx;
            EXPECT_TRUE(sameBits(rec.envyFreeness,
                                 refEnvyFreeness(call.models, alloc)))
                << ctx;
            const market::OwnBestUtilities want =
                refOwnBest(call.models, alloc);
            ASSERT_EQ(call.playerIds.size(), want.own.size()) << ctx;
            for (size_t i = 0; i < want.own.size(); ++i) {
                utility_sums[call.playerIds[i]] += want.own[i];
                best_sums[call.playerIds[i]] += want.best[i];
            }
        }

        std::vector<double> own_sums, best_other_sums;
        for (const eval::TenantLifetime &t : res.tenants) {
            const std::string ctx =
                res.mechanism + " tenant " + std::to_string(t.id);
            EXPECT_TRUE(sameBits(t.utilitySum, utility_sums[t.id])) << ctx;
            EXPECT_TRUE(sameBits(t.bestOtherUtilitySum, best_sums[t.id]))
                << ctx;
            if (t.epochsPresent > 0) {
                own_sums.push_back(utility_sums[t.id]);
                best_other_sums.push_back(best_sums[t.id]);
            }
        }
        EXPECT_TRUE(sameBits(
            res.lifetimeEnvyFreeness,
            refLifetimeEnvyFreeness(own_sums, best_other_sums)))
            << res.mechanism;
    }
    // The scenario really churned.
    EXPECT_GT(joins, 0u);
    EXPECT_GT(leaves, 0u);
}

} // namespace
} // namespace rebudget
