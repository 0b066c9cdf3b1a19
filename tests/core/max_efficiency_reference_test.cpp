/**
 * @file
 * Bit-identicality regression for the MaxEfficiency oracle.  The
 * production allocator caches per-player marginals and shifted
 * utilities and calls a utility model only after a row changes; a
 * verbatim port of the uncached climb lives below (greedy fill that
 * evaluates every player's marginal per quantum, exchange refinement
 * that applies each move, evaluates four utilities and reverts).  The
 * allocation and hillClimbSteps must match it bit for bit -- cold and
 * warm, at coarse and fine quanta -- on the full fig04 suite and on
 * random power-law markets.
 *
 * The port also counts the rejected moves whose apply-and-revert round
 * trip did not restore a coordinate's bits, so the production path's
 * rebuild-on-reject branch is proven to run.
 */

#include "rebudget/core/max_efficiency.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rebudget/core/baselines.h"
#include "rebudget/eval/bundle_runner.h"
#include "rebudget/util/rng.h"
#include "rebudget/workloads/bundles.h"

namespace rebudget::core {
namespace {

struct RefOutcome
{
    util::Matrix<double> alloc;
    std::int64_t hillClimbSteps = 0;
    /** Coordinates a rejected move left with different bits. */
    std::int64_t inexactRoundTrips = 0;
};

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
           std::bit_cast<std::uint64_t>(b);
}

/**
 * Verbatim port of the uncached oracle: greedy fill from zero (or the
 * given seed, whose validity the caller guarantees), then exchange
 * refinement.  Only the round-trip counter is new; it observes the
 * reverted values without changing any arithmetic.
 */
RefOutcome
refAllocate(const AllocationProblem &problem,
            const MaxEfficiencyConfig &config,
            const util::Matrix<double> *seed)
{
    const size_t n = problem.models.size();
    const size_t m = problem.capacities.size();
    RefOutcome out;
    auto &alloc = out.alloc;

    std::vector<double> quantum(m);
    for (size_t j = 0; j < m; ++j)
        quantum[j] = problem.capacities[j] * config.quantumFraction;

    if (seed != nullptr) {
        alloc = *seed;
    } else {
        alloc.assign(n, m, 0.0);
        std::vector<double> remaining = problem.capacities;

        auto best_marginal_player = [&](size_t j) {
            size_t best = 0;
            double best_m = -1.0;
            for (size_t i = 0; i < n; ++i) {
                const double mg = problem.models[i]->marginal(j, alloc[i]);
                if (mg > best_m) {
                    best_m = mg;
                    best = i;
                }
            }
            return best;
        };

        bool any = true;
        while (any) {
            any = false;
            for (size_t j = 0; j < m; ++j) {
                if (remaining[j] <= 1e-12 * problem.capacities[j])
                    continue;
                const double q = std::min(quantum[j], remaining[j]);
                const size_t i = best_marginal_player(j);
                alloc(i, j) += q;
                remaining[j] -= q;
                any = true;
            }
        }
    }

    for (int pass = 0; pass < config.refinePasses; ++pass) {
        bool improved = false;
        for (size_t j = 0; j < m; ++j) {
            const double q = quantum[j];
            for (size_t donor = 0; donor < n; ++donor) {
                for (size_t rcpt = 0; rcpt < n; ++rcpt) {
                    if (rcpt == donor || alloc(donor, j) < q)
                        continue;
                    const double donor_x = alloc(donor, j);
                    const double rcpt_x = alloc(rcpt, j);
                    const double before =
                        problem.models[donor]->utility(alloc[donor]) +
                        problem.models[rcpt]->utility(alloc[rcpt]);
                    alloc(donor, j) -= q;
                    alloc(rcpt, j) += q;
                    const double after =
                        problem.models[donor]->utility(alloc[donor]) +
                        problem.models[rcpt]->utility(alloc[rcpt]);
                    if (after > before + 1e-12) {
                        improved = true;
                        ++out.hillClimbSteps;
                    } else {
                        alloc(donor, j) += q; // revert
                        alloc(rcpt, j) -= q;
                        out.inexactRoundTrips +=
                            !sameBits(alloc(donor, j), donor_x);
                        out.inexactRoundTrips +=
                            !sameBits(alloc(rcpt, j), rcpt_x);
                    }
                }
            }
        }
        if (!improved)
            break;
    }
    return out;
}

/**
 * Run both climbs on `problem` (warm from `seed` when non-null) and
 * require identical bits and step counts.
 * @return the reference's inexact round-trip count.
 */
std::int64_t
expectMatchesReference(AllocationProblem problem,
                       const MaxEfficiencyConfig &config,
                       const util::Matrix<double> *seed,
                       const std::string &context)
{
    market::EquilibriumResult prior;
    if (seed != nullptr) {
        // The oracle only resumes from a seed whose columns sum to the
        // capacities; anything else would silently compare a cold
        // climb against a warm one.
        for (size_t j = 0; j < problem.capacities.size(); ++j) {
            double sum = 0.0;
            for (size_t i = 0; i < seed->rows(); ++i)
                sum += (*seed)(i, j);
            EXPECT_NEAR(sum, problem.capacities[j],
                        1e-7 * problem.capacities[j])
                << context;
        }
        prior.alloc = *seed;
        problem.warmStart = &prior;
    }
    const AllocationOutcome got =
        MaxEfficiencyAllocator(config).allocate(problem);
    const RefOutcome want = refAllocate(problem, config, seed);
    EXPECT_TRUE(got.status.ok()) << context;
    EXPECT_EQ(got.stats.hillClimbSteps, want.hillClimbSteps) << context;
    EXPECT_EQ(got.alloc.rows(), want.alloc.rows()) << context;
    EXPECT_EQ(got.alloc.cols(), want.alloc.cols()) << context;
    if (got.alloc.rows() != want.alloc.rows() ||
        got.alloc.cols() != want.alloc.cols())
        return want.inexactRoundTrips;
    size_t mismatches = 0;
    for (size_t i = 0; i < got.alloc.rows(); ++i) {
        for (size_t j = 0; j < got.alloc.cols(); ++j)
            mismatches += !sameBits(got.alloc(i, j), want.alloc(i, j));
    }
    EXPECT_EQ(mismatches, 0u) << context;
    return want.inexactRoundTrips;
}

/** `alloc` with each column scaled to sum to `capacities`. */
util::Matrix<double>
rescaledColumns(util::Matrix<double> alloc,
                const std::vector<double> &capacities)
{
    for (size_t j = 0; j < alloc.cols(); ++j) {
        double sum = 0.0;
        for (size_t i = 0; i < alloc.rows(); ++i)
            sum += alloc(i, j);
        for (size_t i = 0; i < alloc.rows(); ++i)
            alloc(i, j) *= capacities[j] / sum;
    }
    return alloc;
}

TEST(MaxEfficiencyReference, BitIdenticalOnFig04Suite)
{
    // The full Figure 4 suite: 240 bundles of 64 players.  Each bundle
    // is solved cold, then warm from the previous bundle's oracle
    // allocation rescaled to this bundle's capacities (different
    // utilities, a full allocation: the shape of an epoch-to-epoch
    // warm start).
    const auto bundles = workloads::generateAllBundles(
        workloads::classifyCatalog(), 64, 40, 2016);
    ASSERT_EQ(bundles.size(), 240u);
    const MaxEfficiencyConfig config;
    std::int64_t round_trips = 0;
    util::Matrix<double> previous;
    for (const auto &bundle : bundles) {
        const eval::BundleProblem bp =
            eval::makeBundleProblem(bundle.appNames);
        round_trips += expectMatchesReference(bp.problem, config, nullptr,
                                              bundle.name + " cold");
        if (previous.rows() == bp.problem.models.size()) {
            const util::Matrix<double> seed =
                rescaledColumns(previous, bp.problem.capacities);
            round_trips += expectMatchesReference(
                bp.problem, config, &seed, bundle.name + " warm");
        }
        previous = MaxEfficiencyAllocator(config).allocate(bp.problem).alloc;
    }
    EXPECT_GT(round_trips, 0);
}

TEST(MaxEfficiencyReference, BitIdenticalAtCoarseAndFineQuanta)
{
    // A slice of the fig04 suite at the 1/32 and 1/1024 quanta.
    const auto bundles = workloads::generateAllBundles(
        workloads::classifyCatalog(), 64, 2, 2016);
    ASSERT_FALSE(bundles.empty());
    for (double fraction : {1.0 / 32.0, 1.0 / 1024.0}) {
        MaxEfficiencyConfig config;
        config.quantumFraction = fraction;
        for (const auto &bundle : bundles) {
            const eval::BundleProblem bp =
                eval::makeBundleProblem(bundle.appNames);
            expectMatchesReference(bp.problem, config, nullptr,
                                   bundle.name + " q=" +
                                       std::to_string(fraction));
        }
    }
}

struct PowerLawFixture
{
    std::vector<std::unique_ptr<market::PowerLawUtility>> models;
    AllocationProblem problem;
};

/** Random 2-3 resource market with non-dyadic capacities. */
PowerLawFixture
powerLawFixture(uint64_t seed)
{
    util::Rng rng(seed);
    PowerLawFixture f;
    const size_t m = 2 + rng.uniformInt(2);
    const size_t n = 2 + rng.uniformInt(11);
    for (size_t j = 0; j < m; ++j)
        f.problem.capacities.push_back(rng.uniform(3, 50));
    for (size_t i = 0; i < n; ++i) {
        std::vector<double> weights, exponents;
        for (size_t j = 0; j < m; ++j) {
            weights.push_back(rng.uniform(0.05, 1));
            exponents.push_back(rng.uniform(0.2, 1));
        }
        f.models.push_back(std::make_unique<market::PowerLawUtility>(
            std::move(weights), std::move(exponents),
            f.problem.capacities));
        f.problem.models.push_back(f.models.back().get());
    }
    return f;
}

TEST(MaxEfficiencyReference, BitIdenticalOnRandomPowerLawMarkets)
{
    std::int64_t round_trips = 0;
    for (uint64_t seed = 1; seed <= 200; ++seed) {
        const PowerLawFixture f = powerLawFixture(seed);
        const std::string ctx = "seed " + std::to_string(seed);
        for (double fraction : {1.0 / 32.0, 1.0 / 512.0, 1.0 / 1024.0}) {
            MaxEfficiencyConfig config;
            config.quantumFraction = fraction;
            round_trips += expectMatchesReference(
                f.problem, config, nullptr,
                ctx + " q=" + std::to_string(fraction));
        }

        // Warm starts: from the coarse-quantum optimum (a near-optimal
        // prior) and from the equal split (a far one).
        MaxEfficiencyConfig coarse;
        coarse.quantumFraction = 1.0 / 32.0;
        const util::Matrix<double> coarse_opt =
            refAllocate(f.problem, coarse, nullptr).alloc;
        const util::Matrix<double> equal_split =
            EqualShareAllocator().allocate(f.problem).alloc;
        for (double fraction : {1.0 / 512.0, 1.0 / 1024.0}) {
            MaxEfficiencyConfig config;
            config.quantumFraction = fraction;
            round_trips += expectMatchesReference(
                f.problem, config, &coarse_opt, ctx + " warm coarse");
            round_trips += expectMatchesReference(
                f.problem, config, &equal_split, ctx + " warm equal");
        }

        // A capped refinement stops mid-climb on both paths alike.
        MaxEfficiencyConfig capped;
        capped.refinePasses = 1;
        round_trips += expectMatchesReference(f.problem, capped, nullptr,
                                              ctx + " one pass");
        capped.refinePasses = 0;
        expectMatchesReference(f.problem, capped, nullptr,
                               ctx + " no refinement");
    }
    EXPECT_GT(round_trips, 0);
}

} // namespace
} // namespace rebudget::core
