/**
 * @file
 * Bit-identicality regression for the MaxEfficiency oracle.  The
 * production allocator keeps per-player marginals in a tournament tree
 * per resource, caches shifted utilities, reads catalog surfaces
 * inline, calls a utility model only after a row changes, and passes
 * over pairs whose exchange test must fail without side effects; a
 * verbatim port of the uncached climb lives below (greedy fill that
 * scans every player's marginal per quantum, exchange refinement that
 * applies each move, evaluates four utilities and reverts).  The
 * allocation and hillClimbSteps must match it bit for bit -- cold and
 * warm, at coarse and fine quanta -- on the full fig04 suite, on
 * fault-damaged fig04 models, on 100- and 256-player rosters, on
 * random power-law markets, on linear players whose pair tests sit at
 * the acceptance threshold, on a model with NaN and infinite regions,
 * and on players whose marginals meet every tie, NaN and <= -1 rule of
 * the fill's pick.
 *
 * The port also counts, per side, the rejected moves whose
 * apply-and-revert round trip did not restore a coordinate's bits, so
 * the production path's rebuild-on-reject branch and its exactness
 * checks are proven to run for donors and recipients alike.
 */

#include "rebudget/core/max_efficiency.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rebudget/core/baselines.h"
#include "rebudget/eval/bundle_runner.h"
#include "rebudget/faults/fault_injector.h"
#include "rebudget/faults/fault_plan.h"
#include "rebudget/util/rng.h"
#include "rebudget/workloads/bundles.h"

namespace rebudget::core {
namespace {

/** What reference climbs did, summed over a test's fixtures. */
struct ClimbCounts
{
    std::int64_t hillClimbSteps = 0;
    /** Donor coordinates a rejected move left with different bits. */
    std::int64_t donorInexact = 0;
    /** Recipient coordinates a rejected move left with different bits. */
    std::int64_t recipientInexact = 0;
    /** Utilities read by pair tests that were NaN, +inf or -inf. */
    std::int64_t nanUtilities = 0;
    std::int64_t posInfUtilities = 0;
    std::int64_t negInfUtilities = 0;

    ClimbCounts &
    operator+=(const ClimbCounts &o)
    {
        hillClimbSteps += o.hillClimbSteps;
        donorInexact += o.donorInexact;
        recipientInexact += o.recipientInexact;
        nanUtilities += o.nanUtilities;
        posInfUtilities += o.posInfUtilities;
        negInfUtilities += o.negInfUtilities;
        return *this;
    }
};

struct RefOutcome
{
    util::Matrix<double> alloc;
    ClimbCounts counts;
};

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
           std::bit_cast<std::uint64_t>(b);
}

/**
 * Verbatim port of the uncached oracle: greedy fill from zero (or the
 * given seed, whose validity the caller guarantees), then exchange
 * refinement.  Only the counters are new; they observe the utilities
 * and the reverted values without changing any arithmetic.
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

    auto utilityOf = [&](size_t i) {
        const double v = problem.models[i]->utility(alloc[i]);
        out.counts.nanUtilities += std::isnan(v);
        out.counts.posInfUtilities += v == kInf;
        out.counts.negInfUtilities += v == -kInf;
        return v;
    };
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
                    const double before = utilityOf(donor) + utilityOf(rcpt);
                    alloc(donor, j) -= q;
                    alloc(rcpt, j) += q;
                    const double after = utilityOf(donor) + utilityOf(rcpt);
                    if (after > before + 1e-12) {
                        improved = true;
                        ++out.counts.hillClimbSteps;
                    } else {
                        alloc(donor, j) += q; // revert
                        alloc(rcpt, j) -= q;
                        out.counts.donorInexact +=
                            !sameBits(alloc(donor, j), donor_x);
                        out.counts.recipientInexact +=
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
 * @return the reference's counters.
 */
ClimbCounts
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
    EXPECT_EQ(got.stats.hillClimbSteps, want.counts.hillClimbSteps)
        << context;
    EXPECT_EQ(got.alloc.rows(), want.alloc.rows()) << context;
    EXPECT_EQ(got.alloc.cols(), want.alloc.cols()) << context;
    if (got.alloc.rows() != want.alloc.rows() ||
        got.alloc.cols() != want.alloc.cols())
        return want.counts;
    size_t mismatches = 0;
    for (size_t i = 0; i < got.alloc.rows(); ++i) {
        for (size_t j = 0; j < got.alloc.cols(); ++j)
            mismatches += !sameBits(got.alloc(i, j), want.alloc(i, j));
    }
    EXPECT_EQ(mismatches, 0u) << context;
    return want.counts;
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
    ClimbCounts counts;
    util::Matrix<double> previous;
    for (const auto &bundle : bundles) {
        const eval::BundleProblem bp =
            eval::makeBundleProblem(bundle.appNames);
        counts += expectMatchesReference(bp.problem, config, nullptr,
                                         bundle.name + " cold");
        if (previous.rows() == bp.problem.models.size()) {
            const util::Matrix<double> seed =
                rescaledColumns(previous, bp.problem.capacities);
            counts += expectMatchesReference(bp.problem, config, &seed,
                                             bundle.name + " warm");
        }
        previous = MaxEfficiencyAllocator(config).allocate(bp.problem).alloc;
    }
    // The fill leaves sums of quanta, whose donor round trips are
    // exact; the random power-law markets below cover the donor side.
    EXPECT_GT(counts.recipientInexact, 0);
}

TEST(MaxEfficiencyReference, BitIdenticalOnFaultDamagedFig04Suite)
{
    // The fig04 suite on damaged models, as BundleRunner builds them
    // under these plans: NaN-holed, zeroed and scrambled grids
    // (non-concave and non-monotone utilities, sanitized), alone and
    // with liars, and liars whose utilities are 1000x the truth.
    const auto bundles = workloads::generateAllBundles(
        workloads::classifyCatalog(), 64, 40, 2016);
    ASSERT_EQ(bundles.size(), 240u);
    const MaxEfficiencyConfig config;
    for (const char *spec :
         {"corrupt-grid", "corrupt-grid,liar", "liar,liar-gain=1000"}) {
        const auto plan = faults::FaultPlan::parse(spec, 2016);
        ASSERT_TRUE(plan.ok()) << spec;
        const faults::FaultInjector injector(plan.value());
        faults::InjectionStats injected;
        for (const auto &bundle : bundles) {
            eval::BundleProblem bp = eval::makeBundleProblem(bundle.appNames);
            const std::uint64_t scope = util::hashId(bundle.name);
            std::vector<std::shared_ptr<const market::UtilityModel>> damaged;
            for (size_t i = 0; i < bp.models.size(); ++i) {
                damaged.push_back(injector.maybeLiar(
                    injector.perturbModel(bp.models[i], scope, i, injected),
                    scope, i, injected));
                bp.problem.models[i] = damaged.back().get();
            }
            expectMatchesReference(bp.problem, config, nullptr,
                                   bundle.name + " " + spec);
        }
        EXPECT_GT(injected.total(), 0) << spec;
    }
}

TEST(MaxEfficiencyReference, BitIdenticalOnLargerRosters)
{
    // fig04 bundles all have 64 players.  Each roster is solved cold,
    // then warm from another roster's optimum.
    const MaxEfficiencyConfig config;
    for (size_t players : {100, 256}) {
        const std::string ctx = std::to_string(players) + " players";
        const eval::BundleProblem bp =
            eval::makeSyntheticBundleProblem(players, 7);
        const eval::BundleProblem other =
            eval::makeSyntheticBundleProblem(players, 8);
        expectMatchesReference(bp.problem, config, nullptr, ctx + " cold");
        const util::Matrix<double> seed = rescaledColumns(
            MaxEfficiencyAllocator(config).allocate(other.problem).alloc,
            bp.problem.capacities);
        expectMatchesReference(bp.problem, config, &seed, ctx + " warm");
    }
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

/** A full allocation of non-dyadic random entries. */
util::Matrix<double>
randomSplit(const AllocationProblem &problem, uint64_t seed)
{
    util::Rng rng(seed);
    util::Matrix<double> alloc(problem.models.size(),
                               problem.capacities.size());
    for (auto row : alloc) {
        for (double &v : row)
            v = rng.uniform(0.1, 1);
    }
    return rescaledColumns(std::move(alloc), problem.capacities);
}

TEST(MaxEfficiencyReference, BitIdenticalOnRandomPowerLawMarkets)
{
    ClimbCounts counts;
    for (uint64_t seed = 1; seed <= 200; ++seed) {
        const PowerLawFixture f = powerLawFixture(seed);
        const std::string ctx = "seed " + std::to_string(seed);
        for (double fraction : {1.0 / 32.0, 1.0 / 512.0, 1.0 / 1024.0}) {
            MaxEfficiencyConfig config;
            config.quantumFraction = fraction;
            counts += expectMatchesReference(
                f.problem, config, nullptr,
                ctx + " q=" + std::to_string(fraction));
        }

        // Warm starts: from the coarse-quantum optimum (a near-optimal
        // prior), from the equal split (a far one) and from random
        // non-dyadic entries, whose donor round trips (x - q) + q are
        // often inexact where a fill's sums of quanta almost never are.
        MaxEfficiencyConfig coarse;
        coarse.quantumFraction = 1.0 / 32.0;
        const util::Matrix<double> coarse_opt =
            refAllocate(f.problem, coarse, nullptr).alloc;
        const util::Matrix<double> equal_split =
            EqualShareAllocator().allocate(f.problem).alloc;
        const util::Matrix<double> random_split =
            randomSplit(f.problem, seed);
        for (double fraction : {1.0 / 512.0, 1.0 / 1024.0}) {
            MaxEfficiencyConfig config;
            config.quantumFraction = fraction;
            counts += expectMatchesReference(
                f.problem, config, &coarse_opt, ctx + " warm coarse");
            counts += expectMatchesReference(
                f.problem, config, &equal_split, ctx + " warm equal");
        }
        for (double fraction : {1.0 / 8.0, 1.0 / 32.0}) {
            MaxEfficiencyConfig config;
            config.quantumFraction = fraction;
            counts += expectMatchesReference(
                f.problem, config, &random_split, ctx + " warm random");
        }

        // A capped refinement stops mid-climb on both paths alike.
        MaxEfficiencyConfig capped;
        capped.refinePasses = 1;
        counts += expectMatchesReference(f.problem, capped, nullptr,
                                         ctx + " one pass");
        capped.refinePasses = 0;
        expectMatchesReference(f.problem, capped, nullptr,
                               ctx + " no refinement");
    }
    EXPECT_GT(counts.donorInexact, 0);
    EXPECT_GT(counts.recipientInexact, 0);
}

/** u(x) = a + b x on one resource, so b sets gains and losses. */
class LinearUtility : public market::UtilityModel
{
  public:
    LinearUtility(double a, double b) : a_(a), b_(b) {}

    size_t numResources() const override { return 1; }
    double utility(std::span<const double> x) const override
    {
        return a_ + b_ * x[0];
    }
    double marginal(size_t, std::span<const double>) const override
    {
        return b_;
    }

  private:
    double a_;
    double b_;
};

TEST(MaxEfficiencyReference, BitIdenticalAtTheAcceptanceThreshold)
{
    // One-pass climbs of 2-4 linear players at utility offsets a, where
    // a recipient's gain minus a donor's loss sweeps 1e-12 +/- 64 ulps
    // of a: there the roundings of the exact test decide, so a pair the
    // production climb passes over without testing would show as a
    // different allocation or step count.  Most draws are dyadic (both
    // round trips exact, the case where pairs may be passed over).
    // Every fifth has a non-dyadic capacity and seed, whose round trips
    // are sometimes inexact on either side.
    MaxEfficiencyConfig config;
    config.quantumFraction = 1.0 / 32.0;
    config.refinePasses = 1;
    util::Rng rng(1812);
    ClimbCounts counts;
    for (double a : {1.0, 1e2, 1e3, 1e4}) {
        const double ulp = std::nextafter(a, kInf) - a;
        for (size_t n = 2; n <= 4; ++n) {
            for (int k = -64; k <= 64; ++k) {
                for (int draw = 0; draw < 10; ++draw) {
                    const bool dyadic = draw % 5 != 4;
                    AllocationProblem problem;
                    problem.capacities = {dyadic ? 1.0 : rng.uniform(0.5, 2)};
                    // gain - loss = (b_r - b_d) q with q = capacity / 32.
                    const double step =
                        (1e-12 + (k + rng.uniform(-0.5, 0.5)) * ulp) /
                        (problem.capacities[0] / 32.0);
                    const double base = rng.uniform(0.5, 2);
                    std::vector<LinearUtility> models;
                    util::Matrix<double> seed(n, 1);
                    std::vector<int> units(n, 8); // 8/256 = one quantum
                    for (int left = 256 - 8 * static_cast<int>(n); left > 0;
                         --left)
                        ++units[rng.uniformInt(static_cast<uint64_t>(n))];
                    for (size_t i = 0; i < n; ++i) {
                        const auto level =
                            static_cast<double>(rng.uniformInt(uint64_t{3}));
                        models.emplace_back(a, base + level * step);
                        seed(i, 0) = units[i] / 256.0;
                    }
                    for (const auto &model : models)
                        problem.models.push_back(&model);
                    if (!dyadic)
                        seed = rescaledColumns(seed, problem.capacities);
                    counts += expectMatchesReference(
                        problem, config, &seed,
                        "a=" + std::to_string(a) + " n=" + std::to_string(n) +
                            " k=" + std::to_string(k) +
                            " draw=" + std::to_string(draw));
                }
            }
        }
    }
    EXPECT_GT(counts.hillClimbSteps, 0);
    EXPECT_GT(counts.donorInexact, 0);
    EXPECT_GT(counts.recipientInexact, 0);
}

/**
 * Two-resource power law that is NaN, +inf or -inf on bands of its
 * domain, so gains, losses and whole pair tests go non-finite.
 */
class HoleyUtility : public market::UtilityModel
{
  public:
    HoleyUtility(double w0, double w1, double period)
        : w0_(w0), w1_(w1), period_(period)
    {
    }

    size_t numResources() const override { return 2; }
    double utility(std::span<const double> x) const override
    {
        const double phase = std::fmod(x[0] + 0.5 * x[1], period_) / period_;
        if (phase < 0.04)
            return std::numeric_limits<double>::quiet_NaN();
        if (phase < 0.07)
            return kInf;
        if (phase < 0.10)
            return -kInf;
        return w0_ * std::sqrt(x[0]) + w1_ * std::sqrt(x[1]);
    }

  private:
    double w0_;
    double w1_;
    double period_;
};

TEST(MaxEfficiencyReference, BitIdenticalWithNonFiniteUtilities)
{
    // A pair whose gain or loss is not finite must reach the exact test,
    // whatever its key or bound would say.
    ClimbCounts counts;
    for (uint64_t seed = 1; seed <= 40; ++seed) {
        util::Rng rng(seed);
        const size_t n = 2 + rng.uniformInt(uint64_t{7});
        AllocationProblem problem;
        problem.capacities = {rng.uniform(3, 50), rng.uniform(3, 50)};
        std::vector<HoleyUtility> models;
        for (size_t i = 0; i < n; ++i)
            models.emplace_back(rng.uniform(0.05, 1), rng.uniform(0.05, 1),
                                rng.uniform(0.5, 2) * problem.capacities[0] /
                                    static_cast<double>(n));
        for (const auto &model : models)
            problem.models.push_back(&model);
        const std::string ctx = "seed " + std::to_string(seed);
        const util::Matrix<double> equal_split =
            EqualShareAllocator().allocate(problem).alloc;
        const util::Matrix<double> random_split = randomSplit(problem, seed);
        for (double fraction : {1.0 / 32.0, 1.0 / 512.0}) {
            MaxEfficiencyConfig config;
            config.quantumFraction = fraction;
            counts += expectMatchesReference(problem, config, nullptr,
                                             ctx + " cold");
            counts += expectMatchesReference(problem, config, &equal_split,
                                             ctx + " warm equal");
            counts += expectMatchesReference(problem, config, &random_split,
                                             ctx + " warm random");
        }
    }
    EXPECT_GT(counts.nanUtilities, 0);
    EXPECT_GT(counts.posInfUtilities, 0);
    EXPECT_GT(counts.negInfUtilities, 0);
}

/**
 * u = sum_j (b_j x_j - c_j x_j^2 / 2), with marginal b_j - c_j x_j:
 * falling as the player's share grows from b_j, NaN when b_j is.
 */
class QuadraticUtility : public market::UtilityModel
{
  public:
    QuadraticUtility(std::vector<double> b, std::vector<double> c)
        : b_(std::move(b)), c_(std::move(c))
    {
    }

    size_t numResources() const override { return b_.size(); }
    double utility(std::span<const double> x) const override
    {
        double u = 0.0;
        for (size_t j = 0; j < b_.size(); ++j)
            u += b_[j] * x[j] - 0.5 * c_[j] * x[j] * x[j];
        return u;
    }
    double marginal(size_t j, std::span<const double> x) const override
    {
        return b_[j] - c_[j] * x[j];
    }

  private:
    std::vector<double> b_;
    std::vector<double> c_;
};

TEST(MaxEfficiencyReference, BitIdenticalFillPicks)
{
    // Cold climbs of 2-9 players on 1-2 resources whose marginals start
    // on, just above and below -1, at +/-0, +/-inf and NaN, and fall as
    // a share grows, so the fill's pick meets every rule of the scan it
    // replaced: the first strictly greater marginal wins a tie, NaN and
    // anything <= -1 never win, and player 0 takes the quantum once no
    // marginal is above -1.
    const double starts[] = {kNaN, -kInf, -2.0, -1.0,
                             std::nextafter(-1.0, 0.0), -0.5, -0.0, 0.0,
                             0.25, 1.0, kInf};
    const double slopes[] = {0.0, 0.5, 4.0};
    util::Rng rng(2101);
    for (int trial = 0; trial < 600; ++trial) {
        const size_t m = 1 + rng.uniformInt(uint64_t{2});
        const size_t n = 2 + rng.uniformInt(uint64_t{8});
        AllocationProblem problem;
        for (size_t j = 0; j < m; ++j)
            problem.capacities.push_back(rng.uniform(0.5, 2));
        std::vector<QuadraticUtility> models;
        for (size_t i = 0; i < n; ++i) {
            std::vector<double> b, c;
            for (size_t j = 0; j < m; ++j) {
                b.push_back(starts[rng.uniformInt(std::size(starts))]);
                c.push_back(slopes[rng.uniformInt(std::size(slopes))]);
            }
            models.emplace_back(std::move(b), std::move(c));
        }
        for (const auto &model : models)
            problem.models.push_back(&model);
        MaxEfficiencyConfig config;
        config.quantumFraction = 1.0 / 32.0;
        expectMatchesReference(problem, config, nullptr,
                               "trial " + std::to_string(trial));
        if (HasFailure())
            return;
    }
}

} // namespace
} // namespace rebudget::core
