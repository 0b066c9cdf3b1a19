#include "rebudget/core/max_efficiency.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "rebudget/util/logging.h"

namespace rebudget::core {

MaxEfficiencyAllocator::MaxEfficiencyAllocator(
    const MaxEfficiencyConfig &config)
    : config_(config)
{
    // Negated so that a NaN fraction fails the check too.
    if (!(config_.quantumFraction > 0.0 && config_.quantumFraction <= 1.0)) {
        configStatus_ = util::SolveStatus::error(
            util::StatusCode::InvalidArgument,
            "quantumFraction must be in (0, 1] (got %g)",
            config_.quantumFraction);
    }
}

namespace {

/**
 * @return true if `prior` carries an allocation usable as a hill-climb
 * starting point for this problem: matching shape, non-negative
 * entries, and columns summing to the capacities (the invariant the
 * exchange refinement preserves).  Both value checks are negated
 * comparisons, so a NaN anywhere in the seed rejects it.
 */
bool
usableWarmAlloc(const AllocationProblem &problem,
                const market::EquilibriumResult *prior)
{
    if (!problem.marketConfig.warmStart || prior == nullptr)
        return false;
    const size_t n = problem.models.size();
    const size_t m = problem.capacities.size();
    if (prior->alloc.rows() != n || prior->alloc.cols() != m)
        return false;
    for (auto row : prior->alloc) {
        for (double v : row) {
            if (!(v >= 0.0))
                return false;
        }
    }
    for (size_t j = 0; j < m; ++j) {
        double sum = 0.0;
        for (size_t i = 0; i < n; ++i)
            sum += prior->alloc(i, j);
        if (!(std::abs(sum - problem.capacities[j]) <=
              1e-6 * problem.capacities[j]))
            return false;
    }
    return true;
}

/**
 * Tournament tree over n keys: top() is the first index whose key is
 * greatest, the index a left-to-right scan that replaces its pick only
 * on a strictly greater key would return.  Each internal node holds the
 * winner of its two children, the left one unless the right key is
 * strictly greater, so set() re-plays one leaf's path to the root in
 * O(log n).  Keys must not be NaN.  Padding leaves hold -inf and lie
 * right of every real one, so a tie never puts one on top.
 */
class ArgmaxTree
{
  public:
    explicit ArgmaxTree(size_t n)
        : n_(n), leaves_(std::bit_ceil(std::max<size_t>(n, 1))),
          key_(2 * leaves_, -std::numeric_limits<double>::infinity()),
          win_(2 * leaves_)
    {
        for (size_t i = 0; i < leaves_; ++i)
            win_[leaves_ + i] = i;
        for (size_t k = leaves_; k-- > 1;)
            win_[k] = win_[2 * k];
    }

    void set(size_t i, double key)
    {
        size_t k = leaves_ + i;
        key_[k] = key;
        for (k /= 2; k > 0; k /= 2) {
            const size_t pick = key_[2 * k + 1] > key_[2 * k] ? 2 * k + 1
                                                              : 2 * k;
            key_[k] = key_[pick];
            win_[k] = win_[pick];
        }
    }

    size_t top() const { return win_[1]; }
    double topKey() const { return key_[1]; }
    /** The n keys in index order. */
    std::span<const double> keys() const
    {
        return {key_.data() + leaves_, n_};
    }

  private:
    size_t n_;
    size_t leaves_;
    std::vector<double> key_;
    std::vector<size_t> win_;
};

/**
 * Each player's bilinearSurface() when the market has two resources,
 * else null; a non-null surface is read inline in place of the
 * model's utility() and marginal(), which equal it bit for bit.
 */
std::vector<const market::BilinearSurface *>
playerSurfaces(const AllocationProblem &problem)
{
    std::vector<const market::BilinearSurface *> surfaces(
        problem.models.size(), nullptr);
    if (problem.capacities.size() == 2) {
        for (size_t i = 0; i < surfaces.size(); ++i)
            surfaces[i] = problem.models[i]->bilinearSurface();
    }
    return surfaces;
}

/**
 * Greedy fill: hand out quanta of each resource, interleaved, to the
 * player with the largest marginal utility at its current bundle
 * (first strictly greater wins ties).  Each resource's marginals sit in
 * an ArgmaxTree, and only the row that received a quantum is
 * re-evaluated; utility models are pure functions of (model, row), so
 * a cached entry is the double a fresh marginal() call would return.
 * The pick is the one a scan from best = -1 made: a marginal that is
 * NaN or <= -1 never wins, so it enters as -inf, and when none is above
 * -1 every key is -inf and the tie rule leaves player 0 on top.
 */
void
greedyFill(const AllocationProblem &problem,
           const std::vector<const market::BilinearSurface *> &surfaces,
           const std::vector<double> &quantum, util::Matrix<double> &alloc)
{
    const size_t n = problem.models.size();
    const size_t m = problem.capacities.size();
    alloc.assign(n, m, 0.0);
    std::vector<double> remaining = problem.capacities;

    std::vector<ArgmaxTree> trees(m, ArgmaxTree(n));
    auto enter = [&](size_t k, size_t i, double marginal) {
        trees[k].set(i, marginal > -1.0
                            ? marginal
                            : -std::numeric_limits<double>::infinity());
    };
    auto refresh = [&](size_t i) {
        if (const market::BilinearSurface *s = surfaces[i]) {
            double g0 = 0.0, g1 = 0.0;
            s->gradient(alloc(i, 0), alloc(i, 1), g0, g1);
            enter(0, i, g0);
            enter(1, i, g1);
            return;
        }
        for (size_t k = 0; k < m; ++k)
            enter(k, i, problem.models[i]->marginal(k, alloc[i]));
    };
    for (size_t i = 0; i < n; ++i)
        refresh(i);

    bool any = true;
    while (any) {
        any = false;
        for (size_t j = 0; j < m; ++j) {
            if (remaining[j] <= 1e-12 * problem.capacities[j])
                continue;
            const double q = std::min(quantum[j], remaining[j]);
            const size_t best = trees[j].top();
            alloc(best, j) += q;
            remaining[j] -= q;
            refresh(best);
            any = true;
        }
    }
}

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/**
 * @return the first r >= from with keys[r] > bound, else keys.size().
 * A function of its own: written inline in the refinement loop, the
 * scan kept its index on the stack and ran about 4x slower.
 */
size_t
firstAbove(std::span<const double> keys, size_t from, double bound)
{
    while (from < keys.size() && !(keys[from] > bound))
        ++from;
    return from;
}

/**
 * Exchange refinement: try moving one quantum between every ordered
 * player pair; accept any exchange that improves total utility.
 * Marginals are only local slopes, so the acceptance test compares
 * the actual utilities across the whole quantum.  The search stops at
 * an allocation no single-resource, one-quantum exchange improves;
 * that is the optimum up to the quantum only for separable utilities
 * (DESIGN §3.4).
 *
 * Each player keeps u(x_i), u(x_i - q_j e_j) and u(x_i + q_j e_j) for
 * every resource j, all evaluated at the bits now stored in row i; a
 * row is re-evaluated only after it changes.  A pair test therefore
 * sums the same doubles in the same order as evaluating the four
 * utilities afresh.  A rejected move still writes the round trip
 * (x - q) + q / (x + q) - q that applying and reverting it produces,
 * which is not always x: the allocation and hillClimbSteps must equal,
 * bit for bit, those of a climb that applies, evaluates and reverts
 * every move (tests/core/max_efficiency_reference_test.cpp keeps that
 * climb as the reference).  After an accepted move, a shifted row whose
 * bits are the row's bits before the move (the donor's x - q + q, the
 * recipient's x + q - q, when exact) takes the u the row had then.
 *
 * Most pairs fail the test and write nothing, so a donor passes over a
 * recipient with one compare when the test must fail and both round
 * trips are exact (DESIGN §3.4 derives the margin): key(j, r) is the
 * recipient's cached gain u(x_r + q_j e_j) - u(x_r), or +inf when that
 * gain is not finite or (x_rj + q_j) - q_j is not x_rj.  Each
 * resource's keys sit in an ArgmaxTree, so a donor with no key above
 * its bound is passed over in O(1).  Every pair reached is tested
 * exactly as above, in the same order.
 *
 * @return the number of accepted exchanges.
 */
std::int64_t
refineExchanges(const AllocationProblem &problem,
                const std::vector<const market::BilinearSurface *> &surfaces,
                const std::vector<double> &quantum, int passes,
                util::Matrix<double> &alloc)
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const size_t n = problem.models.size();
    const size_t m = problem.capacities.size();

    std::vector<double> u(n);
    // Resource-major: row j holds u(x_i -/+ q_j e_j) for every player.
    // A minus entry is only defined (and only read) while x_ij >= q_j.
    util::Matrix<double> minus(m, n, 0.0);
    util::Matrix<double> plus(m, n, 0.0);
    std::vector<ArgmaxTree> key(m, ArgmaxTree(n));
    // Largest |u| over the finite utilities evaluated so far.
    double umax = 0.0;
    auto utilityAt = [&](size_t i, std::span<const double> row) {
        const market::BilinearSurface *s = surfaces[i];
        const double v = s != nullptr ? s->utility(row[0], row[1])
                                      : problem.models[i]->utility(row);
        if (std::isfinite(v))
            umax = std::max(umax, std::abs(v));
        return v;
    };
    // Requires u[i] to be current for row i.  Row i held `was` at
    // resource `moved` and had utility `u_was` before its last move
    // (moved == m: no move).
    auto evalShifts = [&](size_t i, size_t moved, double was, double u_was) {
        const std::span<double> row = alloc[i];
        auto shifted = [&](size_t k) {
            return k == moved && sameBits(row[k], was) ? u_was
                                                       : utilityAt(i, row);
        };
        for (size_t k = 0; k < m; ++k) {
            const double x = row[k];
            row[k] = x + quantum[k];
            plus(k, i) = shifted(k);
            const double gain = plus(k, i) - u[i];
            key[k].set(i, std::isfinite(gain) &&
                                  sameBits(row[k] - quantum[k], x)
                              ? gain
                              : kInf);
            if (!(x < quantum[k])) {
                row[k] = x - quantum[k];
                minus(k, i) = shifted(k);
            }
            row[k] = x;
        }
    };
    auto evalRow = [&](size_t i) {
        u[i] = utilityAt(i, alloc[i]);
        evalShifts(i, m, 0.0, 0.0);
    };
    auto storeRoundTrip = [&](size_t i, size_t j, double v) {
        if (sameBits(v, alloc(i, j)))
            return;
        alloc(i, j) = v;
        evalRow(i);
    };
    for (size_t i = 0; i < n; ++i)
        evalRow(i);

    std::int64_t steps = 0;
    for (int pass = 0; pass < passes; ++pass) {
        bool improved = false;
        for (size_t j = 0; j < m; ++j) {
            const double q = quantum[j];
            const ArgmaxTree &tree = key[j];
            const std::span<const double> keys = tree.keys();
            // The donor tests a recipient only if its key exceeds this
            // bound: +inf while x_dj < q (no pair is tested), -inf when
            // the donor's round trip is inexact or its loss is not
            // finite (every pair is).
            auto donorBound = [&](size_t d) {
                const double x = alloc(d, j);
                if (x < q)
                    return kInf;
                const double loss = u[d] - minus(j, d);
                if (!sameBits((x - q) + q, x) || !std::isfinite(loss))
                    return -kInf;
                const double margin = 0x1p-48 * (2.0 * umax + 1e-12);
                return loss + 1e-12 - margin;
            };
            for (size_t donor = 0; donor < n; ++donor) {
                double bound = donorBound(donor);
                if (!(tree.topKey() > bound))
                    continue;
                for (size_t rcpt = firstAbove(keys, 0, bound); rcpt < n;
                     rcpt = firstAbove(keys, rcpt + 1, bound)) {
                    if (rcpt == donor)
                        continue;
                    const double after = minus(j, donor) + plus(j, rcpt);
                    const double before = u[donor] + u[rcpt];
                    if (after > before + 1e-12) {
                        // The moved rows are exactly the ones the
                        // shifted entries were evaluated at.
                        const double donor_was = alloc(donor, j);
                        const double rcpt_was = alloc(rcpt, j);
                        const double u_donor_was = u[donor];
                        const double u_rcpt_was = u[rcpt];
                        u[donor] = minus(j, donor);
                        u[rcpt] = plus(j, rcpt);
                        alloc(donor, j) -= q;
                        alloc(rcpt, j) += q;
                        evalShifts(donor, j, donor_was, u_donor_was);
                        evalShifts(rcpt, j, rcpt_was, u_rcpt_was);
                        improved = true;
                        ++steps;
                    } else {
                        storeRoundTrip(donor, j, (alloc(donor, j) - q) + q);
                        storeRoundTrip(rcpt, j, (alloc(rcpt, j) + q) - q);
                    }
                    bound = donorBound(donor);
                }
            }
        }
        if (!improved)
            break;
    }
    return steps;
}

} // namespace

AllocationOutcome
MaxEfficiencyAllocator::allocate(const AllocationProblem &problem) const
{
    const double t0 = util::monotonicSeconds();
    AllocationOutcome outcome;
    outcome.mechanism = name();
    if (!configStatus_.ok()) {
        outcome.status = configStatus_;
        outcome.converged = false;
        outcome.stats.allocateSeconds = util::monotonicSeconds() - t0;
        return outcome;
    }
    if (util::SolveStatus st = validateProblemStatus(problem); !st.ok()) {
        outcome.status = std::move(st);
        outcome.converged = false;
        outcome.stats.allocateSeconds = util::monotonicSeconds() - t0;
        return outcome;
    }
    const size_t m = problem.capacities.size();
    auto &alloc = outcome.alloc;

    std::vector<double> quantum(m);
    for (size_t j = 0; j < m; ++j)
        quantum[j] = problem.capacities[j] * config_.quantumFraction;
    const std::vector<const market::BilinearSurface *> surfaces =
        playerSurfaces(problem);

    if (usableWarmAlloc(problem, problem.warmStart)) {
        // Warm start: resume from the prior allocation (the previous
        // epoch's optimum is a near-optimal point when utilities drift
        // slowly) and let the exchange refinement move what changed.
        // For separable utilities (PowerLawUtility) exchange-local
        // optimality is quantum-optimal from any full allocation, so
        // skipping the fill loses nothing.  On the catalog's bilinear
        // surfaces it is not: a warm and a cold climb can stop at
        // different local optima (ROADMAP, "Figure 4 divides by a
        // local optimum").
        alloc = problem.warmStart->alloc;
    } else {
        greedyFill(problem, surfaces, quantum, alloc);
    }
    outcome.stats.hillClimbSteps += refineExchanges(
        problem, surfaces, quantum, config_.refinePasses, alloc);

    // Allocation-only warm-start seed (bids empty: the oracle never runs
    // a market); the next epoch resumes refinement from here.
    auto seed = std::make_shared<market::EquilibriumResult>();
    seed->alloc = alloc;
    outcome.equilibrium = std::move(seed);
    outcome.stats.allocateSeconds = util::monotonicSeconds() - t0;
    return outcome;
}

} // namespace rebudget::core
