#include "rebudget/market/market.h"

#include <algorithm>
#include <cmath>

#include "rebudget/market/best_response_kernel.h"

#include "rebudget/util/logging.h"
#include "rebudget/util/simd.h"
#include "rebudget/util/solver_stats.h"

namespace rebudget::market {

namespace {

using util::Matrix;
using util::SolveStatus;
using util::StatusCode;

/** Validate a market setup; Ok when every solve precondition holds. */
SolveStatus
validateSetup(const std::vector<const UtilityModel *> &models,
              const std::vector<double> &capacities,
              const MarketConfig &config)
{
    if (models.empty()) {
        return SolveStatus::error(StatusCode::InvalidArgument,
                                  "market requires at least one player");
    }
    if (capacities.empty()) {
        return SolveStatus::error(StatusCode::InvalidArgument,
                                  "market requires at least one resource");
    }
    for (const auto *m : models) {
        if (m == nullptr) {
            return SolveStatus::error(StatusCode::InvalidArgument,
                                      "market has a null utility model");
        }
        if (m->numResources() != capacities.size()) {
            return SolveStatus::error(
                StatusCode::InvalidArgument,
                "utility model arity %zu != resource count %zu",
                m->numResources(), capacities.size());
        }
    }
    for (double c : capacities) {
        // isfinite() also rejects NaN, which `c <= 0.0` lets through.
        if (!std::isfinite(c) || c <= 0.0) {
            return SolveStatus::error(
                StatusCode::InvalidArgument,
                "resource capacities must be finite and positive (got %g)",
                c);
        }
    }
    if (config.maxIterations <= 0) {
        return SolveStatus::error(StatusCode::InvalidArgument,
                                  "market maxIterations must be positive");
    }
    // Tolerances are compared, never divided by, so 0 is legal (an
    // exact fixed point); a NaN would make every comparison false.
    const struct
    {
        const char *name;
        double value;
    } tolerances[] = {
        {"priceTol", config.priceTol},
        {"bid.lambdaTol", config.bid.lambdaTol},
        {"bid.minShiftFraction", config.bid.minShiftFraction},
    };
    for (const auto &t : tolerances) {
        if (!(std::isfinite(t.value) && t.value >= 0.0)) {
            return SolveStatus::error(
                StatusCode::InvalidArgument,
                "market %s must be finite and non-negative (got %g)",
                t.name, t.value);
        }
    }
    if (config.bid.maxSteps < 0) {
        return SolveStatus::error(StatusCode::InvalidArgument,
                                  "market bid.maxSteps must be >= 0");
    }
    if (!(config.bestResponseDamping > 0.0 &&
          config.bestResponseDamping <= 1.0)) {
        return SolveStatus::error(
            StatusCode::InvalidArgument,
            "market bestResponseDamping must be in (0, 1] (got %g)",
            config.bestResponseDamping);
    }
    return SolveStatus();
}

/**
 * Clamp FP-noise negative budgets to zero in place; a genuinely
 * negative budget (beyond noise tolerance) or a non-finite one is an
 * error.
 */
SolveStatus
sanitizeBudgets(std::vector<double> &budgets)
{
    double scale = 1.0;
    for (double b : budgets) {
        if (!std::isfinite(b)) {
            return SolveStatus::error(StatusCode::InvalidArgument,
                                      "budgets must be finite (got %g)", b);
        }
        scale = std::max(scale, std::abs(b));
    }
    const double tol = 1e-9 * scale;
    for (double &b : budgets) {
        if (b < 0.0) {
            if (b < -tol) {
                return SolveStatus::error(
                    StatusCode::InvalidArgument,
                    "budgets must be non-negative (got %g)", b);
            }
            b = 0.0;
        }
    }
    return SolveStatus();
}

/**
 * Per-resource bid column sums, accumulated per column in ascending
 * player order -- the solver's canonical summation order.  The
 * incremental engine reproduces these sums up to FP drift; prices
 * published in results always come from this full recompute so they are
 * independent of the solve's shift history.  Dispatched through the
 * SIMD shim, whose tiers preserve the canonical order exactly (see
 * util/simd.h), so the vectorized path stays bit-identical to the
 * scalar one.
 */
void
computeColumnSumsInto(const Matrix<double> &bids, std::vector<double> &out)
{
    out.resize(bids.cols());
    util::simd::columnSums(bids.data(), bids.rows(), bids.cols(),
                           out.data());
}

/** computePrices into a reusable buffer (no per-iteration allocation). */
void
computePricesInto(const Matrix<double> &bids,
                  const std::vector<double> &capacities,
                  std::vector<double> &out)
{
    computeColumnSumsInto(bids, out);
    for (size_t j = 0; j < capacities.size(); ++j)
        out[j] /= capacities[j];
}

/** proportionalAllocation against known prices, into a reused matrix.
 * Elementwise, so the SIMD tiers are exact (see util/simd.h). */
void
allocationFromPricesInto(const Matrix<double> &bids,
                         const std::vector<double> &prices,
                         Matrix<double> &alloc)
{
    alloc.resize(bids.rows(), bids.cols());
    util::simd::allocationFromPrices(bids.data(), bids.rows(),
                                     bids.cols(), prices.data(),
                                     alloc.data());
}

/**
 * Reset every field of a possibly-reused result to its freshly
 * constructed state without releasing buffer capacity.
 */
void
resetResult(EquilibriumResult &result)
{
    result.status = SolveStatus();
    result.prices.clear();
    result.lambdas.clear();
    result.budgets.clear();
    result.iterations = 0;
    result.converged = false;
    result.warmStarted = false;
    result.approximated = false;
    result.hillClimbSteps = 0;
    result.solveSeconds = 0.0;
    result.priceHistory.clear();
}

/**
 * validatePriceSums cross-check: the incrementally maintained column
 * sums must match a from-scratch recompute within FP drift.
 */
void
crossCheckColumnSums(const Matrix<double> &bids,
                     const std::vector<double> &incremental,
                     std::vector<double> &scratch)
{
    computeColumnSumsInto(bids, scratch);
    for (size_t j = 0; j < incremental.size(); ++j) {
        const double ref = scratch[j];
        const double tol = 1e-9 * std::max(1.0, std::abs(ref));
        REBUDGET_ASSERT(std::abs(incremental[j] - ref) <= tol,
                        "incremental price sums drifted from recompute");
    }
}

} // namespace

ProportionalMarket::ProportionalMarket(
    std::vector<const UtilityModel *> models, std::vector<double> capacities,
    const MarketConfig &config)
    : models_(std::move(models)), capacities_(std::move(capacities)),
      config_(config), status_(validateSetup(models_, capacities_, config_))
{
    if (status_.ok()) {
        hotQuads_.reserve(models_.size());
        surfaces_.reserve(models_.size());
        for (const UtilityModel *model : models_) {
            hotQuads_.push_back(model->hotQuads());
            surfaces_.push_back(model->bilinearSurface());
        }
    }
}

EquilibriumResult
ProportionalMarket::findEquilibrium(const std::vector<double> &budgets) const
{
    return findEquilibrium(budgets, nullptr);
}

EquilibriumResult
ProportionalMarket::findEquilibrium(const std::vector<double> &budgets,
                                    const EquilibriumResult *prior) const
{
    SolveWorkspace ws;
    EquilibriumResult result;
    findEquilibriumInto(budgets, prior, ws, result);
    return result;
}

void
ProportionalMarket::findEquilibriumInto(const std::vector<double> &budgets,
                                        const EquilibriumResult *prior,
                                        SolveWorkspace &ws,
                                        EquilibriumResult &result) const
{
    REBUDGET_ASSERT(&result != prior,
                    "findEquilibriumInto: result must not alias prior "
                    "(ping-pong two result slots)");
    const double t0 = util::monotonicSeconds();
    const size_t n = models_.size();
    const size_t m = capacities_.size();
    resetResult(result);
    result.budgets.assign(budgets.begin(), budgets.end());
    if (!status_.ok()) {
        result.status = status_;
        return;
    }
    if (budgets.size() != n) {
        result.status = SolveStatus::error(StatusCode::InvalidArgument,
                                           "expected %zu budgets, got %zu",
                                           n, budgets.size());
        return;
    }
    if (SolveStatus st = sanitizeBudgets(result.budgets); !st.ok()) {
        result.status = st;
        return;
    }

    // A warm hint is usable only when enabled and shape-compatible; an
    // incompatible prior (different machine) degrades to a cold start.
    const bool warm = config_.warmStart && prior != nullptr &&
                      prior->bids.rows() == n && prior->bids.cols() == m &&
                      prior->budgets.size() == n;

    const std::vector<double> &b = result.budgets;
    result.warmStarted = warm;
    result.lambdas.assign(n, 0.0);
    // resize, not assign: the seeding loop below writes every entry of
    // every row (warm-scaled prior or equal split), so a zero-fill
    // would be n*m dead stores per solve.
    result.bids.resize(n, m);
    for (size_t i = 0; i < n; ++i) {
        double *bids_i = result.bids.row(i);
        // Warm start: seed from the player's prior bids scaled by its
        // budget ratio, renormalized so the row sums exactly to B_i.
        // Cold start (and players without a usable prior row): equal
        // split (step 1 of the bidding strategy).
        bool seeded = false;
        if (warm && prior->budgets[i] > 0.0) {
            const double *prior_i = prior->bids.row(i);
            double sum = 0.0;
            for (size_t j = 0; j < m; ++j)
                sum += prior_i[j];
            if (sum > 0.0) {
                const double scale = b[i] / sum;
                for (size_t j = 0; j < m; ++j)
                    bids_i[j] = prior_i[j] * scale;
                seeded = true;
            }
        }
        if (!seeded) {
            for (size_t j = 0; j < m; ++j)
                bids_i[j] = b[i] / static_cast<double>(m);
        }
    }

    // Column sums are the price engine: maintained incrementally on bid
    // deltas below, recomputed from scratch only at entry, at exit (the
    // published prices) and under validatePriceSums.
    computeColumnSumsInto(result.bids, ws.colSums);
    ws.prices.resize(m);
    for (size_t j = 0; j < m; ++j)
        ws.prices[j] = ws.colSums[j] / capacities_[j];

    ws.others.resize(m);
    ws.newPrices.resize(m);
    ws.nextSums.resize(m);
    for (int iter = 0; iter < config_.maxIterations; ++iter) {
        ++result.iterations;
        if (config_.bestResponse) {
            // Block-Jacobi sweep: the players are processed in 16
            // sequential blocks; within a block every player replies
            // to the SAME block-start column sums, and the sums
            // advance once per block.  Freezing the sums inside a
            // block breaks the Gauss-Seidel dependency chain that
            // threads one player's published bid into the next
            // player's competing bids -- each reply (a divide, a
            // gradient, two sqrts, another divide: >= 100 cycles of
            // pure latency) becomes independent of its in-block
            // neighbors, so the out-of-order window overlaps several
            // players instead of serializing the whole sweep.  The 16
            // sequential block updates keep the damped dynamics
            // stable at every size (fully simultaneous replies --
            // one block -- oscillate even at damping 0.15 for some
            // rosters; 16 blocks converges like plain Gauss-Seidel
            // from 8 to 100k players while recovering the in-block
            // parallelism the --scaling acceptance numbers in
            // BENCH_market.json rest on).
            const size_t kBlocks = 16;
            const size_t block = (n + kBlocks - 1) / kBlocks;
            const double damping = config_.bestResponseDamping;
            if (m == 2) {
                // Two-resource specialization (every CMP market):
                // the inline pair reply skips the function call and
                // BidResult marshalling per player, and the frozen
                // block-start sums live in registers.
                const double c0 = capacities_[0], c1 = capacities_[1];
                // The fused SIMD kernel replies for two players per
                // call (one 4-lane pow instead of two 2-lane ones);
                // it shares util/simd.h's runtime toggle so tests and
                // the scaling bench can drive the scalar reply from
                // the same binary.
                const bool duo = bestResponseDuoAvailable() &&
                                 util::simd::enabled();
                const auto scalarReply = [&](size_t i, double o0,
                                             double o1, double &a0,
                                             double &a1) {
                    double *bids_i = result.bids.row(i);
                    if (b[i] > 0.0) [[likely]] {
                        const BestResponsePairReply r =
                            bestResponsePair(*models_[i], b[i],
                                             bids_i[0], bids_i[1], o0,
                                             o1, c0, c1, damping);
                        a0 += r.b0 - bids_i[0];
                        a1 += r.b1 - bids_i[1];
                        bids_i[0] = r.b0;
                        bids_i[1] = r.b1;
                        result.lambdas[i] = r.lambda;
                        result.hillClimbSteps += r.steps;
                    } else {
                        // Degenerate budgets keep the general
                        // entry's validation semantics.
                        ws.others[0] = o0;
                        ws.others[1] = o1;
                        bestResponseBidsInto(*models_[i], b[i],
                                             ws.others, capacities_,
                                             damping, bids_i, ws.bid,
                                             ws.scratch);
                        a0 += ws.bid.bids[0] - bids_i[0];
                        a1 += ws.bid.bids[1] - bids_i[1];
                        bids_i[0] = ws.bid.bids[0];
                        bids_i[1] = ws.bid.bids[1];
                        result.lambdas[i] = ws.bid.lambda;
                        result.hillClimbSteps += ws.bid.steps;
                    }
                };
                for (size_t lo = 0; lo < n; lo += block) {
                    const size_t hi = std::min(n, lo + block);
                    const double cs0 = ws.colSums[0];
                    const double cs1 = ws.colSums[1];
                    double acc0 = 0.0, acc1 = 0.0;
                    size_t i = lo;
                    if (duo) {
                        for (; i + 1 < hi; i += 2) {
                            double *ba = result.bids.row(i);
                            double *bb = result.bids.row(i + 1);
                            const double oa0 =
                                std::max(0.0, cs0 - ba[0]);
                            const double oa1 =
                                std::max(0.0, cs1 - ba[1]);
                            const double ob0 =
                                std::max(0.0, cs0 - bb[0]);
                            const double ob1 =
                                std::max(0.0, cs1 - bb[1]);
                            const double *qa = hotQuads_[i];
                            const double *qb = hotQuads_[i + 1];
                            // The kernel covers the all-positive
                            // steady state; anything degenerate (zero
                            // budget, zeroed bid, lone bidder, model
                            // without hot quads) takes the scalar
                            // reply, which handles every case.
                            if (qa != nullptr && qb != nullptr &&
                                b[i] > 0.0 && b[i + 1] > 0.0 &&
                                ba[0] > 0.0 && ba[1] > 0.0 &&
                                bb[0] > 0.0 && bb[1] > 0.0 &&
                                oa0 > 0.0 && oa1 > 0.0 &&
                                ob0 > 0.0 && ob1 > 0.0) [[likely]] {
                                int moved = 0;
                                bestResponseDuo(
                                    qa, qb, b[i], b[i + 1], ba, bb,
                                    oa0, oa1, ob0, ob1, c0, c1,
                                    damping, &result.lambdas[i],
                                    &result.lambdas[i + 1], &moved,
                                    &acc0, &acc1);
                                result.hillClimbSteps += moved;
                            } else {
                                // The block's sums are frozen at
                                // cs0/cs1, so player i's move cannot
                                // change ob0/ob1.
                                scalarReply(i, oa0, oa1, acc0, acc1);
                                scalarReply(i + 1, ob0, ob1, acc0,
                                            acc1);
                            }
                        }
                    }
                    for (; i < hi; ++i) {
                        const double *bids_i = result.bids.row(i);
                        const double o0 =
                            std::max(0.0, cs0 - bids_i[0]);
                        const double o1 =
                            std::max(0.0, cs1 - bids_i[1]);
                        scalarReply(i, o0, o1, acc0, acc1);
                    }
                    ws.colSums[0] = cs0 + acc0;
                    ws.colSums[1] = cs1 + acc1;
                }
            } else {
                for (size_t lo = 0; lo < n; lo += block) {
                    const size_t hi = std::min(n, lo + block);
                    for (size_t j = 0; j < m; ++j)
                        ws.nextSums[j] = 0.0;
                    for (size_t i = lo; i < hi; ++i) {
                        double *bids_i = result.bids.row(i);
                        for (size_t j = 0; j < m; ++j)
                            ws.others[j] = std::max(
                                0.0, ws.colSums[j] - bids_i[j]);
                        // The best response always linearizes at the
                        // current bids -- the seeded row is the
                        // operating point whether the solve is warm
                        // or cold.
                        bestResponseBidsInto(*models_[i], b[i],
                                             ws.others, capacities_,
                                             damping, bids_i, ws.bid,
                                             ws.scratch);
                        for (size_t j = 0; j < m; ++j) {
                            ws.nextSums[j] +=
                                ws.bid.bids[j] - bids_i[j];
                            bids_i[j] = ws.bid.bids[j];
                        }
                        result.lambdas[i] = ws.bid.lambda;
                        result.hillClimbSteps += ws.bid.steps;
                    }
                    for (size_t j = 0; j < m; ++j)
                        ws.colSums[j] += ws.nextSums[j];
                }
            }
        } else if (m == 2) {
            // Gauss-Seidel sweep (see the generic branch below), two
            // resources: the column sums live in locals and each
            // player's climb runs on stack scalars (hillClimbPair), with
            // no BidResult/BidScratch vectors on the serial reply chain.
            // Same FP operations in the same order as the generic
            // branch: bit-identical sums, bids and lambdas.
            const double c0 = capacities_[0], c1 = capacities_[1];
            double cs0 = ws.colSums[0], cs1 = ws.colSums[1];
            std::int64_t steps = 0;
            for (size_t i = 0; i < n; ++i) {
                double *bids_i = result.bids.row(i);
                const double o0 = std::max(0.0, cs0 - bids_i[0]);
                const double o1 = std::max(0.0, cs1 - bids_i[1]);
                const HillClimbPairReply r = hillClimbPair(
                    *models_[i], surfaces_[i], b[i],
                    warm ? bids_i : nullptr, o0, o1, c0, c1, config_.bid);
                cs0 += r.b0 - bids_i[0];
                cs1 += r.b1 - bids_i[1];
                bids_i[0] = r.b0;
                bids_i[1] = r.b1;
                result.lambdas[i] = r.lambda;
                steps += r.steps;
            }
            ws.colSums[0] = cs0;
            ws.colSums[1] = cs1;
            result.hillClimbSteps += steps;
        } else {
            // Gauss-Seidel sweep: each player re-optimizes against the
            // latest bids (players see prices, from which they infer
            // y_ij = p_j*C_j - b_ij; updating column sums in place is
            // equivalent and matches the distributed semantics).
            for (size_t i = 0; i < n; ++i) {
                double *bids_i = result.bids.row(i);
                for (size_t j = 0; j < m; ++j)
                    ws.others[j] =
                        std::max(0.0, ws.colSums[j] - bids_i[j]);
                // Cold solves restart every climb from equal split
                // (the paper's step 1).  Warm solves seed each climb
                // from the player's current bids: the seeded climb
                // expands its shift from the 1% floor (see
                // optimizeBidsInto), so a settled player is an exact
                // no-op and the sweep map reaches a true fixed point
                // instead of re-rolling each climb's quantization
                // noise every sweep.
                optimizeBidsInto(*models_[i], b[i], ws.others,
                                 capacities_, config_.bid,
                                 warm ? bids_i : nullptr, ws.bid,
                                 ws.scratch);
                for (size_t j = 0; j < m; ++j) {
                    ws.colSums[j] += ws.bid.bids[j] - bids_i[j];
                    bids_i[j] = ws.bid.bids[j];
                }
                result.lambdas[i] = ws.bid.lambda;
                result.hillClimbSteps += ws.bid.steps;
            }
        }
        // Sweep-end prices straight from the incremental column sums:
        // O(m), not the historical O(n*m) full recompute.  The
        // incremental sums track the recompute up to ulp-level FP drift
        // (non-associativity of the += deltas); convergence is checked
        // against them consistently on every sweep, and the published
        // prices below come from a full recompute, so results do not
        // depend on the drift.
        for (size_t j = 0; j < m; ++j)
            ws.newPrices[j] = ws.colSums[j] / capacities_[j];
        if (config_.validatePriceSums)
            crossCheckColumnSums(result.bids, ws.colSums, ws.pred);
        if (config_.recordPriceHistory) {
            // History entries stay full-recompute prices (bit-identical
            // to the historical trajectory; the last entry must equal
            // the published prices exactly).
            computePricesInto(result.bids, capacities_, ws.pred);
            result.priceHistory.push_back(ws.pred);
        }
        bool stable = true;
        for (size_t j = 0; j < m; ++j) {
            const double old_p = ws.prices[j];
            const double new_p = ws.newPrices[j];
            const double denom = std::max(old_p, 1e-12);
            if (std::abs(new_p - old_p) / denom > config_.priceTol) {
                stable = false;
                break;
            }
        }
        std::swap(ws.prices, ws.newPrices);
        if (stable) {
            result.converged = true;
            break;
        }
    }

    // Published prices: full recompute over the final bids in canonical
    // order, so they are bit-identical to the historical per-sweep
    // recompute path and independent of incremental drift.
    computePricesInto(result.bids, capacities_, result.prices);
    allocationFromPricesInto(result.bids, result.prices, result.alloc);
    if (!result.converged) {
        util::warn("market fail-safe: no equilibrium within %d iterations",
                   config_.maxIterations);
    }
    result.solveSeconds = util::monotonicSeconds() - t0;
}

EquilibriumResult
ProportionalMarket::rescaleEquilibrium(
    const EquilibriumResult &prior,
    const std::vector<double> &budgets) const
{
    SolveWorkspace ws;
    EquilibriumResult result;
    rescaleEquilibriumInto(prior, budgets, ws, result);
    return result;
}

void
ProportionalMarket::rescaleEquilibriumInto(
    const EquilibriumResult &prior, const std::vector<double> &budgets,
    SolveWorkspace &ws, EquilibriumResult &result) const
{
    REBUDGET_ASSERT(&result != &prior,
                    "rescaleEquilibriumInto: result must not alias prior");
    const double t0 = util::monotonicSeconds();
    const size_t n = models_.size();
    const size_t m = capacities_.size();
    resetResult(result);
    result.budgets.assign(budgets.begin(), budgets.end());
    // The rescaled point is an approximation by construction; its
    // converged flag merely carries the prior real solve's verdict.
    result.approximated = true;
    if (!status_.ok()) {
        result.status = status_;
        return;
    }
    if (budgets.size() != n) {
        result.status = SolveStatus::error(StatusCode::InvalidArgument,
                                           "expected %zu budgets, got %zu",
                                           n, budgets.size());
        return;
    }
    if (prior.bids.rows() != n) {
        result.status = SolveStatus::error(
            StatusCode::FailedPrecondition,
            "rescaleEquilibrium: prior has %zu players, market %zu",
            prior.bids.rows(), n);
        return;
    }
    if (prior.bids.cols() != m) {
        result.status = SolveStatus::error(
            StatusCode::FailedPrecondition,
            "rescaleEquilibrium: prior arity %zu, market %zu",
            prior.bids.cols(), m);
        return;
    }
    if (SolveStatus st = sanitizeBudgets(result.budgets); !st.ok()) {
        result.status = st;
        return;
    }

    const std::vector<double> &b = result.budgets;
    result.warmStarted = true;
    result.converged = prior.converged;
    result.iterations = 0;
    result.lambdas.assign(n, 0.0);
    result.bids.resize(n, m);
    for (size_t i = 0; i < n; ++i) {
        const double *prior_i = prior.bids.row(i);
        double *bids_i = result.bids.row(i);
        double sum = 0.0;
        for (size_t j = 0; j < m; ++j)
            sum += prior_i[j];
        if (sum > 0.0) {
            const double scale = b[i] / sum;
            for (size_t j = 0; j < m; ++j)
                bids_i[j] = prior_i[j] * scale;
        } else {
            for (size_t j = 0; j < m; ++j)
                bids_i[j] = b[i] / static_cast<double>(m);
        }
    }

    computeColumnSumsInto(result.bids, ws.colSums);
    result.prices.resize(m);
    for (size_t j = 0; j < m; ++j)
        result.prices[j] = ws.colSums[j] / capacities_[j];
    allocationFromPricesInto(result.bids, result.prices, result.alloc);

    // lambda_i = max_j dU_i/dr_j * dr_j/db_j, evaluated exactly like the
    // hill climber does at its final bids (predicted allocation against
    // the other players' money, one gradient call per player).
    ws.pred.resize(m);
    ws.grad.resize(m);
    for (size_t i = 0; i < n; ++i) {
        const double *bids_i = result.bids.row(i);
        for (size_t j = 0; j < m; ++j) {
            const double others =
                std::max(0.0, ws.colSums[j] - bids_i[j]);
            ws.pred[j] = predictedAllocation(bids_i[j], others,
                                             capacities_[j]);
        }
        if (m == 2 && surfaces_[i] != nullptr)
            surfaces_[i]->gradient(ws.pred[0], ws.pred[1], ws.grad[0],
                                   ws.grad[1]);
        else
            models_[i]->gradient(ws.pred, ws.grad);
        double lambda = 0.0;
        bool first = true;
        for (size_t j = 0; j < m; ++j) {
            const double others =
                std::max(0.0, ws.colSums[j] - bids_i[j]);
            const double l =
                ws.grad[j] * priceResponse(bids_i[j], others,
                                           capacities_[j]);
            if (first || l > lambda) {
                lambda = l;
                first = false;
            }
        }
        result.lambdas[i] = lambda;
    }
    result.solveSeconds = util::monotonicSeconds() - t0;
}

size_t
migrateEquilibriumInto(const EquilibriumResult &prior,
                       const std::vector<std::ptrdiff_t> &prior_index,
                       size_t num_resources, EquilibriumResult &seed)
{
    REBUDGET_ASSERT(&seed != &prior,
                    "migrateEquilibriumInto: seed must not alias prior");
    resetResult(seed);
    seed.bids.assign(0, 0, 0.0);
    seed.alloc.assign(0, 0, 0.0);
    if (!prior.status.ok()) {
        seed.status = prior.status;
        return 0;
    }
    const size_t n = prior_index.size();
    const size_t m = num_resources;
    const bool have_bids = !prior.bids.empty();
    const bool have_alloc = !prior.alloc.empty();
    if ((have_bids && prior.bids.cols() != m) ||
        (have_alloc && prior.alloc.cols() != m)) {
        seed.status = SolveStatus::error(
            StatusCode::InvalidArgument,
            "migrateEquilibrium: prior has %zu resources, market has %zu",
            have_bids ? prior.bids.cols() : prior.alloc.cols(), m);
        return 0;
    }
    const size_t prior_n =
        have_bids ? prior.bids.rows()
                  : (have_alloc ? prior.alloc.rows()
                                : prior.budgets.size());
    for (size_t i = 0; i < n; ++i) {
        if (prior_index[i] >= static_cast<std::ptrdiff_t>(prior_n)) {
            seed.status = SolveStatus::error(
                StatusCode::InvalidArgument,
                "migrateEquilibrium: prior index %td out of range "
                "(prior has %zu players)", prior_index[i], prior_n);
            return 0;
        }
    }

    if (have_bids)
        seed.bids.assign(n, m, 0.0);
    if (have_alloc)
        seed.alloc.assign(n, m, 0.0);
    seed.budgets.assign(n, 0.0);
    seed.lambdas.assign(n, 0.0);
    seed.prices = prior.prices;
    size_t migrated = 0;
    for (size_t i = 0; i < n; ++i) {
        const std::ptrdiff_t pi = prior_index[i];
        if (pi < 0)
            continue; // newcomer: zero row + zero budget = cold seed
        const size_t p = static_cast<size_t>(pi);
        if (have_bids) {
            const double *src = prior.bids.row(p);
            double *dst = seed.bids.row(i);
            for (size_t j = 0; j < m; ++j)
                dst[j] = src[j];
        }
        if (have_alloc) {
            const double *src = prior.alloc.row(p);
            double *dst = seed.alloc.row(i);
            for (size_t j = 0; j < m; ++j)
                dst[j] = src[j];
        }
        if (p < prior.budgets.size())
            seed.budgets[i] = prior.budgets[p];
        if (p < prior.lambdas.size())
            seed.lambdas[i] = prior.lambdas[p];
        ++migrated;
    }
    // Not an equilibrium of the new market: zero sweeps ran over it.
    seed.approximated = true;
    seed.converged = prior.converged;
    return migrated;
}

EquilibriumResult
migrateEquilibrium(const EquilibriumResult &prior,
                   const std::vector<std::ptrdiff_t> &prior_index,
                   size_t num_resources)
{
    EquilibriumResult seed;
    migrateEquilibriumInto(prior, prior_index, num_resources, seed);
    return seed;
}

std::vector<double>
computePrices(const Matrix<double> &bids,
              const std::vector<double> &capacities)
{
    std::vector<double> prices(capacities.size(), 0.0);
    if (bids.empty())
        return prices;
    REBUDGET_ASSERT(bids.cols() == capacities.size(),
                    "computePrices: bid arity mismatch");
    computePricesInto(bids, capacities, prices);
    return prices;
}

Matrix<double>
proportionalAllocation(const Matrix<double> &bids,
                       const std::vector<double> &capacities)
{
    const std::vector<double> prices = computePrices(bids, capacities);
    Matrix<double> alloc;
    allocationFromPricesInto(bids, prices, alloc);
    return alloc;
}

bool
stronglyCompetitive(const Matrix<double> &bids)
{
    if (bids.empty())
        return false;
    const size_t m = bids.cols();
    for (size_t j = 0; j < m; ++j) {
        int bidders = 0;
        for (size_t i = 0; i < bids.rows(); ++i) {
            if (bids(i, j) > 0.0)
                ++bidders;
        }
        if (bidders < 2)
            return false;
    }
    return true;
}

} // namespace rebudget::market
