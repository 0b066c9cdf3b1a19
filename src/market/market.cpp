#include "rebudget/market/market.h"

#include <algorithm>
#include <cmath>

#include "rebudget/util/logging.h"
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
 * independent of the solve's shift history.  One column at a time into
 * a local: a running sum in out[j] would round-trip through memory on
 * every row.
 */
void
computeColumnSumsInto(const Matrix<double> &bids, std::vector<double> &out)
{
    const size_t n = bids.rows();
    const size_t m = bids.cols();
    out.resize(m);
    const double *data = bids.data();
    for (size_t j = 0; j < m; ++j) {
        double sum = 0.0;
        for (size_t i = 0; i < n; ++i)
            sum += data[i * m + j];
        out[j] = sum;
    }
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

/** proportionalAllocation against known prices, into a reused matrix. */
void
allocationFromPricesInto(const Matrix<double> &bids,
                         const std::vector<double> &prices,
                         Matrix<double> &alloc)
{
    const size_t m = bids.cols();
    alloc.resize(bids.rows(), m);
    const double *b = bids.data();
    double *a = alloc.data();
    for (size_t i = 0; i < bids.rows(); ++i, b += m, a += m) {
        for (size_t j = 0; j < m; ++j)
            a[j] = prices[j] > 0.0 ? b[j] / prices[j] : 0.0;
    }
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
        surfaces_.reserve(models_.size());
        for (const UtilityModel *model : models_)
            surfaces_.push_back(model->bilinearSurface());
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
    for (int iter = 0; iter < config_.maxIterations; ++iter) {
        ++result.iterations;
        if (m == 2) {
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
