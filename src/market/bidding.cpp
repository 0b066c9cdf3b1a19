#include "rebudget/market/bidding.h"

#include <algorithm>
#include <cmath>

#include "rebudget/util/logging.h"

namespace rebudget::market {

namespace {

std::vector<double>
predictAll(std::span<const double> bids, std::span<const double> others,
           std::span<const double> capacities)
{
    std::vector<double> alloc(bids.size());
    for (size_t j = 0; j < bids.size(); ++j)
        alloc[j] = predictedAllocation(bids[j], others[j], capacities[j]);
    return alloc;
}

} // namespace

double
bidMarginal(const UtilityModel &model, size_t resource,
            std::span<const double> bids, std::span<const double> others,
            std::span<const double> capacities)
{
    REBUDGET_ASSERT(resource < bids.size(), "resource out of range");
    const std::vector<double> alloc = predictAll(bids, others, capacities);
    const double du_dr = model.marginal(resource, alloc);
    const double dr_db =
        priceResponse(bids[resource], others[resource],
                      capacities[resource]);
    return du_dr * dr_db;
}

BidResult
optimizeBids(const UtilityModel &model, double budget,
             std::span<const double> others,
             std::span<const double> capacities,
             const BidOptimizerConfig &config)
{
    BidResult result;
    BidScratch scratch;
    optimizeBidsInto(model, budget, others, capacities, config, nullptr,
                     result, scratch);
    return result;
}

void
optimizeBidsInto(const UtilityModel &model, double budget,
                 std::span<const double> others,
                 std::span<const double> capacities,
                 const BidOptimizerConfig &config, const double *initial,
                 BidResult &result, BidScratch &scratch)
{
    const size_t m = model.numResources();
    result.status = util::SolveStatus();
    result.lambda = 0.0;
    result.steps = 0;
    if (others.size() != m || capacities.size() != m) {
        result.status = util::SolveStatus::error(
            util::StatusCode::InvalidArgument,
            "optimizeBids: arity mismatch (model %zu, others %zu, "
            "capacities %zu)", m, others.size(), capacities.size());
        result.bids.assign(m, 0.0);
        result.lambdas.assign(m, 0.0);
        return;
    }
    if (budget < 0.0) {
        // FP noise from budget arithmetic upstream is treated as zero;
        // a genuinely negative budget is a caller error.
        if (budget > -1e-9 * std::max(1.0, std::abs(budget))) {
            budget = 0.0;
        } else {
            result.status = util::SolveStatus::error(
                util::StatusCode::InvalidArgument,
                "optimizeBids: negative budget %g", budget);
            result.bids.assign(m, 0.0);
            result.lambdas.assign(m, 0.0);
            return;
        }
    }
    if (m == 2) {
        const HillClimbPairReply r = hillClimbPair(
            model, model.bilinearSurface(), budget, initial, others[0],
            others[1], capacities[0], capacities[1], config);
        result.bids.assign({r.b0, r.b1});
        result.lambdas.assign({r.l0, r.l1});
        result.lambda = r.lambda;
        result.steps = r.steps;
        return;
    }
    if (initial != nullptr)
        result.bids.assign(initial, initial + m);
    else
        result.bids.assign(m, budget / static_cast<double>(m));
    result.lambdas.assign(m, 0.0);
    scratch.alloc.resize(m);
    scratch.grad.resize(m);
    scratch.drdb.resize(m);

    // Predicted allocation and price response per resource, maintained
    // incrementally: a bid shift touches exactly two resources, so only
    // those two entries are refreshed afterwards.
    auto refresh = [&](size_t j) {
        scratch.alloc[j] =
            predictedAllocation(result.bids[j], others[j], capacities[j]);
        scratch.drdb[j] =
            priceResponse(result.bids[j], others[j], capacities[j]);
    };
    for (size_t j = 0; j < m; ++j)
        refresh(j);

    auto compute_lambdas = [&]() {
        model.gradient(scratch.alloc, scratch.grad);
        for (size_t j = 0; j < m; ++j)
            result.lambdas[j] = scratch.grad[j] * scratch.drdb[j];
    };

    if (budget <= 0.0 || m == 1) {
        compute_lambdas();
        result.lambda =
            *std::max_element(result.lambdas.begin(), result.lambdas.end());
        return;
    }

    // Shift amount S.  Cold start (equal split): S begins at half the
    // per-resource bid and halves every step (paper Section 4.1.2).
    // Seeded start: the bids are presumed near-optimal, so S begins at
    // the 1% floor and doubles while the climb keeps moving money in the
    // same direction (capped at the cold start's B/(2m)), then halves
    // once the direction flips -- a player already within the lambda
    // tolerance makes no move at all, so re-optimizing a settled player
    // is an exact no-op instead of re-rolling the climb's quantization
    // noise.
    const double shift_cap = budget / static_cast<double>(m) / 2.0;
    const double min_shift = config.minShiftFraction * budget;
    double shift = initial != nullptr ? std::min(min_shift, shift_cap)
                                      : shift_cap;
    bool expanding = initial != nullptr;
    size_t prev_jmin = m;
    size_t prev_jmax = m;

    // True while result.lambdas reflects the current bids; avoids a
    // redundant recomputation when the loop exits right after a sweep.
    bool lambdas_current = false;
    for (int step = 0; step < config.maxSteps; ++step) {
        compute_lambdas();
        lambdas_current = true;
        // Highest-lambda resource receives money; lowest-lambda resource
        // with a non-zero bid provides it.
        size_t jmax = 0;
        for (size_t j = 1; j < m; ++j) {
            if (result.lambdas[j] > result.lambdas[jmax])
                jmax = j;
        }
        size_t jmin = m;
        for (size_t j = 0; j < m; ++j) {
            if (result.bids[j] > 0.0 &&
                (jmin == m || result.lambdas[j] < result.lambdas[jmin])) {
                jmin = j;
            }
        }
        if (jmin == m || jmin == jmax)
            break;
        const double lmax = result.lambdas[jmax];
        const double lmin = result.lambdas[jmin];
        if (lmax <= 0.0 || (lmax - lmin) <= config.lambdaTol * lmax)
            break; // condition (a): lambdas agree within tolerance
        if (expanding && prev_jmin != m &&
            (jmin != prev_jmin || jmax != prev_jmax))
            expanding = false; // direction flipped: start contracting
        prev_jmin = jmin;
        prev_jmax = jmax;
        const double amount = std::min(shift, result.bids[jmin]);
        result.bids[jmin] -= amount;
        result.bids[jmax] += amount;
        refresh(jmin);
        refresh(jmax);
        lambdas_current = false;
        ++result.steps;
        if (expanding) {
            shift *= 2.0;
            if (shift >= shift_cap) {
                shift = shift_cap;
                expanding = false;
            }
        } else {
            shift *= 0.5;
            if (shift < min_shift)
                break; // condition (b): shift below 1% of budget
        }
    }

    if (!lambdas_current)
        compute_lambdas();
    result.lambda =
        *std::max_element(result.lambdas.begin(), result.lambdas.end());
}

} // namespace rebudget::market
