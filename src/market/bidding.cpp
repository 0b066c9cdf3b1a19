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

void
bestResponseBidsInto(const UtilityModel &model, double budget,
                     std::span<const double> others,
                     std::span<const double> capacities, double damping,
                     const double *current, BidResult &result,
                     BidScratch &scratch)
{
    const size_t m = model.numResources();
    result.status = util::SolveStatus();
    result.lambda = 0.0;
    result.steps = 0;
    if (others.size() != m || capacities.size() != m) {
        result.status = util::SolveStatus::error(
            util::StatusCode::InvalidArgument,
            "bestResponseBids: arity mismatch (model %zu, others %zu, "
            "capacities %zu)", m, others.size(), capacities.size());
        result.bids.assign(m, 0.0);
        result.lambdas.assign(m, 0.0);
        return;
    }
    if (budget < 0.0) {
        // Same FP-noise tolerance as the hill climber.
        if (budget > -1e-9 * std::max(1.0, std::abs(budget))) {
            budget = 0.0;
        } else {
            result.status = util::SolveStatus::error(
                util::StatusCode::InvalidArgument,
                "bestResponseBids: negative budget %g", budget);
            result.bids.assign(m, 0.0);
            result.lambdas.assign(m, 0.0);
            return;
        }
    }
    if (current != nullptr)
        result.bids.assign(current, current + m);
    else
        result.bids.assign(m, budget / static_cast<double>(m));
    result.lambdas.resize(m);

    // m == 2 fast path: delegate to the inline pair reply shared with
    // the market's sweep loop (see bestResponsePair in bidding.h), so
    // both entry points publish identical bids.
    if (m == 2 && budget > 0.0) {
        const BestResponsePairReply r = bestResponsePair(
            model, budget, result.bids[0], result.bids[1], others[0],
            others[1], capacities[0], capacities[1], damping);
        result.bids[0] = r.b0;
        result.bids[1] = r.b1;
        result.lambdas[0] = r.l0;
        result.lambdas[1] = r.l1;
        result.lambda = r.lambda;
        result.steps = r.steps;
        return;
    }

    scratch.alloc.resize(m);
    scratch.grad.resize(m);
    scratch.compete.resize(m);
    scratch.weight.resize(m);
    scratch.order.resize(m);

    // Operating point: predicted allocation under the current bids, one
    // gradient call.  This is the only model evaluation on this path.
    for (size_t j = 0; j < m; ++j) {
        scratch.alloc[j] = predictedAllocation(result.bids[j], others[j],
                                               capacities[j]);
        scratch.compete[j] = std::max(others[j], kMinCompetingBid);
    }
    model.gradientFast(scratch.alloc, scratch.grad);

    // Reported lambdas: operating-point gradient times the price
    // response at whatever bids this function publishes (set at exit).
    auto publish_lambdas = [&]() {
        double lambda = 0.0;
        for (size_t j = 0; j < m; ++j) {
            const double l =
                scratch.grad[j] * priceResponse(result.bids[j],
                                                others[j],
                                                capacities[j]);
            result.lambdas[j] = l;
            if (j == 0 || l > lambda)
                lambda = l;
        }
        result.lambda = lambda;
    };

    if (budget <= 0.0) {
        std::fill(result.bids.begin(), result.bids.end(), 0.0);
        publish_lambdas();
        return;
    }
    if (m == 1) {
        if (result.bids[0] != budget) {
            result.bids[0] = budget;
            result.steps = 1;
        }
        publish_lambdas();
        return;
    }

    // Linearized per-share weights w_j = g_j * C_j; sqrt(w_j y_j) is
    // the water-filling kernel.  A fully saturated player (all w = 0)
    // has no signal and keeps its current bids.
    bool any_weight = false;
    for (size_t j = 0; j < m; ++j) {
        const double w =
            std::max(scratch.grad[j], 0.0) * capacities[j];
        scratch.weight[j] = std::sqrt(w * scratch.compete[j]);
        any_weight = any_weight || scratch.weight[j] > 0.0;
        scratch.order[j] = static_cast<uint32_t>(j);
    }
    if (!any_weight) {
        publish_lambdas();
        return;
    }

    // Deterministic insertion sort (m is small; no allocation, stable
    // on ties unlike std::sort) by marginal-at-zero w_j / y_j
    // descending, i.e. weight_j / y_j since weight = sqrt(w y) and
    // w / y = (weight / y)^2.
    for (size_t a = 1; a < m; ++a) {
        const uint32_t key = scratch.order[a];
        const double rk = scratch.weight[key] / scratch.compete[key];
        size_t b = a;
        while (b > 0) {
            const uint32_t prev = scratch.order[b - 1];
            if (scratch.weight[prev] / scratch.compete[prev] >= rk)
                break;
            scratch.order[b] = prev;
            --b;
        }
        scratch.order[b] = key;
    }

    // Water-fill: grow the included set T in sorted order while the
    // next resource's bid would still be positive.
    double sum_y = 0.0;
    double sum_sqrt = 0.0;
    size_t included = 0;
    for (size_t k = 0; k < m; ++k) {
        const uint32_t j = scratch.order[k];
        if (scratch.weight[j] <= 0.0)
            break;
        const double trial_y = sum_y + scratch.compete[j];
        const double trial_s = sum_sqrt + scratch.weight[j];
        // b_j > 0 iff weight_j * (B + sum_T y) / sum_T sqrt > y_j with
        // j included in T.
        if (scratch.weight[j] * (budget + trial_y) <=
            scratch.compete[j] * trial_s)
            break;
        sum_y = trial_y;
        sum_sqrt = trial_s;
        ++included;
    }
    if (included == 0) {
        publish_lambdas();
        return;
    }

    const double scale = (budget + sum_y) / sum_sqrt;
    bool moved = false;
    for (size_t k = 0; k < m; ++k) {
        const uint32_t j = scratch.order[k];
        const double reply =
            k < included
                ? std::max(0.0, scratch.weight[j] * scale -
                                    scratch.compete[j])
                : 0.0;
        const double prev = result.bids[j];
        const double next = prev + damping * (reply - prev);
        result.bids[j] = next;
        moved = moved || next != prev;
    }
    result.steps = moved ? 1 : 0;
    publish_lambdas();
}

} // namespace rebudget::market
