#include "rebudget/market/utility_model.h"

#include <cmath>

#include "rebudget/util/logging.h"

namespace rebudget::market {

BilinearSurface::BilinearSurface(std::vector<double> knots0,
                                 std::vector<double> knots1,
                                 std::vector<double> values, double min0,
                                 double min1)
    : knots0_(std::move(knots0)), knots1_(std::move(knots1)),
      values_(std::move(values)), min0_(min0), min1_(min1)
{
    REBUDGET_ASSERT(knots0_.size() >= 2 && knots1_.size() >= 2,
                    "bilinear surface needs >= 2 knots per axis");
    REBUDGET_ASSERT(values_.size() == knots0_.size() * knots1_.size(),
                    "bilinear surface sample count mismatch");
}

double
UtilityModel::marginal(size_t resource, std::span<const double> alloc) const
{
    REBUDGET_ASSERT(resource < numResources(), "resource out of range");
    std::vector<double> bumped(alloc.begin(), alloc.end());
    bumped[resource] += kFiniteDiffStep;
    return (utility(bumped) - utility(alloc)) / kFiniteDiffStep;
}

void
UtilityModel::gradient(std::span<const double> alloc,
                       std::span<double> out) const
{
    REBUDGET_ASSERT(out.size() == numResources(),
                    "gradient output arity mismatch");
    for (size_t j = 0; j < out.size(); ++j)
        out[j] = marginal(j, alloc);
}

namespace {

/** Validate power-law parameters; Ok when the model is well-formed. */
util::SolveStatus
validatePowerLaw(const std::vector<double> &weights,
                 const std::vector<double> &exponents,
                 const std::vector<double> &capacities)
{
    using util::SolveStatus;
    using util::StatusCode;
    if (weights.empty() || weights.size() != exponents.size() ||
        weights.size() != capacities.size()) {
        return SolveStatus::error(
            StatusCode::InvalidArgument,
            "PowerLawUtility: mismatched parameter vectors "
            "(%zu weights, %zu exponents, %zu capacities)",
            weights.size(), exponents.size(), capacities.size());
    }
    double wsum = 0.0;
    for (size_t j = 0; j < weights.size(); ++j) {
        if (weights[j] < 0.0) {
            return SolveStatus::error(
                StatusCode::InvalidArgument,
                "PowerLawUtility weights must be non-negative (got %g)",
                weights[j]);
        }
        if (exponents[j] <= 0.0 || exponents[j] > 1.0) {
            return SolveStatus::error(
                StatusCode::InvalidArgument,
                "PowerLawUtility exponents must be in (0, 1] (got %g)",
                exponents[j]);
        }
        if (capacities[j] <= 0.0) {
            return SolveStatus::error(
                StatusCode::InvalidArgument,
                "PowerLawUtility capacities must be positive (got %g)",
                capacities[j]);
        }
        wsum += weights[j];
    }
    if (wsum <= 0.0) {
        return SolveStatus::error(StatusCode::InvalidArgument,
                                  "PowerLawUtility requires a positive "
                                  "weight sum");
    }
    return SolveStatus();
}

} // namespace

PowerLawUtility::PowerLawUtility(std::vector<double> weights,
                                 std::vector<double> exponents,
                                 std::vector<double> capacities)
    : weights_(std::move(weights)), exponents_(std::move(exponents)),
      capacities_(std::move(capacities)),
      status_(validatePowerLaw(weights_, exponents_, capacities_))
{
    if (!status_.ok()) {
        // Degrade to a harmless single-resource model so the object is
        // safe to call; consumers check setupStatus() before trusting it.
        weights_ = {1.0};
        exponents_ = {1.0};
        capacities_ = {1.0};
    } else {
        double wsum = 0.0;
        for (double w : weights_)
            wsum += w;
        for (auto &w : weights_)
            w /= wsum;
    }
    hot_.resize(3 * weights_.size());
    for (size_t j = 0; j < weights_.size(); ++j) {
        hot_[3 * j + 0] = capacities_[j];
        hot_[3 * j + 1] = weights_[j] * exponents_[j];
        hot_[3 * j + 2] = exponents_[j] - 1.0;
    }
}

double
PowerLawUtility::utility(std::span<const double> alloc) const
{
    REBUDGET_ASSERT(alloc.size() == weights_.size(),
                    "allocation arity mismatch");
    double u = 0.0;
    for (size_t j = 0; j < weights_.size(); ++j) {
        const double x = std::max(0.0, alloc[j]) / capacities_[j];
        u += weights_[j] * std::pow(x, exponents_[j]);
    }
    return u;
}

double
PowerLawUtility::marginal(size_t resource,
                          std::span<const double> alloc) const
{
    REBUDGET_ASSERT(resource < weights_.size(), "resource out of range");
    REBUDGET_ASSERT(alloc.size() == weights_.size(),
                    "allocation arity mismatch");
    const double c = capacities_[resource];
    const double e = exponents_[resource];
    const double x = std::max(1e-12, alloc[resource] / c);
    return weights_[resource] * e * std::pow(x, e - 1.0) / c;
}

void
PowerLawUtility::gradient(std::span<const double> alloc,
                          std::span<double> out) const
{
    REBUDGET_ASSERT(alloc.size() == weights_.size(),
                    "allocation arity mismatch");
    REBUDGET_ASSERT(out.size() == weights_.size(),
                    "gradient output arity mismatch");
    // The per-resource terms are separable, so the combined pass is the
    // same expression as marginal() without the per-call dispatch: the
    // hot_ triplets carry [c, w*e, e-1] folded at construction, and
    // (coeff * pow) / c preserves marginal()'s association order, so
    // the two entry points agree exactly.
    const size_t m = weights_.size();
    const double *h = hot_.data();
    for (size_t j = 0; j < m; ++j, h += 3) {
        const double c = h[0];
        const double x = std::max(1e-12, alloc[j] / c);
        out[j] = h[1] * std::pow(x, h[2]) / c;
    }
}

} // namespace rebudget::market
