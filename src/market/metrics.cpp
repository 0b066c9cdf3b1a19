#include "rebudget/market/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>

#include "rebudget/util/logging.h"
#include "rebudget/util/rng.h"

namespace rebudget::market {

namespace {

using util::Expected;
using util::SolveStatus;
using util::StatusCode;

/**
 * min/max ratio with an FP-noise clamp: values within tolerance below
 * zero count as zero; genuinely negative values are an error.
 */
Expected<double>
clampedRange(const std::vector<double> &values, const char *what)
{
    if (values.empty()) {
        return SolveStatus::error(StatusCode::InvalidArgument,
                                  "%s of empty set", what);
    }
    // minmax_element over a NaN answers by position, and an infinite
    // maximum turns every ratio into 0: neither is a range.
    for (double v : values) {
        if (!std::isfinite(v)) {
            return SolveStatus::error(StatusCode::Numerical,
                                      "%s: non-finite value %g", what, v);
        }
    }
    auto [mn_it, mx_it] = std::minmax_element(values.begin(), values.end());
    double mn = *mn_it;
    const double mx = *mx_it;
    const double tol = 1e-9 * std::max(1.0, std::abs(mx));
    if (mn < 0.0) {
        if (mn < -tol) {
            return SolveStatus::error(StatusCode::Numerical,
                                      "%s: genuinely negative value %g",
                                      what, mn);
        }
        mn = 0.0; // FP noise (e.g. -1e-15 from the incremental gradient)
    }
    if (mx <= 0.0)
        return 1.0; // fully satiated market: no reassignment potential
    return mn / mx;
}

/** Sum in index order: the one summation order of Definition 1. */
double
sumInOrder(const std::vector<double> &values)
{
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum;
}

/** min_i own[i] / best[i] over players with something to envy. */
double
minEnvyRatio(const std::vector<double> &own, const std::vector<double> &best)
{
    double ef = 1.0;
    for (size_t i = 0; i < own.size(); ++i) {
        if (best[i] <= 0.0)
            continue; // utility zero everywhere: nothing to envy
        ef = std::min(ef, own[i] / best[i]);
    }
    return ef;
}

constexpr size_t kNone = std::numeric_limits<size_t>::max();

/**
 * Number the distinct keys of items 0..n-1 in order of first
 * occurrence.  Returns each item's class and fills `firsts` with each
 * class's first item.  Open addressing over `hash(i)`, at most half
 * full; `same(a, b)` tells whether items a and b have the same key.
 */
template <typename Hash, typename Same>
std::vector<size_t>
classify(size_t n, Hash hash, Same same, std::vector<size_t> &firsts)
{
    const size_t mask = std::bit_ceil(2 * n) - 1;
    std::vector<size_t> slots(mask + 1, kNone);
    std::vector<size_t> classes(n);
    firsts.clear();
    for (size_t i = 0; i < n; ++i) {
        size_t h = hash(i) & mask;
        while (slots[h] != kNone && !same(firsts[slots[h]], i))
            h = (h + 1) & mask;
        if (slots[h] == kNone) {
            slots[h] = firsts.size();
            firsts.push_back(i);
        }
        classes[i] = slots[h];
    }
    return classes;
}

/** Hash of row i's bits. */
std::uint64_t
rowHash(const util::Matrix<double> &alloc, size_t i)
{
    std::uint64_t h = 0;
    const double *row = alloc.row(i);
    for (size_t j = 0; j < alloc.cols(); ++j)
        h = util::mix64(h ^ std::bit_cast<std::uint64_t>(row[j]));
    return h;
}

/** True when rows a and b hold the same bits (+0.0 and -0.0 differ). */
bool
sameRowBits(const util::Matrix<double> &alloc, size_t a, size_t b)
{
    const double *ra = alloc.row(a);
    const double *rb = alloc.row(b);
    for (size_t j = 0; j < alloc.cols(); ++j) {
        if (std::bit_cast<std::uint64_t>(ra[j]) !=
            std::bit_cast<std::uint64_t>(rb[j]))
            return false;
    }
    return true;
}

} // namespace

/*
 * Roster audit (dynamic-tenant refactor): every player loop in this
 * file indexes PARALLEL arrays (models[i] with alloc row i, or a
 * single per-player vector), so `i` is a dense position, never an
 * identity.  Under churn the caller rebuilds these arrays in the
 * current roster's dense order each epoch, which keeps the loops
 * correct by construction; anything lifetime-scoped is accumulated by
 * identity upstream (eval/churn.cpp) and reaches this layer as
 * positionally-aligned vectors (see lifetimeEnvyFreeness).  No loop
 * here assumes player == stable id.
 */

std::vector<double>
perPlayerUtilities(const std::vector<const UtilityModel *> &models,
                   const util::Matrix<double> &alloc)
{
    REBUDGET_ASSERT(models.size() == alloc.size(),
                    "perPlayerUtilities: players/allocations mismatch");
    std::vector<double> utils(models.size());
    for (size_t i = 0; i < models.size(); ++i)
        utils[i] = models[i]->utility(alloc[i]);
    return utils;
}

double
efficiency(const std::vector<const UtilityModel *> &models,
           const util::Matrix<double> &alloc)
{
    return sumInOrder(perPlayerUtilities(models, alloc));
}

double
OwnBestUtilities::efficiency() const
{
    return sumInOrder(own);
}

double
OwnBestUtilities::envyFreeness() const
{
    return minEnvyRatio(own, best);
}

/*
 * best[i] is defined as own[i] folded with std::max (replace only on
 * strictly greater) over every other row in index order: a NaN own
 * stays NaN, NaN rows are skipped, and otherwise the fold ends on the
 * first row in index order that attains the maximum.  Here `top` folds
 * the same std::max from -inf over the distinct rows in order of first
 * occurrence, and best = std::max(own, top) gives the same bits: equal
 * non-zero doubles have equal bits, and when the maximum is a zero and
 * own < 0, the first distinct row with a zero utility is the first row
 * overall with one, so even the sign of the zero agrees.
 * tests/eval/score_reference_test.cpp pins this against the scan.
 */
OwnBestUtilities
ownAndBestUtilities(const std::vector<const UtilityModel *> &models,
                    const util::Matrix<double> &alloc)
{
    REBUDGET_ASSERT(models.size() == alloc.size(),
                    "ownAndBestUtilities: players/allocations mismatch");
    const size_t n = models.size();
    OwnBestUtilities out;
    out.own.resize(n);
    out.best.resize(n);

    std::vector<size_t> rows; // first player holding each distinct row
    const std::vector<size_t> row_class = classify(
        n, [&](size_t i) { return rowHash(alloc, i); },
        [&](size_t a, size_t b) { return sameRowBits(alloc, a, b); }, rows);
    std::vector<size_t> model_firsts;
    const std::vector<size_t> model_class = classify(
        n,
        [&](size_t i) {
            return util::mix64(reinterpret_cast<std::uintptr_t>(models[i]));
        },
        [&](size_t a, size_t b) { return models[a] == models[b]; },
        model_firsts);
    // next[i]: the next player after i that holds i's model, or kNone.
    std::vector<size_t> next(n);
    std::vector<size_t> after(model_firsts.size(), kNone);
    for (size_t i = n; i-- > 0;) {
        next[i] = after[model_class[i]];
        after[model_class[i]] = i;
    }

    std::vector<double> values(rows.size());
    for (const size_t first : model_firsts) {
        const UtilityModel *model = models[first];
        // A catalog model's utility() is its surface's, bit for bit.
        const BilinearSurface *surface =
            alloc.cols() == 2 ? model->bilinearSurface() : nullptr;
        double top = -std::numeric_limits<double>::infinity();
        for (size_t c = 0; c < rows.size(); ++c) {
            const std::span<const double> row = alloc[rows[c]];
            values[c] = surface != nullptr ? surface->utility(row[0], row[1])
                                           : model->utility(row);
            top = std::max(top, values[c]);
        }
        for (size_t i = first; i != kNone; i = next[i]) {
            out.own[i] = values[row_class[i]];
            out.best[i] = std::max(out.own[i], top);
        }
    }
    return out;
}

double
envyFreeness(const std::vector<const UtilityModel *> &models,
             const util::Matrix<double> &alloc)
{
    return ownAndBestUtilities(models, alloc).envyFreeness();
}

util::Expected<double>
marketUtilityRange(const std::vector<double> &lambdas)
{
    return clampedRange(lambdas, "marketUtilityRange");
}

util::Expected<double>
marketBudgetRange(const std::vector<double> &budgets)
{
    return clampedRange(budgets, "marketBudgetRange");
}

double
lifetimeEnvyFreeness(const std::vector<double> &own,
                     const std::vector<double> &best_other)
{
    REBUDGET_ASSERT(own.size() == best_other.size(),
                    "lifetimeEnvyFreeness: tenant array mismatch");
    return minEnvyRatio(own, best_other);
}

double
poaLowerBound(double mur)
{
    mur = std::clamp(mur, 0.0, 1.0);
    if (mur >= 0.5)
        return 1.0 - 1.0 / (4.0 * mur);
    return mur;
}

double
envyFreenessLowerBound(double mbr)
{
    mbr = std::clamp(mbr, 0.0, 1.0);
    return 2.0 * std::sqrt(1.0 + mbr) - 2.0;
}

double
mbrForEnvyFreenessTarget(double target_ef)
{
    if (target_ef < 0.0)
        return 0.0;
    const double half = (target_ef + 2.0) / 2.0;
    const double mbr = half * half - 1.0;
    return std::clamp(mbr, 0.0, 1.0);
}

} // namespace rebudget::market
