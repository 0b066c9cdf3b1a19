/**
 * @file
 * The two-resource hill climb and the inline bilinear surface against
 * verbatim ports of the code they replaced (reference_climb.h), bit for
 * bit:
 *
 *  - hillClimbPair against the generic optimizeBidsInto loop over
 *    randomized replies: seeded and cold climbs, budgets from 0 to
 *    1e6, zero bids on either side, lone bidders and competing bids at
 *    or below kMinCompetingBid, allocations exactly on grid knots and
 *    past saturation, maxSteps 0/1/64 and non-default tolerances, on
 *    catalog surfaces (the inline gradient) and power-law models (the
 *    virtual gradient);
 *  - BilinearSurface's gradient, value and cell lookup against the
 *    upper_bound interpolant, NaN and infinite coordinates included;
 *  - every catalog model's utility(), marginal() and gradient() against
 *    its surface over the same probes, clean and rebuilt from damaged
 *    raw grids (the contract behind bilinearSurface()).
 */

#include "rebudget/market/bidding.h"

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rebudget/app/catalog.h"
#include "rebudget/app/utility.h"
#include "rebudget/eval/bundle_runner.h"
#include "rebudget/faults/fault_injector.h"
#include "rebudget/faults/fault_plan.h"
#include "rebudget/util/rng.h"
#include "reference_climb.h"

namespace rebudget::market {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
const double kNaN = std::nan("");

std::uint64_t
bitsOf(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

/** Catalog models of all 24 apps, convexified and raw. */
std::vector<std::shared_ptr<const app::AppUtilityModel>>
catalogModels()
{
    std::vector<std::string> names;
    for (const auto &profile : app::catalogProfiles())
        names.push_back(profile.params.name);
    std::vector<std::shared_ptr<const app::AppUtilityModel>> models;
    for (bool convexify : {true, false}) {
        const eval::BundleProblem bp =
            eval::makeBundleProblem(names, 4.0, 10.0, convexify);
        models.insert(models.end(), bp.models.begin(), bp.models.end());
    }
    return models;
}

/** Random two-resource power-law models (the virtual gradient path). */
std::vector<std::unique_ptr<PowerLawUtility>>
powerLawModels(util::Rng &rng, size_t count)
{
    std::vector<std::unique_ptr<PowerLawUtility>> models;
    for (size_t k = 0; k < count; ++k) {
        models.push_back(std::make_unique<PowerLawUtility>(
            std::vector<double>{rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)},
            std::vector<double>{rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0)},
            std::vector<double>{rng.uniform(1.0, 64.0),
                                rng.uniform(1.0, 160.0)}));
    }
    return models;
}

/** One reply's inputs. */
struct Reply
{
    double budget = 100.0;
    bool seeded = false;
    double seed[2] = {0.0, 0.0};
    double others[2] = {0.0, 0.0};
    double caps[2] = {1.0, 1.0};
    BidOptimizerConfig config;

    std::string describe() const
    {
        char buf[512];
        std::snprintf(buf, sizeof buf,
                      "budget %.17g seed %s(%.17g, %.17g) others (%.17g, "
                      "%.17g) caps (%.17g, %.17g) maxSteps %d lambdaTol "
                      "%g minShift %g",
                      budget, seeded ? "" : "none ", seed[0], seed[1],
                      others[0], others[1], caps[0], caps[1],
                      config.maxSteps, config.lambdaTol,
                      config.minShiftFraction);
        return buf;
    }
};

/**
 * Smallest r with min + r == knot when one exists (else the closest
 * miss): an extra that lands a total exactly on the knot.
 */
double
extraOnKnot(double min, double knot)
{
    double r = knot - min;
    for (int k = 0; k < 8 && min + r < knot; ++k)
        r = std::nextafter(r, kInf);
    for (int k = 0; k < 8 && min + r > knot; ++k)
        r = std::nextafter(r, -kInf);
    return r;
}

template <class T>
T
pick(util::Rng &rng, std::initializer_list<T> values)
{
    return values.begin()[rng.uniformInt(values.size())];
}

/**
 * Draw a reply.  `knots` (may be null) supplies one axis extra per
 * resource that lands exactly on a grid knot, and the extra past which
 * the model saturates.
 */
Reply
drawReply(util::Rng &rng, const app::AppUtilityModel *knots)
{
    Reply d;
    d.budget = rng.uniformInt(3) == 0
                   ? rng.uniform(0.5, 200.0)
                   : pick(rng, {0.0, 1e-9, 1.0, 100.0, 1e6});
    d.seeded = rng.uniformInt(2) == 0;
    if (d.seeded) {
        switch (rng.uniformInt(4)) {
        case 0: // everything on resource 0
            d.seed[0] = d.budget;
            break;
        case 1: // everything on resource 1
            d.seed[1] = d.budget;
            break;
        default: {
            const double u = rng.uniform(0.0, 1.0);
            d.seed[0] = d.budget * u;
            d.seed[1] = d.budget - d.seed[0];
        }
        }
    }
    for (double &o : d.others) {
        switch (rng.uniformInt(6)) {
        case 0:
            o = 0.0; // lone bidder
            break;
        case 1:
            o = pick(rng, {kMinCompetingBid, kMinCompetingBid / 2.0, 1e-12});
            break;
        default:
            o = d.budget * rng.uniform(0.0, 64.0) + rng.uniform(0.0, 1.0);
        }
    }
    d.caps[0] = rng.uniform(0.5, 64.0);
    d.caps[1] = rng.uniform(1.0, 160.0);
    if (knots != nullptr) {
        const std::vector<double> *axes[2] = {&knots->cacheKnots(),
                                              &knots->powerKnots()};
        const double mins[2] = {knots->minRegions(), knots->minWatts()};
        for (int j = 0; j < 2; ++j) {
            const auto &k = *axes[j];
            switch (rng.uniformInt(4)) {
            case 0:
                // A lone bidder gets exactly its capacity: the first
                // gradient call lands on a knot.
                d.caps[j] = extraOnKnot(
                    mins[j], k[1 + rng.uniformInt(k.size() - 1)]);
                d.others[j] = 0.0;
                break;
            case 1:
                // b / (b + b) * 2r == r: on a knot when the seed bid
                // equals the competing bid.
                d.caps[j] = 2.0 * extraOnKnot(
                                      mins[j],
                                      k[1 + rng.uniformInt(k.size() - 1)]);
                if (d.seeded && d.seed[j] > 0.0)
                    d.others[j] = d.seed[j];
                break;
            case 2: // past saturation
                d.caps[j] = (k.back() - mins[j]) * rng.uniform(1.0, 4.0);
                break;
            default:
                break;
            }
        }
    }
    d.config.maxSteps = pick(rng, {0, 1, 64, 64, 64});
    d.config.lambdaTol = pick(rng, {0.05, 0.05, 0.0, 0.01, 0.3});
    d.config.minShiftFraction = pick(rng, {0.01, 0.01, 0.0, 0.001, 0.1});
    return d;
}

/**
 * hillClimbPair and the production optimizeBidsInto against the ported
 * generic climb.  @return the climb's step count.
 */
int
expectPairMatchesGeneric(const UtilityModel &model, const Reply &d)
{
    const double *seed = d.seeded ? d.seed : nullptr;
    const HillClimbPairReply r =
        hillClimbPair(model, model.bilinearSurface(), d.budget, seed,
                      d.others[0], d.others[1], d.caps[0], d.caps[1],
                      d.config);
    BidResult ref;
    BidScratch scratch;
    reference::refOptimizeBidsInto(model, d.budget, d.others, d.caps,
                                   d.config, seed, ref, scratch);
    const std::string ctx = model.name() + ": " + d.describe();
    EXPECT_TRUE(ref.status.ok()) << ctx;
    EXPECT_EQ(bitsOf(r.b0), bitsOf(ref.bids[0])) << ctx;
    EXPECT_EQ(bitsOf(r.b1), bitsOf(ref.bids[1])) << ctx;
    EXPECT_EQ(bitsOf(r.l0), bitsOf(ref.lambdas[0])) << ctx;
    EXPECT_EQ(bitsOf(r.l1), bitsOf(ref.lambdas[1])) << ctx;
    EXPECT_EQ(bitsOf(r.lambda), bitsOf(ref.lambda)) << ctx;
    EXPECT_EQ(r.steps, ref.steps) << ctx;

    BidResult prod;
    optimizeBidsInto(model, d.budget, d.others, d.caps, d.config, seed, prod,
                     scratch);
    EXPECT_TRUE(prod.status.ok()) << ctx;
    EXPECT_EQ(bitsOf(prod.bids[0]), bitsOf(r.b0)) << ctx;
    EXPECT_EQ(bitsOf(prod.bids[1]), bitsOf(r.b1)) << ctx;
    EXPECT_EQ(bitsOf(prod.lambdas[0]), bitsOf(r.l0)) << ctx;
    EXPECT_EQ(bitsOf(prod.lambdas[1]), bitsOf(r.l1)) << ctx;
    EXPECT_EQ(bitsOf(prod.lambda), bitsOf(r.lambda)) << ctx;
    EXPECT_EQ(prod.steps, r.steps) << ctx;
    return r.steps;
}

TEST(HillClimbPair, MatchesGenericClimbOnCatalogSurfaces)
{
    const auto models = catalogModels();
    util::Rng rng(1801);
    int max_steps = 0;
    for (int draw = 0; draw < 24000; ++draw) {
        const auto &model = *models[rng.uniformInt(models.size())];
        ASSERT_NE(model.bilinearSurface(), nullptr);
        max_steps =
            std::max(max_steps,
                     expectPairMatchesGeneric(model, drawReply(rng, &model)));
        if (HasFailure())
            return;
    }
    // The draws reach the maxSteps cap, not only early stops.
    EXPECT_EQ(max_steps, 64);
}

TEST(HillClimbPair, MatchesGenericClimbOnPowerLawModels)
{
    util::Rng rng(1802);
    const auto models = powerLawModels(rng, 16);
    for (int draw = 0; draw < 8000; ++draw) {
        const auto &model = *models[rng.uniformInt(models.size())];
        ASSERT_EQ(model.bilinearSurface(), nullptr);
        expectPairMatchesGeneric(model, drawReply(rng, nullptr));
        if (HasFailure())
            return;
    }
}

/** A two-resource model with a constant, possibly non-finite, slope. */
class ConstantSlopeUtility : public UtilityModel
{
  public:
    ConstantSlopeUtility(double g0, double g1) : g0_(g0), g1_(g1) {}
    size_t numResources() const override { return 2; }
    double utility(std::span<const double> alloc) const override
    {
        return g0_ * alloc[0] + g1_ * alloc[1];
    }
    void gradient(std::span<const double>,
                  std::span<double> out) const override
    {
        out[0] = g0_;
        out[1] = g1_;
    }
    std::string name() const override
    {
        return "slope(" + std::to_string(g0_) + ", " +
               std::to_string(g1_) + ")";
    }

  private:
    double g0_, g1_;
};

TEST(HillClimbPair, MatchesGenericClimbOnNonFiniteGradients)
{
    // Tied, infinite and NaN lambdas reach every tie-break and stop
    // test: +inf on both resources ties at +inf, where the lambda
    // agreement test sees inf - inf = NaN and does not stop the climb.
    std::vector<ConstantSlopeUtility> models;
    const double specials[] = {kInf, -kInf, kNaN, 0.0, 1.0, 2.5};
    for (double g0 : specials)
        for (double g1 : specials)
            models.emplace_back(g0, g1);
    util::Rng rng(1806);
    for (int draw = 0; draw < 6000; ++draw) {
        const auto &model = models[rng.uniformInt(models.size())];
        Reply d = drawReply(rng, nullptr);
        if (rng.uniformInt(2) == 0) {
            // Equal shares on both sides: tied lambdas at a finite slope.
            d.others[1] = d.others[0];
            d.caps[1] = d.caps[0];
            if (d.seeded)
                d.seed[0] = d.seed[1] = d.budget / 2.0;
        }
        expectPairMatchesGeneric(model, d);
        if (HasFailure())
            return;
    }
}

TEST(HillClimbPair, NegativeBudgetsKeepTheGenericChecks)
{
    const auto models = catalogModels();
    const UtilityModel &model = *models.front();
    const std::vector<double> others = {10.0, 20.0};
    const std::vector<double> caps = {8.0, 40.0};
    BidResult prod, ref;
    BidScratch scratch;
    // FP noise below zero is a zero budget on both paths.
    optimizeBidsInto(model, -1e-12, others, caps, {}, nullptr, prod,
                     scratch);
    reference::refOptimizeBidsInto(model, -1e-12, others, caps, {}, nullptr,
                                   ref, scratch);
    ASSERT_TRUE(prod.status.ok());
    EXPECT_EQ(prod.bids, ref.bids);
    EXPECT_EQ(bitsOf(prod.lambda), bitsOf(ref.lambda));
    // A genuinely negative budget is rejected before the climb.
    optimizeBidsInto(model, -5.0, others, caps, {}, nullptr, prod, scratch);
    EXPECT_EQ(prod.status.code(), util::StatusCode::InvalidArgument);
    EXPECT_EQ(prod.bids, (std::vector<double>{0.0, 0.0}));
}

/** Surface gradient, marginals and value against the port at (a0, a1). */
void
expectSurfaceMatchesPort(const BilinearSurface &s, double a0, double a1,
                         const std::string &what)
{
    const auto value = [&s](size_t ci, size_t pi) {
        return s.values()[ci * s.knots1().size() + pi];
    };
    const double alloc[2] = {a0, a1};
    double want[2];
    reference::refBilinearGradient(s.knots0(), s.knots1(), value, s.min0(),
                                   s.min1(), alloc, want);
    double g0 = -1.0, g1 = -1.0;
    s.gradient(a0, a1, g0, g1);
    const std::string ctx = what + " at (" + std::to_string(a0) + ", " +
                            std::to_string(a1) + ")";
    EXPECT_EQ(bitsOf(g0), bitsOf(want[0])) << ctx;
    EXPECT_EQ(bitsOf(g1), bitsOf(want[1])) << ctx;
    EXPECT_EQ(bitsOf(s.marginal(0, a0, a1)), bitsOf(want[0])) << ctx;
    EXPECT_EQ(bitsOf(s.marginal(1, a0, a1)), bitsOf(want[1])) << ctx;
    const double u = reference::refBilinearValue(
        s.knots0(), s.knots1(), value, s.min0() + std::max(0.0, a0),
        s.min1() + std::max(0.0, a1));
    EXPECT_EQ(bitsOf(s.utility(a0, a1)), bitsOf(u)) << ctx;
    // Totals are not sanitized: NaN and infinite coordinates reach the
    // clamp and the cell lookup directly.
    EXPECT_EQ(bitsOf(s.valueAt(a0, a1)),
              bitsOf(reference::refBilinearValue(s.knots0(), s.knots1(),
                                                 value, a0, a1)))
        << ctx;
}

/** Coordinates along one axis: knots, cell interiors, and the edges. */
std::vector<double>
probeExtras(const std::vector<double> &knots, double min, util::Rng &rng)
{
    std::vector<double> xs = {0.0,  -0.0,  -1.0,   1e300, -1e300,
                              kNaN, kInf,  -kInf,  5e-324,
                              knots.back() - min + 1.0};
    for (size_t k = 0; k < knots.size(); ++k) {
        xs.push_back(extraOnKnot(min, knots[k]));
        xs.push_back(knots[k]);
        if (k + 1 < knots.size())
            xs.push_back(rng.uniform(knots[k], knots[k + 1]) - min);
    }
    return xs;
}

/**
 * The model's utility(), marginal(k) and gradient() against its
 * surface at (a0, a1), bit for bit: the bilinearSurface() contract
 * that lets callers read the surface in place of the model.
 */
void
expectModelIsItsSurface(const UtilityModel &model, const BilinearSurface &s,
                        double a0, double a1, const std::string &what)
{
    const double alloc[2] = {a0, a1};
    double g0 = -1.0, g1 = -1.0;
    s.gradient(a0, a1, g0, g1);
    double got[2] = {-1.0, -1.0};
    model.gradient(alloc, got);
    const std::string ctx = what + " model at (" + std::to_string(a0) +
                            ", " + std::to_string(a1) + ")";
    EXPECT_EQ(bitsOf(model.utility(alloc)), bitsOf(s.utility(a0, a1)))
        << ctx;
    EXPECT_EQ(bitsOf(model.marginal(0, alloc)),
              bitsOf(s.marginal(0, a0, a1)))
        << ctx;
    EXPECT_EQ(bitsOf(model.marginal(1, alloc)),
              bitsOf(s.marginal(1, a0, a1)))
        << ctx;
    EXPECT_EQ(bitsOf(got[0]), bitsOf(g0)) << ctx;
    EXPECT_EQ(bitsOf(got[1]), bitsOf(g1)) << ctx;
}

/**
 * catalogModels() rebuilt from damaged raw grids as the corrupt-grid
 * fault plan rebuilds them, plus one malformed grid that degrades to
 * the flat fallback surface.
 */
std::vector<std::shared_ptr<const app::AppUtilityModel>>
rawGridModels()
{
    const auto plan = faults::FaultPlan::parse("corrupt-grid", 2016);
    EXPECT_TRUE(plan.ok());
    const faults::FaultInjector injector(plan.value());
    faults::InjectionStats stats;
    std::vector<std::shared_ptr<const app::AppUtilityModel>> models;
    std::uint64_t player = 0;
    for (const auto &model : catalogModels()) {
        auto damaged = injector.perturbModel(model, 7, player++, stats);
        if (damaged != model)
            models.push_back(std::move(damaged));
    }
    EXPECT_GT(stats.total(), 0);
    app::RawUtilityGrid malformed;
    malformed.cacheKnots = {2.0, 1.0};
    malformed.powerKnots = {1.0, 2.0};
    malformed.grid = {0.5};
    auto flat = std::make_shared<app::AppUtilityModel>(std::move(malformed));
    EXPECT_FALSE(flat->gridStatus().ok());
    models.push_back(std::move(flat));
    return models;
}

TEST(BilinearSurface, MatchesUpperBoundPortOnCatalogSurfaces)
{
    util::Rng rng(1803);
    auto models = catalogModels();
    const auto raw = rawGridModels();
    ASSERT_GT(raw.size(), 1u);
    models.insert(models.end(), raw.begin(), raw.end());
    for (const auto &model : models) {
        const BilinearSurface &s = *model->bilinearSurface();
        for (double a0 : probeExtras(s.knots0(), s.min0(), rng)) {
            for (double a1 : probeExtras(s.knots1(), s.min1(), rng)) {
                expectSurfaceMatchesPort(s, a0, a1, model->name());
                expectModelIsItsSurface(*model, s, a0, a1, model->name());
            }
        }
        // The model's own entry points read the same surface.
        const double alloc[2] = {2.5, 3.25};
        double want[2], got[2];
        reference::refAppGradient(*model, alloc, want);
        model->gradient(alloc, got);
        EXPECT_EQ(bitsOf(got[0]), bitsOf(want[0])) << model->name();
        EXPECT_EQ(bitsOf(got[1]), bitsOf(want[1])) << model->name();
        EXPECT_EQ(bitsOf(model->utility(alloc)),
                  bitsOf(reference::refAppUtility(*model, alloc)))
            << model->name();
        if (HasFailure())
            return;
    }
}

TEST(BilinearSurface, MatchesUpperBoundPortWithNonFiniteMinimums)
{
    // Owners validate their minimums; the surface itself must still
    // agree with the port when one is NaN or infinite.
    util::Rng rng(1804);
    const std::vector<double> k0 = {1, 2, 3, 4, 6, 8, 12, 16};
    const std::vector<double> k1 = {0.5, 1.25, 2.0, 3.5, 7.0};
    std::vector<double> v(k0.size() * k1.size());
    for (double &x : v)
        x = rng.uniform(0.0, 1.0);
    for (double min0 : {1.0, kNaN, kInf, -kInf}) {
        for (double min1 : {0.5, kNaN, -kInf}) {
            const BilinearSurface s(k0, k1, v, min0, min1);
            for (double a0 : probeExtras(k0, 1.0, rng))
                for (double a1 : {0.0, 1.0, 3.0, kNaN, kInf})
                    expectSurfaceMatchesPort(s, a0, a1, "synthetic");
        }
    }
}

TEST(BilinearSurface, CellIndexEqualsUpperBoundLookup)
{
    // Non-decreasing knots with repeats, 2 to 12 of them; probes on,
    // between and beyond the knots, and NaN/inf.
    util::Rng rng(1805);
    for (int trial = 0; trial < 4000; ++trial) {
        const size_t n = 2 + rng.uniformInt(11);
        std::vector<double> k(n);
        double x = rng.uniform(-10.0, 10.0);
        for (double &knot : k) {
            knot = x;
            if (rng.uniformInt(4) != 0)
                x += rng.uniform(0.0, 5.0);
        }
        std::vector<double> probes = {kNaN, kInf, -kInf, -0.0, 0.0};
        for (double knot : k) {
            probes.push_back(knot);
            probes.push_back(std::nextafter(knot, kInf));
            probes.push_back(std::nextafter(knot, -kInf));
        }
        for (int p = 0; p < 8; ++p)
            probes.push_back(rng.uniform(k.front() - 3.0, k.back() + 3.0));
        for (double probe : probes) {
            ASSERT_EQ(BilinearSurface::cellIndex(k.data(), n, probe),
                      reference::refCellIndex(k, probe))
                << "n " << n << " x " << probe;
        }
    }
}

TEST(BilinearSurface, CopiedModelOwnsItsSurface)
{
    const auto models = catalogModels();
    auto original = std::make_unique<app::AppUtilityModel>(*models.front());
    const app::AppUtilityModel copy(*original);
    const double alloc[2] = {3.0, 4.5};
    double want[2], got[2];
    original->gradient(alloc, want);
    EXPECT_NE(copy.bilinearSurface(), original->bilinearSurface());
    EXPECT_NE(copy.bilinearSurface()->values().data(),
              original->bilinearSurface()->values().data());
    original.reset();
    copy.gradient(alloc, got);
    EXPECT_EQ(bitsOf(got[0]), bitsOf(want[0]));
    EXPECT_EQ(bitsOf(got[1]), bitsOf(want[1]));
}

} // namespace
} // namespace rebudget::market
