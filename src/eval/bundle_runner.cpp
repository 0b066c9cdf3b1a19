#include "rebudget/eval/bundle_runner.h"

#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <utility>

#include "rebudget/eval/problem_builder.h"
#include "rebudget/market/metrics.h"
#include "rebudget/util/logging.h"
#include "rebudget/util/rng.h"
#include "rebudget/util/thread_pool.h"

namespace rebudget::eval {

// Problem construction now lives in eval::ProblemBuilder (shared with
// the serving daemon); these overloads keep the sweep engine's original
// one-shot, fatal-on-unknown-app contract on top of it.

BundleProblem
makeBundleProblem(const std::vector<std::string> &app_names,
                  const ProfileLookup &lookup, double regions_per_core,
                  double watts_per_core, bool convexify)
{
    ProblemBuilder builder(
        {regions_per_core, watts_per_core, convexify}, lookup);
    const util::SolveStatus status = builder.addApps(app_names);
    if (!status.ok())
        util::fatal("%s", status.toString().c_str());
    return builder.build();
}

BundleProblem
makeBundleProblem(const std::vector<std::string> &app_names,
                  double regions_per_core, double watts_per_core,
                  bool convexify)
{
    ProblemBuilder builder({regions_per_core, watts_per_core, convexify});
    const util::SolveStatus status = builder.addApps(app_names);
    if (!status.ok())
        util::fatal("%s", status.toString().c_str());
    return builder.build();
}

std::vector<std::string>
syntheticAppNames(size_t players, uint64_t seed)
{
    const auto &profiles = app::catalogProfiles();
    util::Rng rng = util::Rng::forStream(
        seed, {util::hashId("synthetic-roster")});
    std::vector<std::string> names;
    names.reserve(players);
    for (size_t i = 0; i < players; ++i)
        names.push_back(
            profiles[rng.uniformInt(profiles.size())].params.name);
    return names;
}

BundleProblem
makeSyntheticBundleProblem(size_t players, uint64_t seed,
                           double regions_per_core, double watts_per_core,
                           bool convexify)
{
    return makeBundleProblem(syntheticAppNames(players, seed),
                             regions_per_core, watts_per_core, convexify);
}

MechanismScore
scoreOutcome(const core::AllocationProblem &problem,
             const core::AllocationOutcome &outcome)
{
    MechanismScore s;
    s.mechanism = outcome.mechanism;
    s.status = outcome.status;
    s.converged = outcome.converged;
    s.stats = outcome.stats;
    s.marketIterations = outcome.marketIterations;
    s.budgetRounds = outcome.budgetRounds;
    if (!s.status.ok())
        return s; // failed allocation: nothing to score
    const market::OwnBestUtilities u =
        market::ownAndBestUtilities(problem.models, outcome.alloc);
    s.efficiency = u.efficiency();
    s.envyFreeness = u.envyFreeness();
    if (!outcome.lambdas.empty()) {
        const auto mur = market::marketUtilityRange(outcome.lambdas);
        if (mur.ok())
            s.mur = mur.value();
        else
            s.status = mur.status();
    }
    if (!outcome.budgets.empty()) {
        const auto mbr = market::marketBudgetRange(outcome.budgets);
        if (mbr.ok())
            s.mbr = mbr.value();
        else
            s.status = mbr.status();
    }
    return s;
}

MechanismScore
score(const core::Allocator &mechanism,
      const core::AllocationProblem &problem)
{
    return scoreOutcome(problem, mechanism.allocate(problem));
}

BundleRunner::BundleRunner(std::vector<const core::Allocator *> mechanisms,
                           const BundleRunnerOptions &options)
    : mechanisms_(std::move(mechanisms)), options_(options)
{
    if (mechanisms_.empty()) {
        status_ = util::SolveStatus::error(
            util::StatusCode::InvalidArgument,
            "BundleRunner needs at least one mechanism");
        return;
    }
    names_.reserve(mechanisms_.size());
    for (const auto *m : mechanisms_) {
        if (m == nullptr) {
            status_ = util::SolveStatus::error(
                util::StatusCode::InvalidArgument,
                "BundleRunner has a null mechanism");
            names_.clear();
            return;
        }
        names_.push_back(m->name());
    }
}

std::optional<size_t>
BundleRunner::mechanismIndex(const std::string &name) const
{
    for (size_t m = 0; m < names_.size(); ++m) {
        if (names_[m] == name)
            return m;
    }
    return std::nullopt;
}

BundleEvaluation
BundleRunner::evaluate(const workloads::Bundle &bundle) const
{
    BundleEvaluation ev;
    ev.bundle = bundle.name;
    ev.category = bundle.category;
    if (!status_.ok()) {
        ev.skipped = true;
        ev.skipReason = status_.toString();
        return ev;
    }

    BundleProblem bp;
    try {
        bp = makeBundleProblem(bundle.appNames, options_.regionsPerCore,
                               options_.wattsPerCore, options_.convexify);
    } catch (const util::FatalError &e) {
        ev.skipped = true;
        ev.skipReason = e.what();
        util::warn("skipping bundle %s: %s", bundle.name.c_str(),
                   e.what());
        return ev;
    }
    bp.problem.marketConfig = options_.marketConfig;
    // One solver workspace per bundle evaluation: every mechanism's
    // solves (ReBudget runs a dozen rounds) reuse the same buffers.
    // evaluate() runs concurrently across bundles, so the workspace
    // must stay local to the call, never shared across workers.
    market::SolveWorkspace ws;
    bp.problem.workspace = &ws;

    if (const auto err = core::tryValidateProblem(bp.problem)) {
        ev.skipped = true;
        ev.skipReason = *err;
        util::warn("skipping bundle %s: %s", bundle.name.c_str(),
                   err->c_str());
        return ev;
    }

    // Fault injection: the mechanisms allocate against damaged (and
    // possibly lying) models, while scoring below always measures the
    // resulting allocation against the TRUTH models in bp.problem.
    // Streams are keyed by (plan seed, bundle-name hash, player), so
    // identical sweeps inject identical damage at any job count.
    core::AllocationProblem faulted_problem = bp.problem;
    std::vector<std::shared_ptr<const market::UtilityModel>> faulted_keep;
    if (options_.faultPlan.enabled()) {
        const faults::FaultInjector injector(options_.faultPlan);
        const std::uint64_t scope = util::hashId(bundle.name);
        faulted_keep.reserve(bp.models.size());
        for (size_t i = 0; i < bp.models.size(); ++i) {
            std::shared_ptr<const app::AppUtilityModel> damaged =
                injector.perturbModel(bp.models[i], scope, i,
                                      ev.injectionStats,
                                      &ev.hardeningStats);
            std::shared_ptr<const market::UtilityModel> reported =
                injector.maybeLiar(damaged, scope, i, ev.injectionStats);
            faulted_keep.push_back(reported);
            faulted_problem.models[i] = reported.get();
        }
    }
    const core::AllocationProblem &solve_problem =
        faulted_keep.empty() ? bp.problem : faulted_problem;

    ev.scores.reserve(mechanisms_.size());
    if (options_.keepOutcomes)
        ev.outcomes.reserve(mechanisms_.size());
    for (const auto *m : mechanisms_) {
        try {
            core::AllocationOutcome out = m->allocate(solve_problem);
            MechanismScore s = scoreOutcome(bp.problem, out);
            if (!s.status.ok()) {
                // A pathological bundle degrades to a recorded
                // per-bundle failure: the sweep continues and the
                // reason survives in the evaluation.
                ev.skipped = true;
                ev.skipReason = m->name() + ": " + s.status.toString();
                ev.scores.clear();
                ev.outcomes.clear();
                util::warn("skipping bundle %s: mechanism %s failed: %s",
                           bundle.name.c_str(), m->name().c_str(),
                           s.status.toString().c_str());
                return ev;
            }
            ev.scores.push_back(std::move(s));
            if (options_.keepOutcomes)
                ev.outcomes.push_back(std::move(out));
        } catch (const util::FatalError &e) {
            // Belt-and-suspenders: layers outside the solve pipeline
            // (e.g. app-level profile code) may still throw.
            ev.skipped = true;
            ev.skipReason = e.what();
            ev.scores.clear();
            ev.outcomes.clear();
            util::warn("skipping bundle %s: mechanism %s failed: %s",
                       bundle.name.c_str(), m->name().c_str(), e.what());
            return ev;
        }
    }
    return ev;
}

std::vector<BundleEvaluation>
BundleRunner::run(const std::vector<workloads::Bundle> &bundles) const
{
    // Warm the profile catalog before spawning workers so no worker
    // pays (or serializes on) the one-time profiling behind its magic
    // static.
    app::catalogProfiles();

    std::vector<BundleEvaluation> results(bundles.size());
    util::ThreadPool pool(options_.jobs);
    pool.parallelFor(bundles.size(), [&](size_t i) {
        results[i] = evaluate(bundles[i]);
    });
    return results;
}

std::vector<MechanismSweepStats>
aggregateSweepStats(const std::vector<BundleEvaluation> &evals,
                    const std::vector<std::string> &mechanism_names)
{
    std::vector<MechanismSweepStats> agg(mechanism_names.size());
    for (size_t m = 0; m < mechanism_names.size(); ++m)
        agg[m].mechanism = mechanism_names[m];
    for (const auto &ev : evals) {
        if (ev.skipped)
            continue;
        const size_t count =
            std::min(ev.scores.size(), mechanism_names.size());
        for (size_t m = 0; m < count; ++m) {
            agg[m].bundlesEvaluated += 1;
            if (ev.scores[m].converged)
                agg[m].bundlesConverged += 1;
            agg[m].stats.merge(ev.scores[m].stats);
        }
    }
    return agg;
}

SweepFaultStats
aggregateFaultStats(const std::vector<BundleEvaluation> &evals)
{
    SweepFaultStats agg;
    for (const auto &ev : evals) {
        if (ev.injectionStats.total() > 0)
            agg.bundlesFaulted += 1;
        agg.injected.merge(ev.injectionStats);
        agg.hardening.merge(ev.hardeningStats);
    }
    return agg;
}

std::string
sweepStatsJson(const std::vector<MechanismSweepStats> &stats,
               std::int64_t skipped_bundles,
               const SweepFaultStats *fault_stats)
{
    std::string out = "{\n";
    out += "  \"schema\": \"rebudget.solver_stats.v3\",\n";
    out += "  \"skipped_bundles\": " + std::to_string(skipped_bundles) +
           ",\n";
    if (fault_stats != nullptr) {
        const auto &f = *fault_stats;
        auto field = [&](const char *key, std::int64_t v,
                         bool comma = true) {
            out += std::string("    \"") + key +
                   "\": " + std::to_string(v) + (comma ? ",\n" : "\n");
        };
        out += "  \"faults\": {\n";
        field("bundles_faulted", f.bundlesFaulted);
        field("curve_cells_perturbed", f.injected.curveCellsPerturbed);
        field("curve_samples_dropped", f.injected.curveSamplesDropped);
        field("grid_cells_corrupted", f.injected.gridCellsCorrupted);
        field("grid_columns_zeroed", f.injected.gridColumnsZeroed);
        field("grid_rows_scrambled", f.injected.gridRowsScrambled);
        field("liar_players", f.injected.liarPlayers);
        field("power_readings_biased", f.injected.powerReadingsBiased);
        field("stale_profiles", f.injected.staleProfiles);
        out += "    \"hardening\": " + f.hardening.toJson(4) + "\n";
        out += "  },\n";
    }
    out += "  \"mechanisms\": [\n";
    for (size_t m = 0; m < stats.size(); ++m) {
        const auto &s = stats[m];
        out += "    {\n";
        out += "      \"mechanism\": \"" + s.mechanism + "\",\n";
        out += "      \"bundles_evaluated\": " +
               std::to_string(s.bundlesEvaluated) + ",\n";
        out += "      \"bundles_converged\": " +
               std::to_string(s.bundlesConverged) + ",\n";
        out += "      \"solver\": " + s.stats.toJson(6) + "\n";
        out += m + 1 < stats.size() ? "    },\n" : "    }\n";
    }
    out += "  ]\n";
    out += "}";
    return out;
}

util::Expected<unsigned>
parseJobsArg(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) != "--jobs")
            continue;
        if (i + 1 >= argc) {
            return util::SolveStatus::error(
                util::StatusCode::InvalidArgument,
                "--jobs requires a value");
        }
        char *end = nullptr;
        const long v = std::strtol(argv[i + 1], &end, 10);
        if (end == argv[i + 1] || *end != '\0' || v < 1) {
            return util::SolveStatus::error(
                util::StatusCode::InvalidArgument,
                "--jobs needs a positive integer, got '%s'", argv[i + 1]);
        }
        return static_cast<unsigned>(v);
    }
    return 0u;
}

} // namespace rebudget::eval
