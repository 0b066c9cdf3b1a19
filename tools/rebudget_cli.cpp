/**
 * @file
 * rebudget_cli: run any allocation mechanism on any workload from the
 * command line, analytically or in the execution-driven simulator.
 *
 * Examples:
 *   rebudget_cli --list-apps
 *   rebudget_cli --apps mcf,vpr,hmmer,milc --mechanism ReBudget-40
 *   rebudget_cli --bundle BBPN-03 --cores 8 --mechanism EqualBudget
 *   rebudget_cli --apps mcf,vpr,hmmer,milc --ef-target 0.6
 *   rebudget_cli --apps mcf,vpr,swim,milc --mechanism ReBudget-40 --sim
 *   rebudget_cli --sweep --cores 64 --jobs 4 --csv
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <map>

#include "rebudget/app/catalog.h"
#include "rebudget/app/params_io.h"
#include "rebudget/app/utility.h"
#include "rebudget/core/baselines.h"
#include "rebudget/core/ep_allocator.h"
#include "rebudget/core/groups.h"
#include "rebudget/core/karma_allocator.h"
#include "rebudget/core/max_efficiency.h"
#include "rebudget/core/rebudget_allocator.h"
#include "rebudget/eval/bundle_runner.h"
#include "rebudget/faults/fault_plan.h"
#include "rebudget/market/metrics.h"
#include "rebudget/power/power_model.h"
#include "rebudget/sim/epoch_sim.h"
#include "rebudget/util/arg_parse.h"
#include "rebudget/util/logging.h"
#include "rebudget/util/stats.h"
#include "rebudget/util/table.h"
#include "rebudget/workloads/bundles.h"
#include "rebudget/workloads/classify.h"

using namespace rebudget;

namespace {

struct Options
{
    std::string mechanism = "ReBudget-40";
    std::vector<std::string> apps;
    std::string appsFile; // custom app definitions (params_io format)
    std::vector<uint32_t> threads; // thread count per app (app-granularity)
    std::string bundle;   // e.g. "BBPN-03"
    uint32_t cores = 0; // 0 = number of apps
    double step = 40.0;
    double efTarget = -1.0;
    bool sim = false;
    bool sweep = false;
    bool noiseSweep = false;
    uint32_t epochs = 12;
    uint64_t seed = 42;
    uint32_t bundlesPerCategory = 40;
    std::string faultsSpec; // --faults key=value,... (see faults::FaultPlan)
    std::string churnSpec;  // --churn key=value,... (see eval::ChurnSpec)
    bool csv = false;
    unsigned jobs = 0; // 0 = REBUDGET_JOBS env or allowed CPUs
    bool warmStart = true;
    bool statsJson = false; // --stats json
    size_t players = 0;     // --players N synthetic-scale mode (0 = off)
};

void
usage()
{
    std::cout <<
        "rebudget_cli -- market-based multicore resource allocation\n\n"
        "  --list-apps             print the application catalog\n"
        "  --list-mechanisms       print available mechanisms\n"
        "  --apps a,b,c            run these apps (one per core)\n"
        "  --apps-file F           load custom app definitions (INI\n"
        "                          format, see app/params_io.h); names\n"
        "                          there shadow the catalog\n"
        "  --threads k1,k2,...     thread count per app: replicate each\n"
        "                          app over k cores and allocate at\n"
        "                          application granularity\n"
        "  --players N             synthetic-scale mode: run the\n"
        "                          mechanism on an N-player market\n"
        "                          whose roster is drawn from the app\n"
        "                          catalog deterministically from\n"
        "                          --seed (same N and seed => same\n"
        "                          problem on every machine).  Prints a\n"
        "                          summary instead of the per-core\n"
        "                          table; large-n solves become\n"
        "                          reproducible from the CLI without\n"
        "                          the perf preset\n"
        "  --bundle CAT-NN         run a generated bundle, e.g. BBPN-03\n"
        "  --cores N               machine size for --bundle (default:\n"
        "                          number of apps; multiple of 4)\n"
        "  --mechanism NAME        EqualShare | EqualBudget | Balanced |\n"
        "                          EP | MaxEfficiency | Karma |\n"
        "                          ReBudget-<step>\n"
        "  --step X                ReBudget step (with mechanism\n"
        "                          ReBudget)\n"
        "  --ef-target Y           ReBudget fairness-SLA mode\n"
        "  --sim                   execution-driven simulation instead\n"
        "                          of the analytic model\n"
        "  --sweep                 evaluate the full generated bundle\n"
        "                          suite under all mechanisms (analytic)\n"
        "  --bundles N             bundles per category for --sweep /\n"
        "                          --noise-sweep (default 40)\n"
        "  --faults SPEC           inject faults into the monitoring->\n"
        "                          market pipeline: comma-separated\n"
        "                          key=value knobs (curve-noise,\n"
        "                          curve-drop, grid-nan, grid-zero-col,\n"
        "                          grid-scramble, power-bias, stale,\n"
        "                          liar, liar-gain, ...) or the presets\n"
        "                          'noise', 'liar', 'corrupt-grid'.\n"
        "                          Applies to --sweep, --noise-sweep and\n"
        "                          --sim; seeded from --seed\n"
        "  --churn SPEC            replay bundles as dynamic-roster\n"
        "                          scenarios with tenant arrivals and\n"
        "                          departures: comma-separated key=value\n"
        "                          knobs (epochs, join, leave,\n"
        "                          min-players, max-players, seed), e.g.\n"
        "                          'epochs=12,join=0.2,leave=0.2'.  Runs\n"
        "                          the whole suite (or --bundle) under\n"
        "                          EqualShare, EqualBudget, ReBudget and\n"
        "                          the credit-banking Karma mechanism,\n"
        "                          reporting per-epoch means plus\n"
        "                          time-integrated fairness (lifetime\n"
        "                          EF, cumulative MUR/MBR); composes\n"
        "                          with --faults\n"
        "  --noise-sweep           run the bundle sweep at fault levels\n"
        "                          0, 0.25, 0.5, 0.75, 1.0 of the\n"
        "                          --faults spec and report the\n"
        "                          efficiency/fairness degradation per\n"
        "                          mechanism\n"
        "  --jobs N                worker threads for --sweep (default:\n"
        "                          REBUDGET_JOBS env, else the CPUs\n"
        "                          this process may run on); results\n"
        "                          are identical\n"
        "                          at any job count\n"
        "  --epochs N              measured epochs for --sim\n"
        "  --seed S                workload seed\n"
        "  --warm-start on|off     seed equilibrium solves from the\n"
        "                          previous solve (ReBudget rounds,\n"
        "                          --sim epochs).  Default on; 'off'\n"
        "                          cold-starts every solve from the\n"
        "                          equal split -- the A/B baseline for\n"
        "                          bench/perf_equilibrium\n"
        "  --csv                   machine-readable output\n"
        "  --stats json            append solver health telemetry\n"
        "                          (sweep iterations, warm/cold starts,\n"
        "                          fail-safe trips, timers) as a\n"
        "                          schema-stable JSON object\n"
        "                          (rebudget.solver_stats.v3; the noise\n"
        "                          sweep emits rebudget.noise_sweep.v1)\n";
}

std::vector<std::string>
splitCsv(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (!item.empty())
            out.push_back(item);
    }
    return out;
}

/**
 * Profile lookup that lets --apps-file definitions shadow the catalog;
 * custom apps are profiled on first use and cached.
 */
class ProfileSource
{
  public:
    explicit ProfileSource(const Options &opt)
    {
        if (!opt.appsFile.empty())
            custom_ = app::loadAppParamsFile(opt.appsFile);
    }

    /** @return names of all custom apps (for a default app list). */
    std::vector<std::string>
    customNames() const
    {
        std::vector<std::string> out;
        for (const auto &p : custom_)
            out.push_back(p.name);
        return out;
    }

    const app::AppProfile &
    profile(const std::string &name)
    {
        const auto it = cache_.find(name);
        if (it != cache_.end())
            return it->second;
        for (const auto &p : custom_) {
            if (p.name == name) {
                return cache_.emplace(name, app::profileApp(p))
                    .first->second;
            }
        }
        return app::findCatalogProfile(name);
    }

  private:
    std::vector<app::AppParams> custom_;
    std::map<std::string, app::AppProfile> cache_;
};

/** One-line solve health note for the human-readable summaries. */
std::string
solveHealthNote(bool converged, std::int64_t fail_safe_trips)
{
    std::string out = converged ? ", converged" : ", NOT converged";
    out += " (" + std::to_string(fail_safe_trips) + " fail-safe trips)";
    return out;
}

/** Single-run `--stats json`: one-mechanism sweep-stats object. */
void
printOutcomeStatsJson(const core::AllocationOutcome &out)
{
    eval::MechanismSweepStats s;
    s.mechanism = out.mechanism;
    s.bundlesEvaluated = 1;
    s.bundlesConverged = out.converged ? 1 : 0;
    s.stats = out.stats;
    std::cout << eval::sweepStatsJson({s}, 0) << "\n";
}

std::unique_ptr<core::Allocator>
makeMechanism(const Options &opt)
{
    if (opt.efTarget >= 0.0) {
        return std::make_unique<core::ReBudgetAllocator>(
            core::ReBudgetAllocator::withFairnessTarget(opt.efTarget));
    }
    const std::string &m = opt.mechanism;
    if (m == "EqualShare")
        return std::make_unique<core::EqualShareAllocator>();
    if (m == "EqualBudget")
        return std::make_unique<core::EqualBudgetAllocator>();
    if (m == "Balanced")
        return std::make_unique<core::BalancedBudgetAllocator>();
    if (m == "EP")
        return std::make_unique<core::EpAllocator>();
    if (m == "MaxEfficiency")
        return std::make_unique<core::MaxEfficiencyAllocator>();
    if (m == "Karma")
        return std::make_unique<core::KarmaAllocator>();
    if (m.rfind("ReBudget", 0) == 0) {
        double step = opt.step;
        const auto dash = m.find('-');
        if (dash != std::string::npos)
            step = util::doubleFlag("ReBudget step", m.substr(dash + 1));
        return std::make_unique<core::ReBudgetAllocator>(
            core::ReBudgetAllocator::withStep(step));
    }
    util::fatal("unknown mechanism '%s' (try --list-mechanisms)",
                m.c_str());
}

int
listApps()
{
    const power::PowerModel power;
    util::TablePrinter t({"app", "class", "S_cache", "S_power",
                          "working_set_kB", "mem/instr"});
    for (const auto &profile : app::catalogProfiles()) {
        const app::AppUtilityModel model(profile, power);
        const auto s = workloads::measureSensitivity(model);
        t.addRow({profile.params.name,
                  std::string(1, app::appClassCode(
                                     profile.params.designClass)),
                  util::formatDouble(s.cache, 3),
                  util::formatDouble(s.power, 3),
                  std::to_string(profile.params.workingSetBytes / 1024),
                  util::formatDouble(profile.params.memPerInstr, 3)});
    }
    t.print(std::cout);
    return 0;
}

int
runAnalytic(const Options &opt, ProfileSource &source,
            const std::vector<std::string> &apps)
{
    const eval::ProfileLookup lookup =
        [&source](const std::string &nm) -> const app::AppProfile & {
        return source.profile(nm);
    };
    eval::BundleProblem bp = eval::makeBundleProblem(apps, lookup);
    const auto &models = bp.models;
    core::AllocationProblem &problem = bp.problem;
    problem.marketConfig.warmStart = opt.warmStart;

    const auto mechanism = makeMechanism(opt);
    core::AllocationOutcome out;
    if (opt.threads.empty()) {
        out = mechanism->allocate(problem);
    } else {
        // Application-granularity allocation: each entry of --threads
        // replicates the corresponding app over that many cores and
        // makes the tenant one market player.
        if (opt.threads.size() != apps.size()) {
            util::fatal("--threads needs one count per app (%zu vs "
                        "%zu)",
                        opt.threads.size(), apps.size());
        }
        // Rebuild the per-core problem with replicated cores.
        std::vector<std::string> per_core_apps;
        std::vector<core::ThreadGroup> groups;
        uint32_t core_id = 0;
        for (size_t a = 0; a < apps.size(); ++a) {
            core::ThreadGroup g;
            g.name = apps[a];
            for (uint32_t k = 0; k < opt.threads[a]; ++k) {
                per_core_apps.push_back(apps[a]);
                g.cores.push_back(core_id++);
            }
            groups.push_back(std::move(g));
        }
        eval::BundleProblem per_core =
            eval::makeBundleProblem(per_core_apps, lookup);
        per_core.problem.marketConfig.warmStart = opt.warmStart;
        const core::GroupedProblem grouped =
            core::makeGroupedProblem(per_core.problem, groups);
        if (!grouped.status.ok())
            util::fatal("bad grouping: %s", grouped.status.toString().c_str());
        const auto group_out = mechanism->allocate(grouped.problem);
        if (!group_out.status.ok()) {
            util::fatal("allocation failed: %s",
                        group_out.status.toString().c_str());
        }
        // Report at tenant granularity.
        util::TablePrinter t({"tenant", "threads", "cache_regions",
                              "watts", "utility", "budget"});
        const auto utils = market::perPlayerUtilities(
            grouped.problem.models, group_out.alloc);
        for (size_t g = 0; g < grouped.groups.size(); ++g) {
            t.addRow({grouped.groups[g].name,
                      std::to_string(grouped.groups[g].cores.size()),
                      util::formatDouble(group_out.alloc[g][0], 2),
                      util::formatDouble(group_out.alloc[g][1], 2),
                      util::formatDouble(utils[g], 3),
                      group_out.budgets.empty()
                          ? std::string("-")
                          : util::formatDouble(group_out.budgets[g],
                                               2)});
        }
        if (opt.csv)
            t.printCsv(std::cout);
        else
            t.print(std::cout);
        std::cout << "\nmechanism " << group_out.mechanism
                  << " (application granularity): efficiency "
                  << util::formatDouble(
                         market::efficiency(grouped.problem.models,
                                            group_out.alloc), 3)
                  << ", envy-freeness "
                  << util::formatDouble(
                         market::envyFreeness(grouped.problem.models,
                                              group_out.alloc), 3)
                  << solveHealthNote(group_out.converged,
                                     group_out.stats.failSafeTrips)
                  << "\n";
        if (opt.statsJson)
            printOutcomeStatsJson(group_out);
        return 0;
    }
    if (!out.status.ok())
        util::fatal("allocation failed: %s", out.status.toString().c_str());
    const auto utils = market::perPlayerUtilities(problem.models,
                                                  out.alloc);

    util::TablePrinter t({"core", "app", "cache_regions", "watts",
                          "utility", "budget"});
    for (size_t i = 0; i < apps.size(); ++i) {
        t.addRow({std::to_string(i), apps[i],
                  util::formatDouble(1.0 + out.alloc[i][0], 2),
                  util::formatDouble(models[i]->minWatts() +
                                         out.alloc[i][1], 2),
                  util::formatDouble(utils[i], 3),
                  out.budgets.empty()
                      ? std::string("-")
                      : util::formatDouble(out.budgets[i], 2)});
    }
    if (opt.csv)
        t.printCsv(std::cout);
    else
        t.print(std::cout);

    std::cout << "\nmechanism " << out.mechanism << ": efficiency "
              << util::formatDouble(
                     market::efficiency(problem.models, out.alloc), 3)
              << ", envy-freeness "
              << util::formatDouble(
                     market::envyFreeness(problem.models, out.alloc), 3);
    if (!out.lambdas.empty()) {
        if (const auto mur = market::marketUtilityRange(out.lambdas);
            mur.ok()) {
            std::cout << ", MUR " << util::formatDouble(mur.value(), 2)
                      << " (PoA bound "
                      << util::formatDouble(
                             market::poaLowerBound(mur.value()), 2)
                      << ")";
        }
    }
    if (!out.budgets.empty()) {
        if (const auto mbr = market::marketBudgetRange(out.budgets);
            mbr.ok()) {
            std::cout << ", MBR " << util::formatDouble(mbr.value(), 2)
                      << " (EF bound "
                      << util::formatDouble(
                             market::envyFreenessLowerBound(mbr.value()),
                             2)
                      << ")";
        }
    }
    std::cout << solveHealthNote(out.converged, out.stats.failSafeTrips)
              << "\n";
    if (opt.statsJson)
        printOutcomeStatsJson(out);
    return 0;
}

/**
 * --players N: allocate a deterministic synthetic N-player market
 * (eval::makeSyntheticBundleProblem) and print a summary.  The roster
 * names only catalog apps, so the memoized model cache keeps setup at
 * O(N) pointer copies; the per-core table is deliberately skipped --
 * at 100k players it would be noise, and the summary metrics are what
 * a scaling experiment reads.
 */
int
runSyntheticScale(const Options &opt)
{
    eval::BundleProblem bp =
        eval::makeSyntheticBundleProblem(opt.players, opt.seed);
    bp.problem.marketConfig.warmStart = opt.warmStart;
    const auto mechanism = makeMechanism(opt);
    const double t0 = util::monotonicSeconds();
    const core::AllocationOutcome out = mechanism->allocate(bp.problem);
    const double seconds = util::monotonicSeconds() - t0;
    if (!out.status.ok()) {
        util::fatal("allocation failed: %s",
                    out.status.toString().c_str());
    }

    util::TablePrinter t({"players", "mechanism", "seed", "efficiency",
                          "envy_freeness", "seconds"});
    t.addRow({std::to_string(opt.players), out.mechanism,
              std::to_string(opt.seed),
              util::formatDouble(
                  market::efficiency(bp.problem.models, out.alloc), 4),
              util::formatDouble(
                  market::envyFreeness(bp.problem.models, out.alloc),
                  4),
              util::formatDouble(seconds, 3)});
    if (opt.csv)
        t.printCsv(std::cout);
    else
        t.print(std::cout);

    std::cout << "\n" << opt.players << " players";
    if (!out.lambdas.empty()) {
        if (const auto mur = market::marketUtilityRange(out.lambdas);
            mur.ok()) {
            std::cout << ", MUR " << util::formatDouble(mur.value(), 2);
        }
    }
    if (!out.budgets.empty()) {
        if (const auto mbr = market::marketBudgetRange(out.budgets);
            mbr.ok()) {
            std::cout << ", MBR " << util::formatDouble(mbr.value(), 2);
        }
    }
    std::cout << solveHealthNote(out.converged,
                                 out.stats.failSafeTrips)
              << "\n";
    if (opt.statsJson)
        printOutcomeStatsJson(out);
    return 0;
}

/** The fixed mechanism set evaluated by --sweep and --noise-sweep. */
struct SweepMechanisms
{
    core::EqualShareAllocator equalShare;
    core::EqualBudgetAllocator equalBudget;
    core::BalancedBudgetAllocator balanced;
    core::ReBudgetAllocator rb20 = core::ReBudgetAllocator::withStep(20);
    core::ReBudgetAllocator rb40 = core::ReBudgetAllocator::withStep(40);
    core::MaxEfficiencyAllocator maxEff;

    std::vector<const core::Allocator *>
    all() const
    {
        return {&equalShare, &equalBudget, &balanced, &rb20, &rb40,
                &maxEff};
    }
};

/** The generated bundle suite for a sweep invocation. */
std::vector<workloads::Bundle>
sweepBundles(const Options &opt)
{
    const uint32_t cores = opt.cores ? opt.cores : 64;
    const auto catalog = workloads::classifyCatalog();
    return workloads::generateAllBundles(catalog, cores,
                                         opt.bundlesPerCategory,
                                         opt.seed);
}

/**
 * --sweep: the full generated bundle suite through every mechanism on
 * eval::BundleRunner, normalized to MaxEfficiency (looked up by name).
 */
int
runSweep(const Options &opt, const faults::FaultPlan &plan)
{
    const auto bundles = sweepBundles(opt);
    const SweepMechanisms mechanisms;

    eval::BundleRunnerOptions ropts;
    ropts.jobs = opt.jobs;
    ropts.marketConfig.warmStart = opt.warmStart;
    ropts.faultPlan = plan;
    const eval::BundleRunner runner(mechanisms.all(), ropts);
    const auto opt_idx_lookup = runner.mechanismIndex("MaxEfficiency");
    if (!opt_idx_lookup)
        util::fatal("sweep mechanism set lost MaxEfficiency");
    const size_t opt_idx = *opt_idx_lookup;
    const auto evals = runner.run(bundles);

    std::vector<std::string> header = {"bundle", "category"};
    for (const auto &nm : runner.mechanismNames()) {
        header.push_back(nm + "_eff");
        header.push_back(nm + "_EF");
    }
    util::TablePrinter t(header);
    std::vector<util::SummaryStats> eff_stats(
        runner.mechanismNames().size());
    std::vector<util::SummaryStats> ef_stats(
        runner.mechanismNames().size());
    for (const auto &ev : evals) {
        if (ev.skipped)
            continue;
        const double opt_eff = ev.scores[opt_idx].efficiency;
        std::vector<std::string> row = {
            ev.bundle, workloads::categoryName(ev.category)};
        for (size_t m = 0; m < ev.scores.size(); ++m) {
            const double eff = opt_eff > 0
                                   ? ev.scores[m].efficiency / opt_eff
                                   : 0.0;
            row.push_back(util::formatDouble(eff, 3));
            row.push_back(
                util::formatDouble(ev.scores[m].envyFreeness, 3));
            eff_stats[m].add(eff);
            ef_stats[m].add(ev.scores[m].envyFreeness);
        }
        t.addRow(row);
    }
    if (opt.csv)
        t.printCsv(std::cout);
    else
        t.print(std::cout);

    const std::int64_t skipped =
        static_cast<std::int64_t>(std::count_if(
            evals.begin(), evals.end(),
            [](const eval::BundleEvaluation &ev) { return ev.skipped; }));
    const auto sweep_stats =
        eval::aggregateSweepStats(evals, runner.mechanismNames());

    util::TablePrinter s({"mechanism", "mean_eff_vs_opt", "worst_eff",
                          "mean_EF", "worst_EF", "converged_bundles",
                          "fail_safe_trips"});
    for (size_t m = 0; m < runner.mechanismNames().size(); ++m) {
        s.addRow({runner.mechanismNames()[m],
                  util::formatDouble(eff_stats[m].mean(), 3),
                  util::formatDouble(eff_stats[m].min(), 3),
                  util::formatDouble(ef_stats[m].mean(), 3),
                  util::formatDouble(ef_stats[m].min(), 3),
                  std::to_string(sweep_stats[m].bundlesConverged) + "/" +
                      std::to_string(sweep_stats[m].bundlesEvaluated),
                  std::to_string(sweep_stats[m].stats.failSafeTrips)});
    }
    std::cout << "\n";
    if (opt.csv)
        s.printCsv(std::cout);
    else
        s.print(std::cout);
    if (skipped > 0) {
        std::cout << "\n" << skipped << " of " << evals.size()
                  << " bundles skipped (see warnings above)\n";
    }
    if (plan.enabled()) {
        const auto fault_agg = eval::aggregateFaultStats(evals);
        std::cout << "\nfaults (" << plan.describe() << "): "
                  << fault_agg.bundlesFaulted << " bundles faulted, "
                  << fault_agg.injected.liarPlayers << " liars, "
                  << fault_agg.hardening.sanitizedGrids
                  << " grids sanitized, "
                  << fault_agg.hardening.repairedCurves
                  << " curves repaired\n";
        if (opt.statsJson) {
            std::cout << eval::sweepStatsJson(sweep_stats, skipped,
                                              &fault_agg)
                      << "\n";
        }
    } else if (opt.statsJson) {
        std::cout << eval::sweepStatsJson(sweep_stats, skipped) << "\n";
    }
    return 0;
}

/**
 * --noise-sweep: run the bundle suite at increasing fractions of the
 * --faults spec and report how each mechanism's efficiency and
 * fairness degrade.  Level 0 is the clean baseline (the plan scaled to
 * zero is disabled, so its numbers are bit-identical to a plain
 * --sweep).
 */
int
runNoiseSweep(const Options &opt, const faults::FaultPlan &plan)
{
    if (!plan.enabled()) {
        util::fatal("--noise-sweep needs --faults with at least one "
                    "active knob");
    }
    const auto bundles = sweepBundles(opt);
    const SweepMechanisms mechanisms;
    const std::vector<double> levels = {0.0, 0.25, 0.5, 0.75, 1.0};

    util::TablePrinter t({"level", "mechanism", "mean_eff_vs_opt",
                          "mean_EF", "mean_MUR", "mean_MBR",
                          "bundles_faulted", "liars", "grids_sanitized",
                          "curves_repaired"});
    std::string json = "{\n  \"schema\": \"rebudget.noise_sweep.v1\",\n";
    json += "  \"faults\": \"" + plan.describe() + "\",\n";
    json += "  \"levels\": [\n";
    for (size_t li = 0; li < levels.size(); ++li) {
        const double level = levels[li];
        eval::BundleRunnerOptions ropts;
        ropts.jobs = opt.jobs;
        ropts.marketConfig.warmStart = opt.warmStart;
        ropts.faultPlan = plan.scaled(level);
        const eval::BundleRunner runner(mechanisms.all(), ropts);
        const auto opt_idx_lookup = runner.mechanismIndex("MaxEfficiency");
        if (!opt_idx_lookup)
            util::fatal("sweep mechanism set lost MaxEfficiency");
        const size_t opt_idx = *opt_idx_lookup;
        const auto evals = runner.run(bundles);

        const size_t n_mech = runner.mechanismNames().size();
        std::vector<util::SummaryStats> eff_stats(n_mech);
        std::vector<util::SummaryStats> ef_stats(n_mech);
        std::vector<util::SummaryStats> mur_stats(n_mech);
        std::vector<util::SummaryStats> mbr_stats(n_mech);
        for (const auto &ev : evals) {
            if (ev.skipped)
                continue;
            const double opt_eff = ev.scores[opt_idx].efficiency;
            for (size_t m = 0; m < ev.scores.size(); ++m) {
                eff_stats[m].add(opt_eff > 0
                                     ? ev.scores[m].efficiency / opt_eff
                                     : 0.0);
                ef_stats[m].add(ev.scores[m].envyFreeness);
                mur_stats[m].add(ev.scores[m].mur);
                mbr_stats[m].add(ev.scores[m].mbr);
            }
        }
        const auto fault_agg = eval::aggregateFaultStats(evals);
        for (size_t m = 0; m < n_mech; ++m) {
            t.addRow({util::formatDouble(level, 2),
                      runner.mechanismNames()[m],
                      util::formatDouble(eff_stats[m].mean(), 3),
                      util::formatDouble(ef_stats[m].mean(), 3),
                      util::formatDouble(mur_stats[m].mean(), 2),
                      util::formatDouble(mbr_stats[m].mean(), 3),
                      std::to_string(fault_agg.bundlesFaulted),
                      std::to_string(fault_agg.injected.liarPlayers),
                      std::to_string(fault_agg.hardening.sanitizedGrids),
                      std::to_string(
                          fault_agg.hardening.repairedCurves)});
        }
        const std::int64_t skipped =
            static_cast<std::int64_t>(std::count_if(
                evals.begin(), evals.end(),
                [](const eval::BundleEvaluation &ev) {
                    return ev.skipped;
                }));
        const auto sweep_stats =
            eval::aggregateSweepStats(evals, runner.mechanismNames());
        json += "    {\n      \"level\": " +
                util::formatDouble(level, 2) + ",\n";
        json += "      \"sweep\": " +
                eval::sweepStatsJson(sweep_stats, skipped, &fault_agg) +
                "\n";
        json += li + 1 < levels.size() ? "    },\n" : "    }\n";
    }
    json += "  ]\n}";
    if (opt.csv)
        t.printCsv(std::cout);
    else
        t.print(std::cout);
    if (opt.statsJson)
        std::cout << json << "\n";
    return 0;
}

/**
 * --churn: replay the bundle suite (or one --bundle) as dynamic-roster
 * scenarios.  The mechanism set swaps the MaxEfficiency oracle (whose
 * hill climb would dominate the multi-epoch runtime) for the
 * credit-banking Karma mechanism, whose whole point is roster churn.
 */
int
runChurnCli(const Options &opt, const faults::FaultPlan &plan)
{
    const auto parsed_spec = eval::ChurnSpec::parse(opt.churnSpec);
    if (!parsed_spec.ok()) {
        util::fatal("bad --churn spec: %s",
                    parsed_spec.status().toString().c_str());
    }
    const eval::ChurnSpec spec = parsed_spec.value();

    std::vector<workloads::Bundle> bundles;
    if (!opt.bundle.empty()) {
        const auto catalog = workloads::classifyCatalog();
        const uint32_t cores = opt.cores ? opt.cores : 8;
        bundles.push_back(workloads::bundleByName(catalog, opt.bundle,
                                                  cores, opt.seed));
    } else {
        bundles = sweepBundles(opt);
    }

    core::EqualShareAllocator equal_share;
    core::EqualBudgetAllocator equal_budget;
    core::ReBudgetAllocator rb20 = core::ReBudgetAllocator::withStep(20);
    core::ReBudgetAllocator rb40 = core::ReBudgetAllocator::withStep(40);
    core::KarmaAllocator karma;

    eval::BundleRunnerOptions ropts;
    ropts.jobs = opt.jobs;
    ropts.marketConfig.warmStart = opt.warmStart;
    ropts.faultPlan = plan;
    const eval::BundleRunner runner(
        {&equal_share, &equal_budget, &rb20, &rb40, &karma}, ropts);
    const auto evals = runner.runChurn(bundles, spec);
    const size_t n_mech = runner.mechanismNames().size();

    std::cout << "churn: " << spec.describe() << "\n\n";
    util::TablePrinter t({"bundle", "category", "mechanism", "mean_eff",
                          "mean_EF", "lifetime_EF", "cum_MUR", "cum_MBR",
                          "joined", "departed", "migrated"});
    std::vector<util::SummaryStats> eff_stats(n_mech), ef_stats(n_mech);
    std::vector<util::SummaryStats> life_stats(n_mech);
    std::vector<util::SummaryStats> mur_stats(n_mech), mbr_stats(n_mech);
    for (const auto &ev : evals) {
        if (ev.skipped)
            continue;
        for (size_t m = 0; m < ev.results.size(); ++m) {
            const auto &res = ev.results[m];
            t.addRow({ev.bundle, workloads::categoryName(ev.category),
                      res.mechanism,
                      util::formatDouble(res.meanEfficiency, 3),
                      util::formatDouble(res.meanEnvyFreeness, 3),
                      util::formatDouble(res.lifetimeEnvyFreeness, 3),
                      util::formatDouble(res.cumulativeMur, 2),
                      util::formatDouble(res.cumulativeMbr, 3),
                      std::to_string(res.stats.tenantsJoined),
                      std::to_string(res.stats.tenantsDeparted),
                      std::to_string(res.stats.migratedWarmSeeds)});
            eff_stats[m].add(res.meanEfficiency);
            ef_stats[m].add(res.meanEnvyFreeness);
            life_stats[m].add(res.lifetimeEnvyFreeness);
            mur_stats[m].add(res.cumulativeMur);
            mbr_stats[m].add(res.cumulativeMbr);
        }
    }
    if (opt.csv)
        t.printCsv(std::cout);
    else
        t.print(std::cout);

    const std::int64_t skipped =
        static_cast<std::int64_t>(std::count_if(
            evals.begin(), evals.end(),
            [](const eval::ChurnEvaluation &ev) { return ev.skipped; }));
    const auto churn_stats =
        eval::aggregateChurnStats(evals, runner.mechanismNames());

    util::TablePrinter s({"mechanism", "mean_eff", "mean_EF",
                          "worst_lifetime_EF", "mean_cum_MUR",
                          "mean_cum_MBR", "converged_bundles",
                          "karma_donors", "karma_borrowers"});
    for (size_t m = 0; m < n_mech; ++m) {
        s.addRow({runner.mechanismNames()[m],
                  util::formatDouble(eff_stats[m].mean(), 3),
                  util::formatDouble(ef_stats[m].mean(), 3),
                  util::formatDouble(life_stats[m].min(), 3),
                  util::formatDouble(mur_stats[m].mean(), 2),
                  util::formatDouble(mbr_stats[m].mean(), 3),
                  std::to_string(churn_stats[m].bundlesConverged) + "/" +
                      std::to_string(churn_stats[m].bundlesEvaluated),
                  std::to_string(churn_stats[m].stats.karmaDonors),
                  std::to_string(churn_stats[m].stats.karmaBorrowers)});
    }
    std::cout << "\n";
    if (opt.csv)
        s.printCsv(std::cout);
    else
        s.print(std::cout);
    if (skipped > 0) {
        std::cout << "\n" << skipped << " of " << evals.size()
                  << " bundles skipped (see warnings above)\n";
    }

    eval::SweepFaultStats fault_agg;
    if (plan.enabled()) {
        for (const auto &ev : evals) {
            if (ev.injectionStats.total() > 0)
                fault_agg.bundlesFaulted += 1;
            fault_agg.injected.merge(ev.injectionStats);
            fault_agg.hardening.merge(ev.hardeningStats);
        }
        std::cout << "\nfaults (" << plan.describe() << "): "
                  << fault_agg.bundlesFaulted << " bundles faulted, "
                  << fault_agg.injected.liarPlayers << " liars, "
                  << fault_agg.hardening.sanitizedGrids
                  << " grids sanitized, "
                  << fault_agg.hardening.repairedCurves
                  << " curves repaired\n";
    }
    if (opt.statsJson) {
        std::cout << eval::sweepStatsJson(
                         churn_stats, skipped,
                         plan.enabled() ? &fault_agg : nullptr)
                  << "\n";
    }
    return 0;
}

int
runSim(const Options &opt, ProfileSource &source,
       const std::vector<std::string> &apps,
       const faults::FaultPlan &plan)
{
    if (!opt.threads.empty())
        util::fatal("--threads is not supported with --sim");
    if (apps.size() % 4 != 0) {
        util::fatal("--sim needs a multiple-of-4 app count (got %zu)",
                    apps.size());
    }
    sim::EpochSimConfig cfg =
        sim::EpochSimConfig::forCores(static_cast<uint32_t>(apps.size()));
    cfg.epochs = opt.epochs;
    cfg.seed = opt.seed;
    cfg.marketConfig.warmStart = opt.warmStart;
    cfg.faults = plan;
    std::vector<app::AppParams> params;
    for (const auto &nm : apps)
        params.push_back(source.profile(nm).params);
    const auto mechanism = makeMechanism(opt);
    sim::EpochSimulator simulator(cfg, params, *mechanism);
    const sim::SimResult result = simulator.run();

    util::TablePrinter t({"core", "app", "mean_utility",
                          "final_cache_regions", "final_freq_GHz"});
    for (size_t i = 0; i < apps.size(); ++i) {
        t.addRow({std::to_string(i), apps[i],
                  util::formatDouble(result.meanUtilities[i], 3),
                  util::formatDouble(
                      result.epochs.back().cacheTargets[i], 2),
                  util::formatDouble(result.epochs.back().freqsGhz[i],
                                     2)});
    }
    if (opt.csv)
        t.printCsv(std::cout);
    else
        t.print(std::cout);
    const std::int64_t converged_epochs = static_cast<std::int64_t>(
        std::count_if(result.epochs.begin(), result.epochs.end(),
                      [](const sim::EpochRecord &r) { return r.converged; }));
    std::cout << "\nmechanism " << result.mechanism
              << ": weighted speedup "
              << util::formatDouble(result.meanEfficiency, 3)
              << ", envy-freeness "
              << util::formatDouble(result.envyFreeness, 3) << " ("
              << result.epochs.size() << " measured epochs, "
              << converged_epochs << " converged, "
              << result.failedAllocations << " failed allocations)\n";
    if (plan.enabled()) {
        std::cout << "faults (" << plan.describe() << "): "
                  << result.injectionStats.total()
                  << " injections, "
                  << result.solverStats.repairedCurves
                  << " curves repaired, "
                  << result.solverStats.watchdogTrips
                  << " watchdog trips, "
                  << result.solverStats.fallbackEpochs
                  << " fallback epochs\n";
    }
    if (opt.statsJson) {
        eval::MechanismSweepStats s;
        s.mechanism = result.mechanism;
        s.bundlesEvaluated =
            static_cast<std::int64_t>(result.epochs.size());
        s.bundlesConverged = converged_epochs;
        s.stats = result.solverStats;
        std::cout << eval::sweepStatsJson({s}, result.failedAllocations)
                  << "\n";
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    // Argument parsing shares the FatalError handler below so a bad
    // value prints a clean `error:` line instead of terminating.
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto next = [&]() -> std::string {
                if (i + 1 >= argc)
                    util::fatal("%s requires a value", arg.c_str());
                return argv[++i];
            };
            if (arg == "--help" || arg == "-h") {
                usage();
                return 0;
            } else if (arg == "--list-apps") {
                return listApps();
            } else if (arg == "--list-mechanisms") {
                std::cout << "EqualShare EqualBudget Balanced EP "
                             "MaxEfficiency Karma ReBudget-<step>\n";
                return 0;
            } else if (arg == "--apps") {
                opt.apps = splitCsv(next());
            } else if (arg == "--apps-file") {
                opt.appsFile = next();
            } else if (arg == "--threads") {
                for (const auto &tok : splitCsv(next())) {
                    opt.threads.push_back(static_cast<uint32_t>(
                        util::unsignedFlag("--threads", tok)));
                }
            } else if (arg == "--players") {
                opt.players = util::unsignedFlag(arg, next());
            } else if (arg == "--bundle") {
                opt.bundle = next();
            } else if (arg == "--cores") {
                opt.cores = static_cast<uint32_t>(
                    util::unsignedFlag(arg, next()));
            } else if (arg == "--mechanism") {
                opt.mechanism = next();
            } else if (arg == "--step") {
                opt.step = util::doubleFlag(arg, next());
            } else if (arg == "--ef-target") {
                opt.efTarget = util::doubleFlag(arg, next());
            } else if (arg == "--sim") {
                opt.sim = true;
            } else if (arg == "--sweep") {
                opt.sweep = true;
            } else if (arg == "--noise-sweep") {
                opt.noiseSweep = true;
            } else if (arg == "--bundles") {
                opt.bundlesPerCategory = static_cast<uint32_t>(
                    util::unsignedFlag(arg, next()));
            } else if (arg == "--faults") {
                opt.faultsSpec = next();
            } else if (arg == "--churn") {
                opt.churnSpec = next();
            } else if (arg == "--jobs") {
                opt.jobs = static_cast<unsigned>(
                    util::unsignedFlag(arg, next()));
            } else if (arg == "--epochs") {
                opt.epochs = static_cast<uint32_t>(
                    util::unsignedFlag(arg, next()));
            } else if (arg == "--seed") {
                opt.seed = util::unsignedFlag(arg, next());
            } else if (arg == "--warm-start") {
                const std::string v = next();
                if (v == "on")
                    opt.warmStart = true;
                else if (v == "off")
                    opt.warmStart = false;
                else
                    util::fatal("--warm-start needs 'on' or 'off', got "
                                "'%s'",
                                v.c_str());
            } else if (arg == "--stats") {
                const std::string v = next();
                if (v != "json") {
                    util::fatal("--stats supports only 'json', got '%s'",
                                v.c_str());
                }
                opt.statsJson = true;
            } else if (arg == "--csv") {
                opt.csv = true;
            } else {
                std::fprintf(stderr, "unknown argument '%s'\n\n",
                             arg.c_str());
                usage();
                return 1;
            }
        }

        faults::FaultPlan plan;
        if (!opt.faultsSpec.empty()) {
            auto parsed =
                faults::FaultPlan::parse(opt.faultsSpec, opt.seed);
            if (!parsed.ok()) {
                util::fatal("bad --faults spec: %s",
                            parsed.status().toString().c_str());
            }
            plan = parsed.value();
        }
        if (opt.players > 0) {
            if (!opt.apps.empty() || !opt.bundle.empty() || opt.sim ||
                opt.sweep || opt.noiseSweep || !opt.churnSpec.empty()) {
                util::fatal("--players is a standalone synthetic-scale "
                            "mode; it does not combine with --apps, "
                            "--bundle, --sim, --sweep, --noise-sweep "
                            "or --churn");
            }
            return runSyntheticScale(opt);
        }
        if (!opt.churnSpec.empty())
            return runChurnCli(opt, plan);
        if (opt.noiseSweep)
            return runNoiseSweep(opt, plan);
        if (opt.sweep)
            return runSweep(opt, plan);
        if (plan.enabled() && !opt.sim) {
            util::fatal("--faults requires --sweep, --noise-sweep, "
                        "--churn, or --sim");
        }
        ProfileSource source(opt);
        std::vector<std::string> apps = opt.apps;
        if (apps.empty() && opt.bundle.empty())
            apps = source.customNames();
        if (!opt.bundle.empty()) {
            const auto catalog = workloads::classifyCatalog();
            const uint32_t cores = opt.cores ? opt.cores : 8;
            apps = workloads::bundleByName(catalog, opt.bundle, cores,
                                           opt.seed)
                       .appNames;
        }
        if (apps.empty()) {
            usage();
            return 1;
        }
        return opt.sim ? runSim(opt, source, apps, plan)
                       : runAnalytic(opt, source, apps);
    } catch (const util::FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
