/**
 * @file
 * Churn scenarios (eval/churn.h): the schedule generator, the
 * per-bundle scenario loop with identity-migrated warm state, and the
 * churn aggregation.  BundleRunner's churn entry points live here to
 * keep bundle_runner.cpp focused on the fixed-roster sweep.
 */

#include "rebudget/eval/churn.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <utility>

#include "rebudget/core/karma_allocator.h"
#include "rebudget/eval/bundle_runner.h"
#include "rebudget/market/metrics.h"
#include "rebudget/util/logging.h"
#include "rebudget/util/rng.h"
#include "rebudget/util/thread_pool.h"

namespace rebudget::eval {

namespace {

using util::SolveStatus;
using util::StatusCode;

/** Sub-stream keys for the schedule streams (arbitrary, fixed). */
constexpr std::uint64_t kLeaveStream = 0x6c65617665ULL; // "leave"
constexpr std::uint64_t kJoinStream = 0x6a6f696eULL;    // "join"
/** Per-epoch fault-scope mixer (odd, so the map is a bijection). */
constexpr std::uint64_t kEpochScope = 0x9e3779b97f4a7c15ULL;

} // namespace

std::optional<std::string>
ChurnSpec::validate() const
{
    if (epochs < 1)
        return "churn spec needs epochs >= 1";
    if (joinRate < 0.0 || joinRate > 1.0)
        return "churn join rate must be in [0, 1]";
    if (leaveRate < 0.0 || leaveRate > 1.0)
        return "churn leave rate must be in [0, 1]";
    if (minPlayers < 2)
        return "churn min-players must be >= 2 (a market needs "
               "competition)";
    if (maxPlayers != 0 && maxPlayers < minPlayers)
        return "churn max-players must be 0 (auto) or >= min-players";
    return std::nullopt;
}

util::Expected<ChurnSpec>
ChurnSpec::parse(const std::string &text)
{
    ChurnSpec spec;
    size_t pos = 0;
    while (pos < text.size()) {
        size_t end = text.find(',', pos);
        if (end == std::string::npos)
            end = text.size();
        const std::string token = text.substr(pos, end - pos);
        pos = end + 1;
        if (token.empty())
            continue;
        const size_t eq = token.find('=');
        if (eq == std::string::npos) {
            return SolveStatus::error(
                StatusCode::InvalidArgument,
                "churn spec token '%s' is not key=value", token.c_str());
        }
        const std::string key = token.substr(0, eq);
        const std::string value = token.substr(eq + 1);
        char *parse_end = nullptr;
        const double num = std::strtod(value.c_str(), &parse_end);
        if (parse_end == value.c_str() || *parse_end != '\0') {
            return SolveStatus::error(
                StatusCode::InvalidArgument,
                "churn spec value '%s' for key '%s' is not a number",
                value.c_str(), key.c_str());
        }
        if (key == "epochs") {
            spec.epochs = static_cast<std::uint32_t>(num);
        } else if (key == "join") {
            spec.joinRate = num;
        } else if (key == "leave") {
            spec.leaveRate = num;
        } else if (key == "min-players") {
            spec.minPlayers = static_cast<std::uint32_t>(num);
        } else if (key == "max-players") {
            spec.maxPlayers = static_cast<std::uint32_t>(num);
        } else if (key == "seed") {
            spec.seed = static_cast<std::uint64_t>(num);
        } else {
            return SolveStatus::error(
                StatusCode::InvalidArgument,
                "unknown churn spec key '%s' (known: epochs, join, "
                "leave, min-players, max-players, seed)", key.c_str());
        }
    }
    if (const auto err = spec.validate()) {
        return SolveStatus::error(StatusCode::InvalidArgument, "%s",
                                  err->c_str());
    }
    return spec;
}

std::string
ChurnSpec::describe() const
{
    char buf[160];
    if (maxPlayers == 0) {
        std::snprintf(buf, sizeof(buf),
                      "%u epochs, join %.2f, leave %.2f, players "
                      "[%u, 2x initial], seed %llu",
                      epochs, joinRate, leaveRate, minPlayers,
                      static_cast<unsigned long long>(seed));
    } else {
        std::snprintf(buf, sizeof(buf),
                      "%u epochs, join %.2f, leave %.2f, players "
                      "[%u, %u], seed %llu",
                      epochs, joinRate, leaveRate, minPlayers,
                      maxPlayers,
                      static_cast<unsigned long long>(seed));
    }
    return buf;
}

std::vector<ChurnEvent>
makeChurnSchedule(const ChurnSpec &spec,
                  const std::vector<std::string> &initial_apps,
                  std::uint64_t scope)
{
    std::vector<ChurnEvent> schedule;
    const size_t n0 = initial_apps.size();
    if (n0 == 0 || spec.validate())
        return schedule;
    const size_t max_players =
        spec.maxPlayers != 0 ? spec.maxPlayers : 2 * n0;

    std::vector<core::PlayerId> ids;
    ids.reserve(n0);
    for (size_t i = 0; i < n0; ++i)
        ids.push_back(static_cast<core::PlayerId>(i));
    core::PlayerId next_id = static_cast<core::PlayerId>(n0);

    for (std::uint32_t e = 1; e < spec.epochs; ++e) {
        // Departures first: a slot freed this epoch can be refilled by
        // an arrival in the same epoch.  Each stream is keyed by
        // (seed, scope, epoch) alone -- a pure value function shared by
        // every mechanism and job count.
        util::Rng leave_rng =
            util::Rng::forStream(spec.seed, {kLeaveStream, scope, e});
        const std::vector<core::PlayerId> snapshot = ids;
        for (const core::PlayerId id : snapshot) {
            if (ids.size() <= spec.minPlayers)
                break;
            if (!leave_rng.bernoulli(spec.leaveRate))
                continue;
            ids.erase(std::find(ids.begin(), ids.end(), id));
            ChurnEvent ev;
            ev.epoch = e;
            ev.join = false;
            ev.id = id;
            schedule.push_back(std::move(ev));
        }
        util::Rng join_rng =
            util::Rng::forStream(spec.seed, {kJoinStream, scope, e});
        for (size_t slot = 0; slot < n0; ++slot) {
            if (ids.size() >= max_players)
                break;
            if (!join_rng.bernoulli(spec.joinRate))
                continue;
            ChurnEvent ev;
            ev.epoch = e;
            ev.join = true;
            ev.id = next_id++;
            ev.app = initial_apps[join_rng.uniformInt(
                static_cast<std::uint64_t>(n0))];
            ids.push_back(ev.id);
            schedule.push_back(std::move(ev));
        }
    }
    return schedule;
}

namespace {

/** Per-identity accumulation across the epochs a tenant was scored. */
struct TenantAccum
{
    std::string app;
    std::uint32_t joinEpoch = 0;
    std::uint32_t scoredEpochs = 0;
    bool departed = false;
    double utilitySum = 0.0;
    double bestOtherSum = 0.0;
    double budgetSum = 0.0;
    double lambdaSum = 0.0;
};

/** One mechanism's mutable scenario state. */
struct ScenarioState
{
    core::KarmaBank bank;
    market::SolveWorkspace ws;
    /** Last published equilibrium, and the roster it was solved on. */
    std::shared_ptr<const market::EquilibriumResult> warm;
    core::Roster warmRoster;
    /** Migration seed slot (reused across epochs). */
    market::EquilibriumResult migrated;
    /** Last scored budgets by identity (departure bookkeeping). */
    std::map<core::PlayerId, double> lastBudgets;
};

} // namespace

ChurnEvaluation
BundleRunner::evaluateChurn(const workloads::Bundle &bundle,
                            const ChurnSpec &spec) const
{
    ChurnEvaluation ev;
    ev.bundle = bundle.name;
    ev.category = bundle.category;
    if (!status_.ok()) {
        ev.skipped = true;
        ev.skipReason = status_.toString();
        return ev;
    }
    if (const auto err = spec.validate()) {
        ev.skipped = true;
        ev.skipReason = *err;
        return ev;
    }

    // The initial bundle problem fixes the machine: capacities stay at
    // the full-roster size for the whole scenario.
    BundleProblem base;
    try {
        base = makeBundleProblem(bundle.appNames, options_.regionsPerCore,
                                 options_.wattsPerCore,
                                 options_.convexify);
    } catch (const util::FatalError &e) {
        ev.skipped = true;
        ev.skipReason = e.what();
        util::warn("skipping churn bundle %s: %s", bundle.name.c_str(),
                   e.what());
        return ev;
    }
    if (const auto err = core::tryValidateProblem(base.problem)) {
        ev.skipped = true;
        ev.skipReason = *err;
        util::warn("skipping churn bundle %s: %s", bundle.name.c_str(),
                   err->c_str());
        return ev;
    }
    const std::vector<double> capacities = base.problem.capacities;
    const size_t m_resources = capacities.size();
    const std::uint64_t scope = util::hashId(bundle.name);

    // Truth models by identity.  Newcomers draw from the bundle's own
    // app mix; catalog models are process-memoized, so this is a map
    // lookup, not a grid sampling.
    std::map<core::PlayerId, std::shared_ptr<const app::AppUtilityModel>>
        truth;
    std::map<core::PlayerId, std::string> apps;
    for (size_t i = 0; i < base.models.size(); ++i) {
        truth[static_cast<core::PlayerId>(i)] = base.models[i];
        apps[static_cast<core::PlayerId>(i)] = bundle.appNames[i];
    }
    ev.schedule = makeChurnSchedule(spec, bundle.appNames, scope);
    for (const ChurnEvent &event : ev.schedule) {
        if (!event.join)
            continue;
        try {
            BundleProblem one = makeBundleProblem(
                {event.app}, options_.regionsPerCore,
                options_.wattsPerCore, options_.convexify);
            truth[event.id] = one.models[0];
            apps[event.id] = event.app;
        } catch (const util::FatalError &e) {
            ev.skipped = true;
            ev.skipReason = e.what();
            util::warn("skipping churn bundle %s: newcomer app %s: %s",
                       bundle.name.c_str(), event.app.c_str(), e.what());
            return ev;
        }
    }

    const faults::FaultInjector injector(options_.faultPlan);
    const bool faults_on = options_.faultPlan.enabled();

    ev.results.reserve(mechanisms_.size());
    for (size_t mi = 0; mi < mechanisms_.size(); ++mi) {
        const core::Allocator *mech = mechanisms_[mi];
        MechanismChurnResult res;
        res.mechanism = names_[mi];
        ScenarioState state;
        core::Roster roster;
        std::map<core::PlayerId, TenantAccum> accum;
        std::vector<core::PlayerId> first_seen;
        size_t schedule_pos = 0;

        for (size_t i = 0; i < bundle.appNames.size(); ++i) {
            const auto id = static_cast<core::PlayerId>(i);
            roster.add(id);
            accum[id].app = apps[id];
            first_seen.push_back(id);
        }

        double eff_sum = 0.0, ef_sum = 0.0;
        std::uint32_t scored_epochs = 0;

        for (std::uint32_t e = 0; e < spec.epochs; ++e) {
            // Apply this epoch's roster delta (epoch 0 has none).
            core::RosterChange change;
            while (schedule_pos < ev.schedule.size() &&
                   ev.schedule[schedule_pos].epoch <= e) {
                const ChurnEvent &event = ev.schedule[schedule_pos++];
                if (event.join) {
                    roster.add(event.id);
                    change.joined.push_back(event.id);
                    TenantAccum &a = accum[event.id];
                    a.app = apps[event.id];
                    a.joinEpoch = e;
                    first_seen.push_back(event.id);
                } else {
                    roster.remove(event.id);
                    core::RosterChange::Departure dep;
                    dep.id = event.id;
                    const auto it = state.lastBudgets.find(event.id);
                    if (it != state.lastBudgets.end())
                        dep.lastBudget = it->second;
                    change.departed.push_back(dep);
                    accum[event.id].departed = true;
                }
            }
            res.stats.tenantsJoined +=
                static_cast<std::int64_t>(change.joined.size());
            res.stats.tenantsDeparted +=
                static_cast<std::int64_t>(change.departed.size());

            // Truth problem in the roster's dense order.
            const size_t n = roster.size();
            core::AllocationProblem problem;
            problem.capacities = capacities;
            problem.marketConfig = options_.marketConfig;
            problem.workspace = &state.ws;
            problem.creditBank = &state.bank;
            problem.playerIds = roster.ids();
            problem.models.reserve(n);
            for (size_t i = 0; i < n; ++i)
                problem.models.push_back(truth[roster.idAt(i)].get());

            // Faulted view: models re-damaged every epoch with streams
            // keyed by (plan seed, bundle+epoch scope, tenant id) --
            // identity-stable, so a surviving tenant's faults do not
            // depend on its dense index drifting under churn.
            core::AllocationProblem solve_problem = problem;
            std::vector<std::shared_ptr<const market::UtilityModel>>
                faulted_keep;
            if (faults_on) {
                const std::uint64_t epoch_scope =
                    util::mix64(scope ^ (kEpochScope * (e + 1)));
                faulted_keep.reserve(n);
                for (size_t i = 0; i < n; ++i) {
                    const core::PlayerId id = roster.idAt(i);
                    auto damaged = injector.perturbModel(
                        truth[id], epoch_scope,
                        static_cast<size_t>(id), ev.injectionStats,
                        &ev.hardeningStats);
                    auto reported = injector.maybeLiar(
                        damaged, epoch_scope, static_cast<size_t>(id),
                        ev.injectionStats);
                    faulted_keep.push_back(reported);
                    solve_problem.models[i] = reported.get();
                }
            }

            if (change.any())
                mech->onRosterChange(change, solve_problem);

            // Warm-state migration by identity: survivors carry their
            // equilibrium rows across the roster change instead of
            // cold-starting the whole market.
            const market::EquilibriumResult *seed = nullptr;
            if (state.warm != nullptr) {
                if (change.any() ||
                    roster.ids() != state.warmRoster.ids()) {
                    const size_t migrated = market::migrateEquilibriumInto(
                        *state.warm, roster.mapFrom(state.warmRoster),
                        m_resources, state.migrated);
                    if (state.migrated.status.ok()) {
                        seed = &state.migrated;
                        res.stats.migratedWarmSeeds +=
                            static_cast<std::int64_t>(migrated);
                    }
                } else {
                    seed = state.warm.get();
                }
            }
            solve_problem.warmStart = seed;

            ChurnEpochRecord rec;
            rec.epoch = e;
            rec.players = static_cast<std::uint32_t>(n);
            rec.joins = static_cast<std::uint32_t>(change.joined.size());
            rec.leaves =
                static_cast<std::uint32_t>(change.departed.size());

            core::AllocationOutcome out;
            try {
                out = mech->allocate(solve_problem);
            } catch (const util::FatalError &err) {
                out.status = SolveStatus::error(
                    StatusCode::Aborted, "mechanism %s threw: %s",
                    res.mechanism.c_str(), err.what());
            }
            res.stats.merge(out.stats);
            rec.marketIterations = out.marketIterations;
            if (!out.status.ok()) {
                // Epoch failure degrades to an unscored epoch; the run
                // continues (zero-fatals contract) and the warm chain
                // keeps its last good seed.
                if (res.status.ok())
                    res.status = out.status;
                res.epochs.push_back(rec);
                util::warn("churn bundle %s epoch %u: mechanism %s "
                           "failed: %s", bundle.name.c_str(), e,
                           res.mechanism.c_str(),
                           out.status.toString().c_str());
                continue;
            }

            rec.scored = true;
            rec.converged = out.converged;
            res.converged = res.converged && out.converged;
            // Scored against TRUTH models: lifetime fairness measures
            // what each tenant actually got, not what a lying model
            // claimed.
            const market::OwnBestUtilities u =
                market::ownAndBestUtilities(problem.models, out.alloc);
            rec.efficiency = u.efficiency();
            rec.envyFreeness = u.envyFreeness();
            if (!out.lambdas.empty()) {
                if (const auto mur =
                        market::marketUtilityRange(out.lambdas);
                    mur.ok())
                    rec.mur = mur.value();
            }
            if (!out.budgets.empty()) {
                if (const auto mbr =
                        market::marketBudgetRange(out.budgets);
                    mbr.ok())
                    rec.mbr = mbr.value();
            }
            eff_sum += rec.efficiency;
            ef_sum += rec.envyFreeness;
            ++scored_epochs;

            for (size_t i = 0; i < n; ++i) {
                const core::PlayerId id = roster.idAt(i);
                TenantAccum &a = accum[id];
                a.utilitySum += u.own[i];
                a.bestOtherSum += u.best[i];
                if (i < out.budgets.size()) {
                    a.budgetSum += out.budgets[i];
                    state.lastBudgets[id] = out.budgets[i];
                }
                if (i < out.lambdas.size())
                    a.lambdaSum += out.lambdas[i];
                a.scoredEpochs += 1;
            }
            res.epochs.push_back(rec);
            if (out.equilibrium != nullptr) {
                state.warm = out.equilibrium;
                state.warmRoster = roster;
            }
        }

        // Lifetime metrics, in first-seen order.
        std::vector<double> own_sums, best_sums;
        std::vector<double> mean_lambdas, mean_budgets;
        res.tenants.reserve(first_seen.size());
        for (const core::PlayerId id : first_seen) {
            const TenantAccum &a = accum[id];
            TenantLifetime t;
            t.id = id;
            t.app = a.app;
            t.joinEpoch = a.joinEpoch;
            t.epochsPresent = a.scoredEpochs;
            t.departed = a.departed;
            t.utilitySum = a.utilitySum;
            t.bestOtherUtilitySum = a.bestOtherSum;
            if (a.scoredEpochs > 0) {
                const double inv = 1.0 / a.scoredEpochs;
                t.meanBudget = a.budgetSum * inv;
                t.meanLambda = a.lambdaSum * inv;
                own_sums.push_back(a.utilitySum);
                best_sums.push_back(a.bestOtherSum);
                mean_lambdas.push_back(t.meanLambda);
                mean_budgets.push_back(t.meanBudget);
            }
            res.tenants.push_back(std::move(t));
        }
        res.lifetimeEnvyFreeness =
            market::lifetimeEnvyFreeness(own_sums, best_sums);
        if (!mean_lambdas.empty()) {
            if (const auto mur = market::marketUtilityRange(mean_lambdas);
                mur.ok())
                res.cumulativeMur = mur.value();
        }
        if (!mean_budgets.empty()) {
            if (const auto mbr = market::marketBudgetRange(mean_budgets);
                mbr.ok())
                res.cumulativeMbr = mbr.value();
        }
        if (scored_epochs > 0) {
            res.meanEfficiency = eff_sum / scored_epochs;
            res.meanEnvyFreeness = ef_sum / scored_epochs;
        }
        ev.results.push_back(std::move(res));
    }
    return ev;
}

std::vector<ChurnEvaluation>
BundleRunner::runChurn(const std::vector<workloads::Bundle> &bundles,
                       const ChurnSpec &spec) const
{
    // Same pre-warm + bundle-partitioned parallelism as run(): every
    // scenario depends only on its own bundle, so results are
    // byte-identical at any job count.
    app::catalogProfiles();

    std::vector<ChurnEvaluation> results(bundles.size());
    util::ThreadPool pool(options_.jobs);
    pool.parallelFor(bundles.size(), [&](size_t i) {
        results[i] = evaluateChurn(bundles[i], spec);
    });
    return results;
}

std::vector<MechanismSweepStats>
aggregateChurnStats(const std::vector<ChurnEvaluation> &evals,
                    const std::vector<std::string> &mechanism_names)
{
    std::vector<MechanismSweepStats> agg(mechanism_names.size());
    for (size_t m = 0; m < mechanism_names.size(); ++m)
        agg[m].mechanism = mechanism_names[m];
    for (const auto &ev : evals) {
        if (ev.skipped)
            continue;
        const size_t count =
            std::min(ev.results.size(), mechanism_names.size());
        for (size_t m = 0; m < count; ++m) {
            agg[m].bundlesEvaluated += 1;
            if (ev.results[m].converged && ev.results[m].status.ok())
                agg[m].bundlesConverged += 1;
            agg[m].stats.merge(ev.results[m].stats);
        }
    }
    return agg;
}

} // namespace rebudget::eval
