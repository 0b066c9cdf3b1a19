#include "rebudget/core/allocator.h"

#include <cmath>
#include <sstream>

#include "rebudget/util/logging.h"

namespace rebudget::core {

std::optional<std::string>
tryValidateProblem(const AllocationProblem &problem)
{
    if (problem.models.empty())
        return "allocation problem has no players";
    if (problem.capacities.empty())
        return "allocation problem has no resources";
    for (size_t i = 0; i < problem.models.size(); ++i) {
        const auto *m = problem.models[i];
        if (m == nullptr) {
            std::ostringstream ss;
            ss << "allocation problem has a null utility model (player "
               << i << ")";
            return ss.str();
        }
        if (m->numResources() != problem.capacities.size()) {
            std::ostringstream ss;
            ss << "utility arity " << m->numResources()
               << " != resource count " << problem.capacities.size()
               << " (player " << i << ", model '" << m->name() << "')";
            return ss.str();
        }
    }
    for (size_t j = 0; j < problem.capacities.size(); ++j) {
        // isfinite() also rejects NaN, which every ordered comparison
        // would let through.
        const double c = problem.capacities[j];
        if (!std::isfinite(c) || c <= 0.0) {
            std::ostringstream ss;
            ss << "capacities must be finite and positive (resource " << j
               << " is " << c << ")";
            return ss.str();
        }
    }
    if (!problem.playerIds.empty()) {
        if (problem.playerIds.size() != problem.models.size()) {
            std::ostringstream ss;
            ss << "player id count " << problem.playerIds.size()
               << " != player count " << problem.models.size();
            return ss.str();
        }
        for (size_t i = 0; i < problem.playerIds.size(); ++i) {
            for (size_t k = i + 1; k < problem.playerIds.size(); ++k) {
                if (problem.playerIds[i] == problem.playerIds[k]) {
                    std::ostringstream ss;
                    ss << "duplicate player id "
                       << problem.playerIds[i] << " (dense indices "
                       << i << " and " << k << ")";
                    return ss.str();
                }
            }
        }
    }
    return std::nullopt;
}

std::optional<size_t>
AllocationProblem::indexOfPlayer(PlayerId id) const
{
    if (playerIds.empty()) {
        const size_t i = static_cast<size_t>(id);
        if (i < models.size())
            return i;
        return std::nullopt;
    }
    for (size_t i = 0; i < playerIds.size(); ++i) {
        if (playerIds[i] == id)
            return i;
    }
    return std::nullopt;
}

util::Expected<size_t>
AllocationProblem::addTenant(PlayerId id,
                             const market::UtilityModel *model)
{
    if (model == nullptr) {
        return util::SolveStatus::error(
            util::StatusCode::InvalidArgument,
            "addTenant: null utility model for player id %llu",
            static_cast<unsigned long long>(id));
    }
    if (indexOfPlayer(id)) {
        return util::SolveStatus::error(
            util::StatusCode::InvalidArgument,
            "addTenant: player id %llu is already active",
            static_cast<unsigned long long>(id));
    }
    if (playerIds.empty() && !models.empty()) {
        // Materialize the implicit dense roster so existing players
        // keep their identities when the first churn event lands.
        playerIds.reserve(models.size() + 1);
        for (size_t i = 0; i < models.size(); ++i)
            playerIds.push_back(static_cast<PlayerId>(i));
    }
    models.push_back(model);
    playerIds.push_back(id);
    return models.size() - 1;
}

util::Expected<size_t>
AllocationProblem::removeTenant(PlayerId id)
{
    const auto idx = indexOfPlayer(id);
    if (!idx) {
        return util::SolveStatus::error(
            util::StatusCode::InvalidArgument,
            "removeTenant: player id %llu is not active",
            static_cast<unsigned long long>(id));
    }
    if (playerIds.empty() && !models.empty()) {
        playerIds.reserve(models.size());
        for (size_t i = 0; i < models.size(); ++i)
            playerIds.push_back(static_cast<PlayerId>(i));
    }
    models.erase(models.begin() + static_cast<std::ptrdiff_t>(*idx));
    playerIds.erase(playerIds.begin() +
                    static_cast<std::ptrdiff_t>(*idx));
    return *idx;
}

util::SolveStatus
validateProblemStatus(const AllocationProblem &problem)
{
    if (const auto err = tryValidateProblem(problem)) {
        return util::SolveStatus::error(util::StatusCode::InvalidArgument,
                                        "%s", err->c_str());
    }
    return util::SolveStatus();
}

void
accumulateSolve(AllocationOutcome &outcome,
                const market::EquilibriumResult &eq)
{
    util::SolverStats &s = outcome.stats;
    outcome.marketIterations += eq.iterations;
    if (eq.approximated) {
        s.elidedRescales += 1;
        s.rescaleSeconds += eq.solveSeconds;
    } else {
        s.equilibriumSolves += 1;
        s.sweepIterations += eq.iterations;
        s.hillClimbSteps += eq.hillClimbSteps;
        s.solveSeconds += eq.solveSeconds;
        if (eq.warmStarted)
            s.warmStartedSolves += 1;
        else
            s.coldStartedSolves += 1;
        if (eq.status.ok() && !eq.converged)
            s.failSafeTrips += 1;
        outcome.converged = outcome.converged && eq.converged;
    }
    if (!eq.status.ok()) {
        s.failedSolves += 1;
        outcome.status = eq.status;
    }
}

} // namespace rebudget::core
