#ifndef REBUDGET_CORE_MAX_EFFICIENCY_H_
#define REBUDGET_CORE_MAX_EFFICIENCY_H_

/**
 * @file
 * MaxEfficiency oracle: the (infeasible-at-runtime) allocation that
 * maximizes system efficiency, approximated by very fine-grained hill
 * climbing on the true utilities (paper Section 6): a greedy
 * marginal-utility fill, then exchange refinement.  The search
 * guarantees a full allocation from which no move of one quantum of
 * one resource between two players raises total utility by more than
 * 1e-12 (unless MaxEfficiencyConfig::refinePasses stops it first).
 * For separable utilities (a sum of concave per-resource terms, such
 * as market::PowerLawUtility) that is the optimum up to the quantum.
 * The catalog's bilinear cache x power surfaces are not separable:
 * gains that need both resources to move together stay out of reach,
 * so the result can fall short of the optimum (DESIGN §3.4; ROADMAP,
 * "Figure 4 divides by a local optimum").
 */

#include "rebudget/core/allocator.h"

namespace rebudget::core {

/** Tuning for the oracle's hill climbing. */
struct MaxEfficiencyConfig
{
    /** Allocation quantum as a fraction of each capacity. */
    double quantumFraction = 1.0 / 512.0;
    /** Maximum exchange-refinement sweeps after the greedy fill. */
    int refinePasses = 64;
};

/** Efficiency-maximizing oracle allocator. */
class MaxEfficiencyAllocator : public Allocator
{
  public:
    /**
     * A malformed config does not throw: it is recorded in
     * configStatus() and every allocate() returns that status.
     */
    explicit MaxEfficiencyAllocator(const MaxEfficiencyConfig &config = {});

    /** Ok, or why this allocator cannot run. */
    const util::SolveStatus &configStatus() const { return configStatus_; }

    const std::string &name() const override
    {
        static const std::string kName = "MaxEfficiency";
        return kName;
    }
    AllocationOutcome allocate(
        const AllocationProblem &problem) const override;

  private:
    MaxEfficiencyConfig config_;
    util::SolveStatus configStatus_;
};

} // namespace rebudget::core

#endif // REBUDGET_CORE_MAX_EFFICIENCY_H_
