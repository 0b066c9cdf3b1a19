#ifndef REBUDGET_TRACE_MIXTURE_H_
#define REBUDGET_TRACE_MIXTURE_H_

/**
 * @file
 * Composite reference streams: probabilistic mixtures and phase
 * alternation.  Real applications combine a hot structured region with
 * colder irregular traffic; mixtures let the catalog model knees at
 * multiple capacities.
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "rebudget/trace/generator.h"
#include "rebudget/util/rng.h"

namespace rebudget::trace {

/**
 * Probabilistic mixture: each access is drawn from sub-generator g with
 * probability weight[g] / sum(weights).  Weights must be positive and
 * finite, with a finite sum.
 */
class MixtureGen : public AddressGenerator
{
  public:
    /** One weighted component. */
    struct Component
    {
        std::unique_ptr<AddressGenerator> gen;
        double weight = 1.0;
    };

    /**
     * @param components  non-empty set of weighted sub-generators
     * @param seed        RNG seed for component selection
     */
    MixtureGen(std::vector<Component> components, uint64_t seed);

    MixtureGen(const MixtureGen &other);
    MixtureGen &operator=(const MixtureGen &) = delete;

    void fill(Access *out, size_t n) override;
    uint64_t footprintBytes() const override;
    std::unique_ptr<AddressGenerator> clone() const override;

  private:
    std::vector<Component> components_;
    std::vector<double> cdf_;
    util::Rng rng_;
};

/**
 * Phase alternation: runs each sub-generator for a fixed number of
 * accesses before switching to the next, cyclically.  Models coarse
 * compute/memory program phases.
 */
class PhasedGen : public AddressGenerator
{
  public:
    /** One phase: a generator and its length in accesses. */
    struct Phase
    {
        std::unique_ptr<AddressGenerator> gen;
        uint64_t length = 1;
    };

    /** @param phases  non-empty list of phases (lengths > 0). */
    explicit PhasedGen(std::vector<Phase> phases);

    PhasedGen(const PhasedGen &other);
    PhasedGen &operator=(const PhasedGen &) = delete;

    void fill(Access *out, size_t n) override;
    uint64_t footprintBytes() const override;
    std::unique_ptr<AddressGenerator> clone() const override;

  private:
    std::vector<Phase> phases_;
    size_t current_ = 0;
    uint64_t remaining_ = 0;
};

} // namespace rebudget::trace

#endif // REBUDGET_TRACE_MIXTURE_H_
