#ifndef REBUDGET_TRACE_UNIFORM_H_
#define REBUDGET_TRACE_UNIFORM_H_

/**
 * @file
 * Uniform-random references over a fixed working set.
 *
 * Produces the sharp "cliff" miss curve characteristic of applications
 * such as mcf: almost no hits until the cache covers the working set,
 * then near-perfect hits.
 */

#include <cstdint>

#include "rebudget/trace/generator.h"
#include "rebudget/util/rng.h"

namespace rebudget::trace {

/** Uniformly random line-granular references within a working set. */
class UniformWorkingSetGen : public AddressGenerator
{
  public:
    /**
     * @param base_addr       starting byte address of the region
     * @param working_set     footprint in bytes (> 0)
     * @param line_bytes      access granularity (power of two)
     * @param write_fraction  probability an access is a store
     * @param seed            RNG seed
     */
    UniformWorkingSetGen(uint64_t base_addr, uint64_t working_set,
                         uint64_t line_bytes, double write_fraction,
                         uint64_t seed);

    void fill(Access *out, size_t n) override;
    uint64_t footprintBytes() const override { return workingSet_; }
    std::unique_ptr<AddressGenerator> clone() const override;

  private:
    uint64_t baseAddr_;
    uint64_t workingSet_;
    uint64_t lineBytes_;
    uint64_t lines_;
    double writeFraction_;
    util::Rng rng_;
};

} // namespace rebudget::trace

#endif // REBUDGET_TRACE_UNIFORM_H_
