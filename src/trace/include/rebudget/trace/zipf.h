#ifndef REBUDGET_TRACE_ZIPF_H_
#define REBUDGET_TRACE_ZIPF_H_

/**
 * @file
 * Zipf-skewed references over a working set.
 *
 * Hot lines are reused far more often than cold lines, producing the
 * smooth, concave miss curves characteristic of applications such as vpr:
 * every extra cache region captures the next-hottest slice of the
 * footprint, with diminishing returns.
 */

#include <cstdint>
#include <vector>

#include "rebudget/trace/generator.h"
#include "rebudget/util/rng.h"

namespace rebudget::trace {

/** Zipf(alpha)-distributed line references within a working set. */
class ZipfWorkingSetGen : public AddressGenerator
{
  public:
    /**
     * @param base_addr       starting byte address of the region
     * @param working_set     footprint in bytes: 1 to 2^32 - 1 lines
     * @param line_bytes      access granularity (power of two)
     * @param alpha           Zipf skew (0 = uniform; ~1 = strongly skewed)
     * @param write_fraction  probability an access is a store
     * @param seed            RNG seed
     */
    ZipfWorkingSetGen(uint64_t base_addr, uint64_t working_set,
                      uint64_t line_bytes, double alpha,
                      double write_fraction, uint64_t seed);

    void fill(Access *out, size_t n) override;
    uint64_t footprintBytes() const override { return workingSet_; }
    std::unique_ptr<AddressGenerator> clone() const override;

    /**
     * @return heap bytes of the tables a generator over this working set
     * builds (the sampler's CDF and guide, and the rank-to-line
     * permutation), computed without building them; 0 when the
     * geometry would be rejected.
     */
    static uint64_t tableBytes(uint64_t working_set, uint64_t line_bytes);

  private:
    uint64_t baseAddr_;
    uint64_t workingSet_;
    uint64_t lineBytes_;
    double writeFraction_;
    util::ZipfSampler sampler_;
    std::vector<uint32_t> rankToLine_;
    util::Rng rng_;
};

} // namespace rebudget::trace

#endif // REBUDGET_TRACE_ZIPF_H_
