#ifndef REBUDGET_TRACE_POINTER_CHASE_H_
#define REBUDGET_TRACE_POINTER_CHASE_H_

/**
 * @file
 * Pointer-chasing reference pattern.
 *
 * Follows a random Hamiltonian cycle over the lines of a working set:
 * each line is visited exactly once per lap, in a data-dependent (random)
 * order.  Like the uniform generator it produces a cliff at the
 * working-set size, but with zero spatial locality and a deterministic
 * reuse distance equal to the footprint, which is the worst case for LRU:
 * with less than the full footprint cached, *every* access misses.
 */

#include <cstdint>
#include <vector>

#include "rebudget/trace/generator.h"
#include "rebudget/util/rng.h"

namespace rebudget::trace {

/** Random-cycle pointer chase over a working set. */
class PointerChaseGen : public AddressGenerator
{
  public:
    /**
     * @param base_addr    starting byte address of the region
     * @param working_set  footprint in bytes: 1 to 2^32 - 1 lines
     * @param line_bytes   node size (power of two)
     * @param seed         RNG seed used to build the cycle
     */
    PointerChaseGen(uint64_t base_addr, uint64_t working_set,
                    uint64_t line_bytes, uint64_t seed);

    void fill(Access *out, size_t n) override;
    uint64_t footprintBytes() const override { return workingSet_; }
    std::unique_ptr<AddressGenerator> clone() const override;

    /**
     * @return peak heap bytes of building a chase over this working set
     * (the shuffled visit order and the successor table), computed
     * without building them; 0 when the geometry would be rejected.
     */
    static uint64_t tableBytes(uint64_t working_set, uint64_t line_bytes);

  private:
    uint64_t baseAddr_;
    uint64_t workingSet_;
    uint64_t lineBytes_;
    std::vector<uint32_t> nextLine_;
    uint32_t current_ = 0;
};

} // namespace rebudget::trace

#endif // REBUDGET_TRACE_POINTER_CHASE_H_
