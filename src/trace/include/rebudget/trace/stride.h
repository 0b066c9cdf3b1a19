#ifndef REBUDGET_TRACE_STRIDE_H_
#define REBUDGET_TRACE_STRIDE_H_

/**
 * @file
 * Streaming (strided) reference pattern.
 *
 * Sweeps a footprint with a fixed stride and wraps around.  If the
 * footprint exceeds the cache, every access misses regardless of
 * allocation (LRU worst case), producing the flat miss curves of
 * cache-insensitive ("N"/"P" class) applications.
 */

#include <cstdint>

#include "rebudget/trace/generator.h"

namespace rebudget::trace {

/** Wrapping strided sweep over a footprint. */
class StrideGen : public AddressGenerator
{
  public:
    /**
     * @param base_addr       starting byte address of the region
     * @param footprint       bytes swept before wrapping (> 0)
     * @param stride_bytes    stride between consecutive accesses (> 0)
     * @param write_fraction  fraction of stores (deterministic pattern:
     *                        every k-th access is a store)
     */
    StrideGen(uint64_t base_addr, uint64_t footprint, uint64_t stride_bytes,
              double write_fraction);

    void fill(Access *out, size_t n) override;
    uint64_t footprintBytes() const override { return footprint_; }
    std::unique_ptr<AddressGenerator> clone() const override;

  private:
    uint64_t baseAddr_;
    uint64_t footprint_;
    uint64_t stride_;
    uint64_t offset_ = 0;
    uint64_t count_ = 0;
    uint64_t writePeriod_; // 0 = never write
};

} // namespace rebudget::trace

#endif // REBUDGET_TRACE_STRIDE_H_
