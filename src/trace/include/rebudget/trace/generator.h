#ifndef REBUDGET_TRACE_GENERATOR_H_
#define REBUDGET_TRACE_GENERATOR_H_

/**
 * @file
 * Synthetic memory reference stream interface.
 *
 * The reproduction cannot run the paper's SPEC CPU2000/2006 SimPoints, so
 * each catalog application is backed by a parametric address-stream
 * generator whose locality profile (working-set size, reuse skew, spatial
 * pattern) is chosen to reproduce the cache behavior class the paper
 * relies on (cache cliffs for mcf-like apps, smooth concave curves for
 * vpr-like apps, streaming for cache-insensitive apps).  The streams feed
 * the real cache substrate (src/cache), so miss curves and monitor error
 * are measured, not assumed.
 */

#include <cstddef>
#include <cstdint>
#include <memory>

namespace rebudget::trace {

/**
 * One memory reference.  No default member initializers: replay loops
 * keep kBatchSize-entry batches on the stack, and every fill() writes
 * both fields of each entry it hands out, so zeroing 4 KiB per batch
 * would be wasted.  Value-initialize (Access{}) where zeros are wanted.
 */
struct Access
{
    /** Byte address. */
    uint64_t addr;
    /** True for stores. */
    bool write;
};

/**
 * References a replay loop draws per fill(): enough to amortize the
 * virtual call, few enough for a 4 KiB buffer on the stack.
 */
inline constexpr size_t kBatchSize = 256;

/**
 * Abstract deterministic address-stream generator.
 *
 * Generators own their random state; two generators constructed with the
 * same parameters and seed produce identical streams.  A stream is drawn
 * in batches, fill(out, n), and does not depend on how it is split into
 * them: no generator reads ahead, so its state after a batch is its
 * state after those n references (which is what clone() copies).
 */
class AddressGenerator
{
  public:
    virtual ~AddressGenerator() = default;

    /** Write the next @p n memory references of the stream to out[0..n). */
    virtual void fill(Access *out, size_t n) = 0;

    /** @return the next memory reference in the stream. */
    Access
    next()
    {
        Access a{};
        fill(&a, 1);
        return a;
    }

    /**
     * @return the nominal working-set footprint of the stream in bytes
     * (the amount of cache beyond which few additional hits occur).
     */
    virtual uint64_t footprintBytes() const = 0;

    /** @return an independent deep copy with identical future behavior. */
    virtual std::unique_ptr<AddressGenerator> clone() const = 0;
};

} // namespace rebudget::trace

#endif // REBUDGET_TRACE_GENERATOR_H_
