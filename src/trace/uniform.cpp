#include "rebudget/trace/uniform.h"

#include "rebudget/util/logging.h"

namespace rebudget::trace {

UniformWorkingSetGen::UniformWorkingSetGen(uint64_t base_addr,
                                           uint64_t working_set,
                                           uint64_t line_bytes,
                                           double write_fraction,
                                           uint64_t seed)
    : baseAddr_(base_addr), workingSet_(working_set), lineBytes_(line_bytes),
      lines_(working_set / line_bytes), writeFraction_(write_fraction),
      rng_(seed)
{
    if (line_bytes == 0 || (line_bytes & (line_bytes - 1)) != 0)
        util::fatal("line_bytes must be a power of two");
    if (lines_ == 0)
        util::fatal("working set smaller than one line");
    if (!(write_fraction >= 0.0 && write_fraction <= 1.0))
        util::fatal("write_fraction must be in [0,1]");
}

void
UniformWorkingSetGen::fill(Access *out, size_t n)
{
    util::Rng rng = rng_;
    const uint64_t base = baseAddr_;
    const uint64_t line_bytes = lineBytes_;
    const uint64_t lines = lines_;
    const double write_fraction = writeFraction_;
    for (size_t i = 0; i < n; ++i) {
        const uint64_t line = rng.uniformInt(lines);
        out[i] = Access{base + line * line_bytes,
                        rng.bernoulli(write_fraction)};
    }
    rng_ = rng;
}

std::unique_ptr<AddressGenerator>
UniformWorkingSetGen::clone() const
{
    return std::make_unique<UniformWorkingSetGen>(*this);
}

} // namespace rebudget::trace
