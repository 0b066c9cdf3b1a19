#include "rebudget/trace/stride.h"

#include <cmath>

#include "rebudget/util/logging.h"

namespace rebudget::trace {

StrideGen::StrideGen(uint64_t base_addr, uint64_t footprint,
                     uint64_t stride_bytes, double write_fraction)
    : baseAddr_(base_addr), footprint_(footprint), stride_(stride_bytes)
{
    if (footprint == 0)
        util::fatal("StrideGen requires a non-zero footprint");
    if (stride_bytes == 0)
        util::fatal("StrideGen requires a non-zero stride");
    if (!(write_fraction >= 0.0 && write_fraction <= 1.0))
        util::fatal("write_fraction must be in [0,1]");
    writePeriod_ = write_fraction > 0.0
                       ? static_cast<uint64_t>(std::llround(1.0 /
                                                            write_fraction))
                       : 0;
}

void
StrideGen::fill(Access *out, size_t n)
{
    const uint64_t base = baseAddr_;
    const uint64_t footprint = footprint_;
    const uint64_t stride = stride_;
    const uint64_t write_period = writePeriod_;
    uint64_t offset = offset_;
    uint64_t count = count_;
    for (size_t i = 0; i < n; ++i) {
        const bool write =
            write_period != 0 && count % write_period == 0 && count > 0;
        out[i] = Access{base + offset, write};
        offset += stride;
        if (offset >= footprint)
            offset = 0;
        ++count;
    }
    offset_ = offset;
    count_ = count;
}

std::unique_ptr<AddressGenerator>
StrideGen::clone() const
{
    return std::make_unique<StrideGen>(*this);
}

} // namespace rebudget::trace
