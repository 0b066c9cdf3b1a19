#include "rebudget/cache/lru_filter.h"

#include <bit>

namespace rebudget::cache {

LruFilter::LruFilter(const CacheConfig &config)
{
    config.validate(); // before sets() divides by assoc * lineBytes
    assoc_ = config.assoc;
    lineShift_ = static_cast<uint32_t>(std::countr_zero(config.lineBytes));
    setIndex_ = FixedDivisor(config.sets());
    ways_.resize(config.lines());
}

} // namespace rebudget::cache
