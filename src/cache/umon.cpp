#include "rebudget/cache/umon.h"

#include <algorithm>
#include <bit>

#include "rebudget/cache/curve_repair.h"
#include "rebudget/util/logging.h"

namespace rebudget::cache {

UMonitor::UMonitor(const UMonConfig &config) : config_(config)
{
    if (config_.maxRegions == 0)
        util::fatal("UMonitor requires maxRegions > 0");
    if (config_.lineBytes == 0 ||
        (config_.lineBytes & (config_.lineBytes - 1)) != 0)
        util::fatal("UMonitor line size must be a power of two");
    if (config_.regionBytes == 0 ||
        config_.regionBytes % config_.lineBytes != 0)
        util::fatal("UMonitor region size must be a positive line multiple");
    if (config_.samplingRatio == 0)
        util::fatal("UMonitor sampling ratio must be positive");
    // A full shadow cache of maxRegions capacity and maxRegions ways has
    // one set per line of a region.
    const uint64_t shadow_sets = config_.regionBytes / config_.lineBytes;
    sampledSets_ = (shadow_sets + config_.samplingRatio - 1) /
                   config_.samplingRatio;
    lineShift_ = static_cast<uint32_t>(std::countr_zero(config_.lineBytes));
    setIndex_ = FixedDivisor(shadow_sets);
    sampling_ = FixedDivisor(config_.samplingRatio);
    // A stack holds at most maxRegions tags, one more between an insert
    // and its pop_back; reserving that here keeps observe() off the heap.
    stacks_.resize(sampledSets_);
    for (auto &stack : stacks_)
        stack.reserve(static_cast<size_t>(config_.maxRegions) + 1);
    hits_.assign(config_.maxRegions, 0);
}

void
UMonitor::observe(uint64_t addr)
{
    // lineBytes is a validated power of two; the shadow set count and
    // the sampling ratio may not be.
    const QuotRem split = setIndex_.divide(addr >> lineShift_);
    const QuotRem sample = sampling_.divide(split.rem);
    if (sample.rem != 0)
        return; // not a sampled set
    const uint64_t tag = split.quot;
    auto &stack = stacks_[sample.quot];
    const auto it = std::find(stack.begin(), stack.end(), tag);
    if (it != stack.end()) {
        const auto d = static_cast<uint32_t>(it - stack.begin());
        ++hits_[d];
        stack.erase(it);
        stack.insert(stack.begin(), tag);
    } else {
        ++missesBeyond_;
        stack.insert(stack.begin(), tag);
        if (stack.size() > config_.maxRegions)
            stack.pop_back();
    }
}

MissCurve
UMonitor::missCurve() const
{
    uint64_t total = missesBeyond_;
    for (uint64_t h : hits_)
        total += h;
    const double scale = static_cast<double>(config_.samplingRatio);
    std::vector<double> misses(config_.maxRegions + 1);
    uint64_t hits_below = 0;
    misses[0] = static_cast<double>(total) * scale;
    for (uint32_t r = 1; r <= config_.maxRegions; ++r) {
        hits_below += hits_[r - 1];
        misses[r] = static_cast<double>(total - hits_below) * scale;
    }
    // Cumulative hit counts make this curve non-increasing already, so
    // the repair is a no-op here; it guards against future histogram
    // sources (sampled, decayed, or injected) that may not be.
    return repairedMissCurve(std::move(misses));
}

double
UMonitor::totalAccessesScaled() const
{
    uint64_t total = missesBeyond_;
    for (uint64_t h : hits_)
        total += h;
    return static_cast<double>(total) *
           static_cast<double>(config_.samplingRatio);
}

uint64_t
UMonitor::hitsAtDistance(uint32_t d) const
{
    REBUDGET_ASSERT(d < config_.maxRegions, "stack distance out of range");
    return hits_[d];
}

void
UMonitor::reset()
{
    for (auto &s : stacks_)
        s.clear();
    resetHistogram();
}

void
UMonitor::resetHistogram()
{
    std::fill(hits_.begin(), hits_.end(), 0);
    missesBeyond_ = 0;
}

uint64_t
UMonitor::storageOverheadBytes() const
{
    // Each shadow entry stores a partial tag (~4 bytes is representative
    // of the paper's 3.6 kB/core figure at ratio 32).
    return sampledSets_ * config_.maxRegions * 4;
}

} // namespace rebudget::cache
