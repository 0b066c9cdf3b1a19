#include "rebudget/sim/sim_core.h"

#include <algorithm>

#include "rebudget/util/logging.h"

namespace rebudget::sim {

SimCore::SimCore(uint32_t id, const app::AppParams &params,
                 const CmpConfig &config, uint64_t seed)
    : id_(id), params_(params), config_(config),
      gen_(params.makeGenerator(static_cast<uint64_t>(id) << 40, seed)),
      l1_(config.l1), umon_(config.umon)
{
}

CoreEpochStats
SimCore::runEpoch(double f_ghz, SharedL2 &l2, double mem_lat_ns,
                  uint64_t accesses)
{
    uint64_t l2_accesses = 0;
    uint64_t l2_misses = 0;
    const cache::PartitionStats wb_before = l2.coreStats(id_);
    trace::Access batch[trace::kBatchSize];
    for (uint64_t left = accesses; left > 0;) {
        const auto n = static_cast<size_t>(
            std::min<uint64_t>(left, trace::kBatchSize));
        gen_->fill(batch, n);
        l1_.filter(batch, n, [&](const trace::Access &a) {
            umon_.observe(a.addr);
            ++l2_accesses;
            if (!l2.access(id_, a.addr, a.write))
                ++l2_misses;
        });
        left -= n;
    }
    const uint64_t writebacks =
        l2.coreStats(id_).writebacks - wb_before.writebacks;
    epochAccesses_ += accesses;
    epochL2Accesses_ += l2_accesses;

    CoreEpochStats stats;
    stats.instructions =
        static_cast<double>(accesses) / params_.memPerInstr;
    stats.l2Accesses = static_cast<double>(l2_accesses);
    stats.l2Misses = static_cast<double>(l2_misses);
    stats.freqGhz = f_ghz;
    app::TimingParams timing = config_.timing;
    timing.computeCpi = params_.computeCpi;
    timing.memLatencyNs = mem_lat_ns;
    const app::WorkCounts work{stats.instructions, stats.l2Accesses,
                               stats.l2Misses};
    stats.seconds = app::execTimeSeconds(work, f_ghz, timing);
    stats.ips = stats.seconds > 0.0 ? stats.instructions / stats.seconds
                                    : 0.0;
    // DRAM traffic: fills for every miss plus writebacks of evicted
    // dirty lines.
    stats.memBytes = (stats.l2Misses + static_cast<double>(writebacks)) *
                     static_cast<double>(config_.lineBytes);
    return stats;
}

app::AppProfile
SimCore::onlineProfile() const
{
    app::AppProfile profile;
    profile.params = params_;
    profile.timing = config_.timing;
    profile.timing.computeCpi = params_.computeCpi;
    profile.l2Curve = umon_.missCurve();
    profile.instructions = static_cast<double>(epochAccesses_) /
                           params_.memPerInstr;
    profile.l2AccessesPerInstr =
        profile.instructions > 0.0
            ? static_cast<double>(epochL2Accesses_) / profile.instructions
            : 0.0;
    return profile;
}

void
SimCore::resetEpochMonitors()
{
    umon_.resetHistogram();
    epochAccesses_ = 0;
    epochL2Accesses_ = 0;
}

} // namespace rebudget::sim
