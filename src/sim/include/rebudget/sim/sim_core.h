#ifndef REBUDGET_SIM_SIM_CORE_H_
#define REBUDGET_SIM_SIM_CORE_H_

/**
 * @file
 * One simulated core: reference stream + private L1 + utility monitor +
 * analytic timing.
 *
 * Execution is sampled: each epoch the core replays a fixed number of
 * memory references through the real cache hierarchy (private L1, then
 * the shared Talus-partitioned L2), while the UMON shadow tags observe
 * the post-L1 stream.  Timing applies the critical-path model
 * (app::perf_model) to the measured hit/miss counts at the core's
 * current DVFS frequency, yielding the achieved performance for the
 * epoch.  Cache contents, partition enforcement, monitor contents, and
 * contention are all concrete simulated state.
 */

#include <cstdint>
#include <memory>

#include "rebudget/app/app_params.h"
#include "rebudget/app/profiler.h"
#include "rebudget/cache/lru_filter.h"
#include "rebudget/cache/umon.h"
#include "rebudget/sim/cmp_config.h"
#include "rebudget/sim/shared_l2.h"

namespace rebudget::sim {

/** Per-epoch execution record of one core. */
struct CoreEpochStats
{
    /** Instructions represented by the sampled window. */
    double instructions = 0.0;
    /** Wall time of the window at the epoch's frequency (seconds). */
    double seconds = 0.0;
    /** Achieved performance (instructions per second). */
    double ips = 0.0;
    /** L2 accesses (post-L1). */
    double l2Accesses = 0.0;
    /** L2 misses (DRAM round trips). */
    double l2Misses = 0.0;
    /** Frequency the window ran at (GHz). */
    double freqGhz = 0.0;
    /** DRAM traffic of the window in bytes. */
    double memBytes = 0.0;
};

/** One core of the simulated CMP. */
class SimCore
{
  public:
    /**
     * @param id      core index (also selects the address-space base)
     * @param params  the application running on this core
     * @param config  machine configuration
     * @param seed    reference-stream seed
     */
    SimCore(uint32_t id, const app::AppParams &params,
            const CmpConfig &config, uint64_t seed);

    /**
     * Execute one epoch's sampled window.
     *
     * @param f_ghz      DVFS frequency for this epoch
     * @param l2         the shared L2
     * @param mem_lat_ns effective DRAM latency for this epoch
     * @param accesses   memory references to replay
     */
    CoreEpochStats runEpoch(double f_ghz, SharedL2 &l2, double mem_lat_ns,
                            uint64_t accesses);

    /**
     * @return an online profile built from this epoch's monitor state
     * (UMON miss curve + measured memory intensity), suitable for
     * constructing an app::AppUtilityModel.
     */
    app::AppProfile onlineProfile() const;

    /** Clear per-epoch monitor histograms (keeps shadow-tag state). */
    void resetEpochMonitors();

    /** @return the application parameters. */
    const app::AppParams &params() const { return params_; }

    /** @return the core id. */
    uint32_t id() const { return id_; }

  private:
    uint32_t id_;
    app::AppParams params_;
    CmpConfig config_;
    std::unique_ptr<trace::AddressGenerator> gen_;
    cache::LruFilter l1_;
    cache::UMonitor umon_;
    // Epoch counters for the online profile.
    uint64_t epochAccesses_ = 0;
    uint64_t epochL2Accesses_ = 0;
};

} // namespace rebudget::sim

#endif // REBUDGET_SIM_SIM_CORE_H_
