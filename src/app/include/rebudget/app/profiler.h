#ifndef REBUDGET_APP_PROFILER_H_
#define REBUDGET_APP_PROFILER_H_

/**
 * @file
 * Application profiling: measure an app's L2 miss curve and memory
 * intensity by replaying its reference stream through a private L1 model
 * into a UMON shadow-tag monitor.
 *
 * This is the same machinery the online system uses (Section 4.1.1); the
 * offline profiler simply runs it on a long window, which is how the
 * paper's first evaluation phase obtains "perfectly modeled" utilities
 * (Section 6).
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rebudget/app/app_params.h"
#include "rebudget/app/perf_model.h"
#include "rebudget/cache/cache_config.h"
#include "rebudget/cache/lru_filter.h"
#include "rebudget/cache/miss_curve.h"
#include "rebudget/cache/umon.h"

namespace rebudget::app {

/** Profiling run parameters. */
struct ProfilerConfig
{
    /** Private L1D geometry (Table 1: 32 kB, 4-way). */
    cache::CacheConfig l1{32 * 1024, 4, 64};
    /** Monitor geometry (16 regions of 128 kB, sampling 32). */
    cache::UMonConfig umon;
    /** Memory references replayed before measuring. */
    uint64_t warmupAccesses = 200 * 1000;
    /** Memory references in the measurement window. */
    uint64_t measureAccesses = 1000 * 1000;
};

/** Measured per-instruction characterization of one application. */
struct AppProfile
{
    /** The generating parameters. */
    AppParams params;
    /** Absolute L2 misses over the window vs. regions (UMON output). */
    cache::MissCurve l2Curve;
    /** Instructions represented by the measurement window. */
    double instructions = 0.0;
    /** L2 accesses (post-L1) per instruction. */
    double l2AccessesPerInstr = 0.0;
    /** Core timing constants. */
    TimingParams timing;

    /**
     * @return per-instruction work counts at a cache allocation.
     *
     * @param regions   allocated cache in (possibly fractional) regions
     * @param use_hull  true: misses from the Talus convex hull of the
     *                  curve; false: raw (non-convexified) curve
     */
    WorkCounts workAt(double regions, bool use_hull) const;

    /**
     * @return performance (instructions per second, per instruction of
     * work) at a cache allocation and frequency.
     */
    double perfAt(double regions, double f_ghz, bool use_hull) const;

    /** @return perfAt with all monitored cache at max frequency. */
    double perfAlone(double f_max_ghz, bool use_hull) const;
};

/**
 * One profiling run in three steps, so that all of a run's heap
 * allocation happens on the thread that builds and finishes it:
 *
 *  1. the constructor checks the parameters and builds the reference
 *     stream, the L1 and the UMON;
 *  2. replay() streams the warm-up and measured references through them
 *     and makes no heap allocation, so any thread may run it;
 *  3. finish() builds the miss curve and returns the profile.
 *
 * profileApp() and profileStream() run the three steps inline;
 * profileApps() replays many runs on a worker pool.
 */
class ProfileRun
{
  public:
    /** Profile an application's stream, params.makeGenerator(0, seed). */
    ProfileRun(const AppParams &params, const ProfilerConfig &config,
               uint64_t seed);

    /** Profile a caller-owned stream, which must outlive the run. */
    ProfileRun(trace::AddressGenerator &gen, const AppParams &params,
               const ProfilerConfig &config);

    ProfileRun(const ProfileRun &) = delete;
    ProfileRun &operator=(const ProfileRun &) = delete;

    /** Replay the warm-up and measured references (once per run). */
    void replay();

    /** @return the profile measured by replay(); call once, last. */
    AppProfile finish();

  private:
    // Stream @p accesses references through the L1 into the UMON, in
    // batches; @return the L1 misses.
    uint64_t stream(uint64_t accesses);

    ProfilerConfig config_;
    AppProfile profile_;
    std::unique_ptr<trace::AddressGenerator> owned_;
    trace::AddressGenerator &gen_;
    cache::LruFilter l1_;
    cache::UMonitor umon_;
    uint64_t l2Accesses_ = 0;
};

/**
 * Profile an application by trace replay.
 *
 * @param params  the application description
 * @param config  profiling run parameters
 * @param seed    reference-stream seed (determinism)
 */
AppProfile profileApp(const AppParams &params,
                      const ProfilerConfig &config = {},
                      uint64_t seed = 1);

/**
 * Profile an arbitrary reference stream (e.g.\ a recorded trace played
 * through trace::ReplayGen) without an AppParams description.
 *
 * The returned profile's params carry the supplied name and timing
 * knobs so it can feed app::AppUtilityModel and the simulator exactly
 * like a catalog application.
 *
 * @param gen            the stream to profile (consumed)
 * @param name           display name for the resulting profile
 * @param mem_per_instr  memory references per instruction of the traced
 *                       program (> 0)
 * @param compute_cpi    cycles per instruction excluding L2 stalls
 * @param activity       dynamic-power activity factor in (0, 1]
 * @param config         profiling run parameters
 */
AppProfile profileStream(trace::AddressGenerator &gen,
                         const std::string &name, double mem_per_instr,
                         double compute_cpi = 0.5, double activity = 0.7,
                         const ProfilerConfig &config = {});

/**
 * Profile many applications: entry i is exactly
 * profileApp(apps[i], config, first_seed + i).
 *
 * The calling thread builds and finishes every run (ProfileRun), and a
 * util::ThreadPool of ThreadPool::defaultThreadCount() workers replays
 * them, largest generator tables first (AppParams::generatorTableBytes).
 * A run is admitted only while the tables of the runs in flight plus its
 * own stay within the largest single run's, so transient memory peaks
 * where profiling one app at a time does.  With one thread, or when the
 * pool cannot start its threads, the runs go one after another on the
 * calling thread.
 */
std::vector<AppProfile> profileApps(const std::vector<AppParams> &apps,
                                    const ProfilerConfig &config,
                                    uint64_t first_seed);

} // namespace rebudget::app

#endif // REBUDGET_APP_PROFILER_H_
