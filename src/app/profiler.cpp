#include "rebudget/app/profiler.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <numeric>
#include <optional>
#include <system_error>

#include "rebudget/util/logging.h"
#include "rebudget/util/thread_pool.h"

namespace rebudget::app {

WorkCounts
AppProfile::workAt(double regions, bool use_hull) const
{
    WorkCounts work;
    work.instructions = 1.0;
    work.l2Accesses = l2AccessesPerInstr;
    const double misses_abs = use_hull ? l2Curve.missesAtHull(regions)
                                       : l2Curve.missesAtRaw(regions);
    const double misses_per_instr =
        instructions > 0.0 ? misses_abs / instructions : 0.0;
    // The miss curve is UMON-sampled; clamp against the measured access
    // count so sampling noise cannot produce misses > accesses.
    work.l2Misses = std::clamp(misses_per_instr, 0.0, work.l2Accesses);
    return work;
}

double
AppProfile::perfAt(double regions, double f_ghz, bool use_hull) const
{
    return instructionsPerSecond(workAt(regions, use_hull), f_ghz, timing);
}

double
AppProfile::perfAlone(double f_max_ghz, bool use_hull) const
{
    return perfAt(static_cast<double>(l2Curve.maxRegions()), f_max_ghz,
                  use_hull);
}

namespace {

// The profile's fixed fields, checked before a run allocates anything.
AppProfile
startProfile(const AppParams &params)
{
    if (!(params.memPerInstr > 0.0) || !std::isfinite(params.memPerInstr))
        util::fatal("app '%s' needs a finite, positive memPerInstr",
                    params.name.c_str());
    AppProfile profile;
    profile.params = params;
    profile.timing.computeCpi = params.computeCpi;
    return profile;
}

} // namespace

ProfileRun::ProfileRun(const AppParams &params, const ProfilerConfig &config,
                       uint64_t seed)
    : config_(config), profile_(startProfile(params)),
      owned_(params.makeGenerator(/*base_addr=*/0, seed)), gen_(*owned_),
      l1_(config.l1), umon_(config.umon)
{
}

ProfileRun::ProfileRun(trace::AddressGenerator &gen, const AppParams &params,
                       const ProfilerConfig &config)
    : config_(config), profile_(startProfile(params)), gen_(gen),
      l1_(config.l1), umon_(config.umon)
{
}

void
ProfileRun::replay()
{
    // Warm up the L1 and shadow tags so the measured window reflects
    // steady state.
    stream(config_.warmupAccesses);
    umon_.resetHistogram();
    l2Accesses_ = stream(config_.measureAccesses);
}

uint64_t
ProfileRun::stream(uint64_t accesses)
{
    // One generator call per batch; the batch lives on this stack, so a
    // replay allocates nothing.
    trace::Access batch[trace::kBatchSize];
    uint64_t misses = 0;
    while (accesses > 0) {
        const auto n = static_cast<size_t>(
            std::min<uint64_t>(accesses, trace::kBatchSize));
        gen_.fill(batch, n);
        l1_.filter(batch, n, [&](const trace::Access &a) {
            ++misses;
            umon_.observe(a.addr);
        });
        accesses -= n;
    }
    return misses;
}

AppProfile
ProfileRun::finish()
{
    profile_.instructions = static_cast<double>(config_.measureAccesses) /
                            profile_.params.memPerInstr;
    profile_.l2AccessesPerInstr =
        static_cast<double>(l2Accesses_) / profile_.instructions;
    profile_.l2Curve = umon_.missCurve();
    return std::move(profile_);
}

AppProfile
profileApp(const AppParams &params, const ProfilerConfig &config,
           uint64_t seed)
{
    ProfileRun run(params, config, seed);
    run.replay();
    return run.finish();
}

AppProfile
profileStream(trace::AddressGenerator &gen, const std::string &name,
              double mem_per_instr, double compute_cpi, double activity,
              const ProfilerConfig &config)
{
    AppParams params;
    params.name = name;
    params.memPerInstr = mem_per_instr;
    params.computeCpi = compute_cpi;
    params.activity = activity;
    ProfileRun run(gen, params, config);
    run.replay();
    return run.finish();
}

namespace {

// Collects the replays that have ended for the thread that builds and
// finishes the runs.  The list is sized up front and a replay only
// appends an index to it, so a worker allocates nothing here.
class ReplayBoard
{
  public:
    explicit ReplayBoard(std::vector<std::unique_ptr<ProfileRun>> &runs)
        : runs_(runs), finished_(runs.size())
    {
    }

    // Pool task: replay runs_[i] and post its index, with what it
    // threw, if anything.
    void
    replay(size_t i)
    {
        std::exception_ptr error;
        try {
            runs_[i]->replay();
        } catch (...) {
            error = std::current_exception();
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (error && !error_)
                error_ = error;
            finished_[tail_++] = i;
        }
        cv_.notify_one();
    }

    // Calling thread: wait for a replay to end and return its run's
    // index, or rethrow what a replay threw.
    size_t
    awaitFinished()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return head_ < tail_; });
        if (error_)
            std::rethrow_exception(error_);
        return finished_[head_++];
    }

  private:
    std::vector<std::unique_ptr<ProfileRun>> &runs_;
    std::mutex mutex_;
    std::condition_variable cv_;
    std::vector<size_t> finished_;
    size_t head_ = 0;
    size_t tail_ = 0;
    std::exception_ptr error_;
};

} // namespace

std::vector<AppProfile>
profileApps(const std::vector<AppParams> &apps, const ProfilerConfig &config,
            uint64_t first_seed)
{
    const size_t n = apps.size();
    if (n == 0)
        return {};
    std::vector<uint64_t> bytes(n);
    for (size_t i = 0; i < n; ++i)
        bytes[i] = apps[i].generatorTableBytes();
    const uint64_t budget = *std::max_element(bytes.begin(), bytes.end());
    // Largest tables first, catalog order among equals.
    std::vector<size_t> pending(n);
    std::iota(pending.begin(), pending.end(), size_t{0});
    std::stable_sort(pending.begin(), pending.end(),
                     [&](size_t a, size_t b) { return bytes[a] > bytes[b]; });

    std::vector<AppProfile> out(n);
    std::vector<std::unique_ptr<ProfileRun>> runs(n);
    ReplayBoard board(runs);
    // Declared after the runs and the board, so destroyed before them:
    // on any exit the pool lets the replays it was given end first.  A
    // pool of one runs each replay inline, in submit().
    std::optional<util::ThreadPool> pool;
    const auto threads = static_cast<unsigned>(
        std::min<size_t>(util::ThreadPool::defaultThreadCount(), n));
    try {
        pool.emplace(threads);
    } catch (const std::system_error &e) {
        util::warn("profiling serially: cannot start %u threads (%s)",
                   threads, e.what());
        pool.emplace(1);
    }

    uint64_t in_flight = 0;
    size_t running = 0;
    for (size_t done = 0; done < n; ++done) {
        for (auto it = pending.begin();
             it != pending.end() && running < pool->size();) {
            const size_t i = *it;
            if (in_flight + bytes[i] > budget) {
                ++it;
                continue;
            }
            runs[i] =
                std::make_unique<ProfileRun>(apps[i], config, first_seed + i);
            in_flight += bytes[i];
            ++running;
            it = pending.erase(it);
            pool->submit([&board, i] { board.replay(i); });
        }
        const size_t i = board.awaitFinished();
        out[i] = runs[i]->finish();
        runs[i].reset();
        in_flight -= bytes[i];
        --running;
    }
#if defined(__GLIBC__)
    // The runs' tables are free but still resident in this thread's
    // arena, where allocations made later on other threads (a daemon's
    // shard workers) never reuse them: hand the pages back.
    ::malloc_trim(0);
#endif
    return out;
}

} // namespace rebudget::app
