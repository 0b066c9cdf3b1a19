/**
 * @file
 * Heap-allocation contract of catalog profiling: the workers that replay
 * reference streams make no heap allocation, so every table a run builds
 * lives in the calling thread's arena and is freed there.
 *
 * This binary replaces operator new (the pattern bench/perf_serve uses)
 * with one that counts allocations per thread and in total, so it is a
 * test executable of its own.  The catalog test must be the first
 * catalogProfiles() call in its process; ctest runs each test in a
 * process of its own.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rebudget/app/catalog.h"
#include "rebudget/app/profiler.h"
#include "rebudget/cache/umon.h"
#include "rebudget/util/rng.h"

namespace {

thread_local std::uint64_t t_allocs = 0;
thread_local std::uint64_t t_bytes = 0;
std::atomic<std::uint64_t> g_allocs{0};
// Heap bytes held through operator new, and their high-water mark.
std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};

void *
noteAlloc(void *p, std::size_t size)
{
    if (p == nullptr)
        throw std::bad_alloc();
    t_allocs += 1;
    t_bytes += size;
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    const auto live =
        g_live.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p))) +
        static_cast<std::int64_t>(malloc_usable_size(p));
    std::int64_t peak = g_peak.load();
    while (live > peak && !g_peak.compare_exchange_weak(peak, live)) {
    }
    return p;
}

void *
countedAlloc(std::size_t size)
{
    return noteAlloc(std::malloc(size ? size : 1), size);
}

void *
countedAlignedAlloc(std::size_t size, std::size_t align)
{
    if (align < sizeof(void *))
        align = sizeof(void *);
    void *p = nullptr;
    if (posix_memalign(&p, align, size ? size : 1) != 0)
        p = nullptr;
    return noteAlloc(p, size);
}

void
countedFree(void *p)
{
    if (p != nullptr)
        g_live.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)));
    std::free(p);
}

} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(size);
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(size);
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, static_cast<std::size_t>(align));
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, static_cast<std::size_t>(align));
}

void
operator delete(void *p) noexcept
{
    countedFree(p);
}

void
operator delete[](void *p) noexcept
{
    countedFree(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    countedFree(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    countedFree(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    countedFree(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    countedFree(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    countedFree(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    countedFree(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    countedFree(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    countedFree(p);
}

namespace rebudget::app {
namespace {

double
cpuSeconds(int who)
{
    rusage ru{};
    ::getrusage(who, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

TEST(ProfileAlloc, CatalogReplayWorkersAllocateNothing)
{
    // Three workers whatever the machine, so the replays leave this
    // thread even on one CPU.
    const char *old = std::getenv("REBUDGET_JOBS");
    const std::string saved = old ? old : "";
    ::setenv("REBUDGET_JOBS", "3", 1);

    const double self0 = cpuSeconds(RUSAGE_SELF);
    const double thread0 = cpuSeconds(RUSAGE_THREAD);
    const std::uint64_t all0 = g_allocs.load();
    const std::uint64_t mine0 = t_allocs;
    const auto &profiles = catalogProfiles();
    const std::uint64_t all = g_allocs.load() - all0;
    const std::uint64_t mine = t_allocs - mine0;
    const double thread_cpu = cpuSeconds(RUSAGE_THREAD) - thread0;
    const double worker_cpu = cpuSeconds(RUSAGE_SELF) - self0 - thread_cpu;

    if (old)
        ::setenv("REBUDGET_JOBS", saved.c_str(), 1);
    else
        ::unsetenv("REBUDGET_JOBS");

    ASSERT_EQ(profiles.size(), 24u);
    EXPECT_GT(mine, 0u); // the tables and curves are built here
    EXPECT_EQ(all - mine, 0u) << "allocations off the calling thread";
    // The replays, nearly all of the work, ran on the workers.
    EXPECT_GT(worker_cpu, thread_cpu)
        << "workers " << worker_cpu << " s, caller " << thread_cpu << " s";
}

TEST(ProfileAlloc, ReplayAllocatesNothingForAnyCatalogApp)
{
    ProfilerConfig cfg;
    cfg.warmupAccesses = 20000;
    cfg.measureAccesses = 80000;
    uint64_t seed = 1000;
    for (const AppParams &params : spec24Catalog()) {
        const std::uint64_t bytes0 = t_bytes;
        ProfileRun run(params, cfg, seed++);
        // The estimate the admission rule uses covers what the run
        // builds, give or take the L1, the UMON and a few small objects.
        const std::uint64_t built = t_bytes - bytes0;
        EXPECT_GE(built, params.generatorTableBytes()) << params.name;
        EXPECT_LE(built, params.generatorTableBytes() + 64 * 1024)
            << params.name;

        const std::uint64_t allocs0 = t_allocs;
        run.replay();
        EXPECT_EQ(t_allocs - allocs0, 0u) << params.name;
        EXPECT_GT(run.finish().l2Curve.maxRegions(), 0u);
    }
}

namespace {

// Heap high-water mark, above the bytes live at the start, of profiling
// the catalog (short windows) with REBUDGET_JOBS = @p jobs.
std::int64_t
peakHeapOfProfiling(const char *jobs)
{
    const char *old = std::getenv("REBUDGET_JOBS");
    const std::string saved = old ? old : "";
    ::setenv("REBUDGET_JOBS", jobs, 1);
    ProfilerConfig cfg;
    cfg.warmupAccesses = 2000;
    cfg.measureAccesses = 10000;
    const std::vector<AppParams> apps = spec24Catalog();
    const std::int64_t base = g_live.load();
    g_peak.store(base);
    const std::vector<AppProfile> profiles = profileApps(apps, cfg, 1000);
    const std::int64_t peak = g_peak.load() - base;
    if (old)
        ::setenv("REBUDGET_JOBS", saved.c_str(), 1);
    else
        ::unsetenv("REBUDGET_JOBS");
    EXPECT_EQ(profiles.size(), apps.size());
    return peak;
}

} // namespace

TEST(ProfileAlloc, AdmissionKeepsPeakHeapNearTheSerialLoop)
{
    const std::int64_t serial = peakHeapOfProfiling("1");
    const std::int64_t parallel = peakHeapOfProfiling("4");
    // In-flight tables stay within vpr's; each of the three extra runs
    // holds its own L1 (12 KiB) and UMON (9 KiB).  Admitting the four
    // largest tables at once would add ~1 MiB.
    EXPECT_GT(serial, 512 * 1024);
    EXPECT_LE(parallel, serial + 3 * 32 * 1024)
        << "serial " << serial << " B, parallel " << parallel << " B";
}

TEST(ProfileAlloc, ZipfSamplerTableBytesAreWhatItAllocates)
{
    // Powers of two, one rank past them, and catalog-sized populations.
    for (const size_t n : {size_t{1}, size_t{2}, size_t{3}, size_t{1024},
                           size_t{1025}, size_t{28672}, size_t{32768}}) {
        const std::uint64_t bytes0 = t_bytes;
        const util::ZipfSampler sampler(n, 0.9);
        EXPECT_EQ(t_bytes - bytes0, util::ZipfSampler::tableBytes(n)) << n;
        EXPECT_EQ(sampler.size(), n);
    }
}

TEST(ProfileAlloc, UMonitorObserveAllocatesNothing)
{
    for (const uint32_t ratio : {32u, 24u, 1u}) {
        cache::UMonConfig config;
        config.samplingRatio = ratio;
        cache::UMonitor umon(config);
        util::Rng rng(ratio);
        const std::uint64_t allocs0 = t_allocs;
        for (int i = 0; i < 200000; ++i)
            umon.observe(rng.uniformInt(uint64_t{1} << 26) * 64);
        umon.reset();
        for (int i = 0; i < 1000; ++i)
            umon.observe(static_cast<uint64_t>(i) * 64);
        EXPECT_EQ(t_allocs - allocs0, 0u) << "sampling ratio " << ratio;
    }
}

} // namespace
} // namespace rebudget::app
