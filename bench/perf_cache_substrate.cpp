/**
 * @file
 * Microbenchmark: cache substrate throughput.
 *
 * Simulation cost is dominated by L2 accesses and UMON observations;
 * this benchmark quantifies both, plus the futility-controller update.
 * Catalog profiling (every process's cold start) replays Zipf draws
 * through the profiler's L1 into a UMON; the Zipf draw, the L1 access
 * and one whole app profile are timed too.
 */

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "rebudget/app/catalog.h"
#include "rebudget/app/profiler.h"
#include "rebudget/cache/futility_controller.h"
#include "rebudget/cache/lru_filter.h"
#include "rebudget/cache/set_assoc_cache.h"
#include "rebudget/cache/umon.h"
#include "rebudget/trace/zipf.h"
#include "rebudget/util/logging.h"
#include "rebudget/util/rng.h"

using namespace rebudget;

namespace {

void
BM_L2Access(benchmark::State &state)
{
    const auto assoc = static_cast<uint32_t>(state.range(0));
    cache::SetAssocCache l2(
        cache::CacheConfig{4 * 1024 * 1024, assoc, 64}, 8);
    util::Rng rng(1);
    // Pre-generate addresses so the RNG is out of the measured loop.
    std::vector<uint64_t> addrs(1 << 16);
    for (auto &a : addrs)
        a = rng.uniformInt(uint64_t{1 << 20}) * 64;
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            l2.access(i % 8, addrs[i % addrs.size()], false));
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_UMonObserve(benchmark::State &state)
{
    cache::UMonitor umon;
    util::Rng rng(2);
    std::vector<uint64_t> addrs(1 << 16);
    for (auto &a : addrs)
        a = rng.uniformInt(uint64_t{1 << 15}) * 64;
    size_t i = 0;
    for (auto _ : state) {
        umon.observe(addrs[i % addrs.size()]);
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_FutilityControllerUpdate(benchmark::State &state)
{
    cache::SetAssocCache l2(
        cache::CacheConfig{4 * 1024 * 1024, 16, 64},
        static_cast<uint32_t>(state.range(0)));
    cache::FutilityController ctl(l2);
    for (auto _ : state)
        ctl.update();
    state.SetItemsProcessed(state.iterations());
}

// Args: population, alpha x 100 (vpr's 2 MiB at 0.90, twolf's 1 MiB
// at 0.70, in 64-byte lines).
void
BM_ZipfSample(benchmark::State &state)
{
    const util::ZipfSampler zipf(static_cast<size_t>(state.range(0)),
                                 static_cast<double>(state.range(1)) / 100);
    util::Rng rng(3);
    for (auto _ : state)
        benchmark::DoNotOptimize(zipf.sample(rng));
    state.SetItemsProcessed(state.iterations());
}

// The profiler's L1 filter (32 KiB, 4-way) fed vpr's reference stream,
// one generator batch per iteration; items are references.
void
BM_L1Access(benchmark::State &state)
{
    cache::LruFilter l1(app::ProfilerConfig{}.l1);
    trace::ZipfWorkingSetGen gen(0, 2 * 1024 * 1024, 64, 0.90, 0.15, 4);
    std::vector<trace::Access> refs(1 << 16);
    gen.fill(refs.data(), refs.size());
    size_t i = 0;
    uint64_t misses = 0;
    for (auto _ : state) {
        l1.filter(refs.data() + i, trace::kBatchSize,
                  [&](const trace::Access &) { ++misses; });
        benchmark::DoNotOptimize(misses);
        i = (i + trace::kBatchSize) % refs.size();
    }
    state.SetItemsProcessed(state.iterations() * trace::kBatchSize);
}

// One catalog profile (1.2M references) per iteration: a Zipf app, an
// L1-resident app and a streaming app.
void
BM_ProfileApp(benchmark::State &state)
{
    static const char *const kApps[] = {"vpr", "sixtrack", "milc"};
    const std::string name = kApps[state.range(0)];
    for (const app::AppParams &params : app::spec24Catalog()) {
        if (params.name != name)
            continue;
        for (auto _ : state) {
            benchmark::DoNotOptimize(
                app::profileApp(params, app::ProfilerConfig{}, 1000));
        }
        state.SetLabel(name);
        return;
    }
    util::fatal("catalog has no app '%s'", name.c_str());
}

} // namespace

BENCHMARK(BM_L2Access)->Arg(16)->Arg(32);
BENCHMARK(BM_UMonObserve);
BENCHMARK(BM_FutilityControllerUpdate)->Arg(16)->Arg(128);
BENCHMARK(BM_ZipfSample)->Args({32768, 90})->Args({16384, 70});
BENCHMARK(BM_L1Access);
BENCHMARK(BM_ProfileApp)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);
