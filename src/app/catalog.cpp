#include "rebudget/app/catalog.h"

#include "rebudget/util/logging.h"
#include "rebudget/util/units.h"

namespace rebudget::app {

namespace {

using util::kKiB;
using util::kMiB;

AppParams
cacheApp(std::string name, MemPattern pattern, uint64_t wss, double alpha,
         double mem_per_instr, double cold_frac, double cpi, double act)
{
    AppParams p;
    p.name = std::move(name);
    p.designClass = AppClass::CacheSensitive;
    p.pattern = pattern;
    p.workingSetBytes = wss;
    p.zipfAlpha = alpha;
    p.memPerInstr = mem_per_instr;
    p.coldStreamFraction = cold_frac;
    p.computeCpi = cpi;
    p.activity = act;
    return p;
}

AppParams
powerApp(std::string name, uint64_t wss, double mem_per_instr, double cpi,
         double act)
{
    AppParams p;
    p.name = std::move(name);
    p.designClass = AppClass::PowerSensitive;
    p.pattern = MemPattern::Uniform;
    p.workingSetBytes = wss; // fits in L1: negligible L2 traffic
    p.memPerInstr = mem_per_instr;
    p.computeCpi = cpi;
    p.activity = act;
    return p;
}

AppParams
bothApp(std::string name, MemPattern pattern, uint64_t wss, double alpha,
        double mem_per_instr, double cold_frac, double cpi, double act)
{
    AppParams p;
    p.name = std::move(name);
    p.designClass = AppClass::BothSensitive;
    p.pattern = pattern;
    p.workingSetBytes = wss;
    p.zipfAlpha = alpha;
    p.memPerInstr = mem_per_instr;
    p.coldStreamFraction = cold_frac;
    p.computeCpi = cpi;
    p.activity = act;
    return p;
}

AppParams
noneApp(std::string name, MemPattern pattern, uint64_t wss,
        double mem_per_instr, double cpi, double act)
{
    AppParams p;
    p.name = std::move(name);
    p.designClass = AppClass::None;
    p.pattern = pattern;
    p.workingSetBytes = wss;
    p.memPerInstr = mem_per_instr;
    p.computeCpi = cpi;
    p.activity = act;
    return p;
}

} // namespace

std::vector<AppParams>
spec24Catalog()
{
    std::vector<AppParams> apps;
    apps.reserve(24);

    // --- Cache-sensitive (C): memory-bound with working sets the L2 can
    // capture; residual cold traffic keeps them memory-bound (and thus
    // power-insensitive) even when fully cached.
    // mcf: 1.125 MB chase + 25% cold stream; in the monitor's LRU stacks
    // the interleaved cold tags push the chase's reuse distance to ~12
    // regions, reproducing Figure 2's cliff at 12 ways.
    apps.push_back(cacheApp("mcf", MemPattern::PointerChase,
                            1152 * kKiB, 0.0, 0.10, 0.25, 0.50, 0.55));
    apps.push_back(cacheApp("vpr", MemPattern::Zipf,
                            2 * kMiB, 0.90, 0.12, 0.15, 0.50, 0.60));
    apps.push_back(cacheApp("twolf", MemPattern::Zipf,
                            1 * kMiB, 0.70, 0.12, 0.20, 0.45, 0.60));
    apps.push_back(cacheApp("art", MemPattern::Uniform,
                            1 * kMiB, 0.0, 0.15, 0.20, 0.40, 0.50));
    apps.push_back(cacheApp("soplex", MemPattern::Zipf,
                            1792 * kKiB, 0.80, 0.14, 0.18, 0.50, 0.55));
    apps.push_back(cacheApp("omnetpp", MemPattern::PointerChase,
                            768 * kKiB, 0.0, 0.12, 0.22, 0.55, 0.60));

    // --- Power-sensitive (P): working sets fit in the L1, so the core
    // is compute-bound and scales with frequency.
    apps.push_back(powerApp("sixtrack", 16 * kKiB, 0.30, 0.40, 0.95));
    apps.push_back(powerApp("hmmer", 24 * kKiB, 0.35, 0.45, 0.90));
    apps.push_back(powerApp("gamess", 12 * kKiB, 0.40, 0.35, 0.92));
    apps.push_back(powerApp("namd", 20 * kKiB, 0.25, 0.50, 0.88));
    apps.push_back(powerApp("gromacs", 16 * kKiB, 0.30, 0.45, 0.90));
    apps.push_back(powerApp("povray", 24 * kKiB, 0.35, 0.40, 0.93));

    // --- Both-sensitive (B): moderate memory intensity; caching their
    // working set turns them compute-bound, so both resources pay off.
    apps.push_back(bothApp("apsi", MemPattern::Zipf,
                           768 * kKiB, 0.80, 0.06, 0.02, 0.60, 0.80));
    apps.push_back(bothApp("swim", MemPattern::Uniform,
                           1 * kMiB, 0.0, 0.08, 0.05, 0.50, 0.85));
    apps.push_back(bothApp("bzip2", MemPattern::Zipf,
                           512 * kKiB, 0.85, 0.07, 0.03, 0.55, 0.80));
    apps.push_back(bothApp("gcc", MemPattern::Zipf,
                           1280 * kKiB, 0.75, 0.07, 0.04, 0.60, 0.80));
    apps.push_back(bothApp("astar", MemPattern::PointerChase,
                           512 * kKiB, 0.0, 0.05, 0.05, 0.55, 0.82));
    apps.push_back(bothApp("xalancbmk", MemPattern::Zipf,
                           1 * kMiB, 0.90, 0.06, 0.04, 0.60, 0.85));

    // --- None (N): streaming footprints far beyond the monitored 2 MB,
    // so cache cannot help; DRAM latency caps frequency scaling to well
    // under the 0.5 sensitivity threshold, but these apps still retain
    // a moderate compute component (SPEC's streaming codes are not pure
    // copy loops), which keeps their run-alone "potential" non-trivial
    // for the Balanced heuristic.
    apps.push_back(noneApp("milc", MemPattern::Stream,
                           16 * kMiB, 0.030, 0.60, 0.50));
    apps.push_back(noneApp("libquantum", MemPattern::Stream,
                           24 * kMiB, 0.025, 0.55, 0.55));
    apps.push_back(noneApp("lbm", MemPattern::Stream,
                           32 * kMiB, 0.035, 0.60, 0.50));
    apps.push_back(noneApp("mgrid", MemPattern::Stream,
                           12 * kMiB, 0.028, 0.60, 0.55));
    apps.push_back(noneApp("applu", MemPattern::Stream,
                           20 * kMiB, 0.032, 0.65, 0.50));
    apps.push_back(noneApp("gap", MemPattern::Uniform,
                           24 * kMiB, 0.028, 0.60, 0.55));

    return apps;
}

const std::vector<AppProfile> &
catalogProfiles()
{
    static const std::vector<AppProfile> profiles =
        profileApps(spec24Catalog(), ProfilerConfig{}, /*first_seed=*/1000);
    return profiles;
}

const AppProfile *
tryFindCatalogProfile(const std::string &name)
{
    for (const auto &profile : catalogProfiles()) {
        if (profile.params.name == name)
            return &profile;
    }
    return nullptr;
}

const AppProfile &
findCatalogProfile(const std::string &name)
{
    if (const AppProfile *profile = tryFindCatalogProfile(name))
        return *profile;
    util::fatal("unknown catalog application '%s'", name.c_str());
}

} // namespace rebudget::app
