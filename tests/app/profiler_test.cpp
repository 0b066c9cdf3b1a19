#include "rebudget/app/profiler.h"

#include <pthread.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rebudget/app/app_params.h"
#include "rebudget/util/logging.h"
#include "rebudget/util/units.h"

namespace rebudget::app {
namespace {

using util::kKiB;
using util::kMiB;

AppParams
l1Resident()
{
    AppParams p;
    p.name = "l1-resident";
    p.pattern = MemPattern::Uniform;
    p.workingSetBytes = 16 * kKiB;
    p.memPerInstr = 0.3;
    p.computeCpi = 0.5;
    return p;
}

AppParams
chase(uint64_t wss)
{
    AppParams p;
    p.name = "chase";
    p.pattern = MemPattern::PointerChase;
    p.workingSetBytes = wss;
    p.memPerInstr = 0.1;
    p.computeCpi = 0.5;
    return p;
}

ProfilerConfig
quick()
{
    ProfilerConfig cfg;
    cfg.warmupAccesses = 100 * 1000;
    cfg.measureAccesses = 400 * 1000;
    return cfg;
}

TEST(Profiler, L1ResidentAppHasNoL2Traffic)
{
    const AppProfile prof = profileApp(l1Resident(), quick());
    EXPECT_LT(prof.l2AccessesPerInstr, 0.01);
}

TEST(Profiler, PointerChaseCliffAtWorkingSet)
{
    // 1 MB = 8 regions: the miss curve must collapse at 8 regions.
    const AppProfile prof = profileApp(chase(1 * kMiB), quick());
    const double total = prof.l2Curve.missesAt(0);
    ASSERT_GT(total, 0.0);
    EXPECT_GT(prof.l2Curve.missesAt(7) / total, 0.5);
    EXPECT_LT(prof.l2Curve.missesAt(8) / total, 0.1);
}

TEST(Profiler, InstructionsMatchMemPerInstr)
{
    const ProfilerConfig cfg = quick();
    const AppProfile prof = profileApp(chase(512 * kKiB), cfg);
    EXPECT_NEAR(prof.instructions,
                static_cast<double>(cfg.measureAccesses) / 0.1, 1.0);
}

TEST(Profiler, Deterministic)
{
    const AppProfile a = profileApp(chase(512 * kKiB), quick(), 7);
    const AppProfile b = profileApp(chase(512 * kKiB), quick(), 7);
    EXPECT_EQ(a.l2AccessesPerInstr, b.l2AccessesPerInstr);
    for (size_t r = 0; r <= a.l2Curve.maxRegions(); ++r)
        EXPECT_EQ(a.l2Curve.missesAt(r), b.l2Curve.missesAt(r));
}

TEST(Profiler, WorkAtClampsMissesToAccesses)
{
    const AppProfile prof = profileApp(chase(1 * kMiB), quick());
    const WorkCounts w = prof.workAt(0.0, true);
    EXPECT_LE(w.l2Misses, w.l2Accesses + 1e-9);
    EXPECT_GE(w.l2Misses, 0.0);
    EXPECT_DOUBLE_EQ(w.instructions, 1.0);
}

TEST(Profiler, HullWorkNeverExceedsRawMisses)
{
    const AppProfile prof = profileApp(chase(1 * kMiB), quick());
    for (double r = 0.0; r <= 16.0; r += 0.5) {
        EXPECT_LE(prof.workAt(r, true).l2Misses,
                  prof.workAt(r, false).l2Misses + 1e-9);
    }
}

TEST(Profiler, PerfImprovesWithCache)
{
    const AppProfile prof = profileApp(chase(1536 * kKiB), quick());
    EXPECT_GT(prof.perfAt(16.0, 4.0, true), prof.perfAt(1.0, 4.0, true));
}

TEST(Profiler, PerfImprovesWithFrequency)
{
    const AppProfile prof = profileApp(l1Resident(), quick());
    EXPECT_GT(prof.perfAt(1.0, 4.0, true),
              prof.perfAt(1.0, 0.8, true) * 4.0);
}

TEST(Profiler, PerfAloneIsUpperEnvelope)
{
    const AppProfile prof = profileApp(chase(1 * kMiB), quick());
    const double alone = prof.perfAlone(4.0, true);
    for (double r : {1.0, 4.0, 8.0, 12.0}) {
        for (double f : {0.8, 2.0, 4.0}) {
            EXPECT_LE(prof.perfAt(r, f, true), alone + 1e-6);
        }
    }
}

TEST(Profiler, ColdStreamAddsResidualMisses)
{
    AppParams with_cold = chase(512 * kKiB);
    with_cold.coldStreamFraction = 0.3;
    const AppProfile prof = profileApp(with_cold, quick());
    // Even with all monitored cache, misses remain (the cold stream).
    const double residual = prof.l2Curve.missesAt(16) /
                            prof.l2Curve.missesAt(0);
    EXPECT_GT(residual, 0.15);
}

TEST(Profiler, RejectsNonPositiveMemPerInstr)
{
    AppParams bad = chase(512 * kKiB);
    bad.memPerInstr = 0.0;
    EXPECT_THROW(profileApp(bad, quick()), util::FatalError);
}

TEST(Profiler, RejectsNaNOrInfiniteMemPerInstr)
{
    for (const double m : {std::nan(""), HUGE_VAL}) {
        AppParams bad = chase(512 * kKiB);
        bad.memPerInstr = m;
        EXPECT_THROW(profileApp(bad, quick()), util::FatalError) << m;
    }
}

TEST(GeneratorTableBytes, CountsZipfAndChaseTablesOnly)
{
    AppParams zipf;
    zipf.pattern = MemPattern::Zipf;
    zipf.workingSetBytes = 2 * kMiB; // 32768 lines
    EXPECT_EQ(zipf.generatorTableBytes(), 32768u * 8 + 32769u * 4 +
                                              32768u * 4);
    // 28672 lines: the guide has bit_floor(28672) + 1 = 16385 edges.
    zipf.workingSetBytes = 1792 * kKiB;
    EXPECT_EQ(zipf.generatorTableBytes(), 28672u * 12 + 16385u * 4);

    EXPECT_EQ(chase(1152 * kKiB).generatorTableBytes(), 18432u * 8);

    AppParams flat = l1Resident();
    flat.coldStreamFraction = 0.2; // the cold stream holds no table
    EXPECT_EQ(flat.generatorTableBytes(), 0u);
    flat.pattern = MemPattern::Stream;
    EXPECT_EQ(flat.generatorTableBytes(), 0u);

    AppParams phased = chase(512 * kKiB);
    phased.phaseAccesses = 1000;
    phased.phasePattern = MemPattern::PointerChase;
    phased.phaseFootprintBytes = 1 * kMiB;
    EXPECT_EQ(phased.generatorTableBytes(), (8192u + 16384u) * 8);
}

namespace {

// Sets REBUDGET_JOBS for one scope, then restores it.
class ScopedJobs
{
  public:
    explicit ScopedJobs(const char *jobs)
    {
        if (const char *old = std::getenv("REBUDGET_JOBS")) {
            had_ = true;
            old_ = old;
        }
        ::setenv("REBUDGET_JOBS", jobs, 1);
    }
    ~ScopedJobs()
    {
        if (had_)
            ::setenv("REBUDGET_JOBS", old_.c_str(), 1);
        else
            ::unsetenv("REBUDGET_JOBS");
    }

  private:
    bool had_ = false;
    std::string old_;
};

// Every pattern, a cold stream and a phased app, with table sizes that
// make the admission rule hold some runs back.
std::vector<AppParams>
mixedApps()
{
    std::vector<AppParams> apps;
    AppParams zipf = l1Resident();
    zipf.name = "zipf";
    zipf.pattern = MemPattern::Zipf;
    zipf.workingSetBytes = 768 * kKiB;
    apps.push_back(zipf);
    apps.push_back(chase(512 * kKiB));
    apps.push_back(l1Resident());
    AppParams stream = l1Resident();
    stream.name = "stream";
    stream.pattern = MemPattern::Stream;
    stream.workingSetBytes = 4 * kMiB;
    stream.coldStreamFraction = 0.1;
    apps.push_back(stream);
    AppParams phased = zipf;
    phased.name = "phased";
    phased.workingSetBytes = 256 * kKiB;
    phased.phaseAccesses = 7000;
    phased.phasePattern = MemPattern::PointerChase;
    phased.phaseFootprintBytes = 1 * kMiB;
    apps.push_back(phased);
    apps.push_back(chase(1 * kMiB));
    zipf.name = "zipf-small";
    zipf.workingSetBytes = 192 * kKiB;
    apps.push_back(zipf);
    return apps;
}

ProfilerConfig
tiny()
{
    ProfilerConfig cfg;
    cfg.warmupAccesses = 5000;
    cfg.measureAccesses = 40000;
    return cfg;
}

} // namespace

TEST(ProfileApps, MatchesProfileAppAtEveryThreadCount)
{
    const std::vector<AppParams> apps = mixedApps();
    const ProfilerConfig cfg = tiny();
    std::vector<AppProfile> expected;
    for (size_t i = 0; i < apps.size(); ++i)
        expected.push_back(profileApp(apps[i], cfg, 77 + i));
    for (const char *jobs : {"1", "2", "3", "8"}) {
        ScopedJobs scoped(jobs);
        const std::vector<AppProfile> got = profileApps(apps, cfg, 77);
        ASSERT_EQ(got.size(), apps.size()) << jobs;
        for (size_t i = 0; i < apps.size(); ++i) {
            EXPECT_EQ(got[i].params.name, apps[i].name);
            EXPECT_EQ(got[i].instructions, expected[i].instructions);
            EXPECT_EQ(got[i].l2AccessesPerInstr,
                      expected[i].l2AccessesPerInstr)
                << apps[i].name << " at " << jobs << " jobs";
            EXPECT_EQ(got[i].l2Curve.samples(), expected[i].l2Curve.samples())
                << apps[i].name << " at " << jobs << " jobs";
            EXPECT_EQ(got[i].timing.computeCpi, apps[i].computeCpi);
        }
    }
}

TEST(ProfileApps, ABadAppFailsWithoutHanging)
{
    std::vector<AppParams> apps = mixedApps();
    apps[3].memPerInstr = std::nan("");
    for (const char *jobs : {"1", "3"}) {
        ScopedJobs scoped(jobs);
        EXPECT_THROW(profileApps(apps, tiny(), 1), util::FatalError) << jobs;
    }
}

TEST(ProfileApps, FallsBackToTheSerialLoopWhenThreadsCannotStart)
{
    // A default thread stack of 2^46 bytes cannot be mapped, so the
    // pool's first std::thread throws std::system_error.
    pthread_attr_t saved;
    ASSERT_EQ(pthread_getattr_default_np(&saved), 0);
    pthread_attr_t huge;
    pthread_attr_init(&huge);
    ASSERT_EQ(pthread_attr_setstacksize(&huge, size_t{1} << 46), 0);
    ASSERT_EQ(pthread_setattr_default_np(&huge), 0);

    const std::vector<AppParams> apps = mixedApps();
    const ProfilerConfig cfg = tiny();
    std::vector<AppProfile> got;
    {
        ScopedJobs scoped("3");
        EXPECT_NO_THROW(got = profileApps(apps, cfg, 5));
    }
    pthread_setattr_default_np(&saved);
    pthread_attr_destroy(&huge);
    pthread_attr_destroy(&saved);

    ASSERT_EQ(got.size(), apps.size());
    for (size_t i = 0; i < apps.size(); ++i) {
        const AppProfile want = profileApp(apps[i], cfg, 5 + i);
        EXPECT_EQ(got[i].l2AccessesPerInstr, want.l2AccessesPerInstr);
        EXPECT_EQ(got[i].l2Curve.samples(), want.l2Curve.samples());
    }
}

TEST(ProfileApps, EmptyListGivesNoProfiles)
{
    EXPECT_TRUE(profileApps({}, tiny(), 1).empty());
}

} // namespace
} // namespace rebudget::app
