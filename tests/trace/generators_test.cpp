#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "rebudget/trace/mixture.h"
#include "rebudget/trace/pointer_chase.h"
#include "rebudget/trace/stride.h"
#include "rebudget/trace/uniform.h"
#include "rebudget/trace/zipf.h"
#include "rebudget/util/logging.h"

namespace rebudget::trace {
namespace {

constexpr uint64_t kLine = 64;

TEST(UniformGen, StaysInWorkingSet)
{
    UniformWorkingSetGen gen(0x1000, 64 * kLine, kLine, 0.2, 7);
    for (int i = 0; i < 2000; ++i) {
        const Access a = gen.next();
        EXPECT_GE(a.addr, 0x1000u);
        EXPECT_LT(a.addr, 0x1000 + 64 * kLine);
        EXPECT_EQ(a.addr % kLine, 0u);
    }
}

TEST(UniformGen, CoversWholeWorkingSet)
{
    UniformWorkingSetGen gen(0, 32 * kLine, kLine, 0.0, 3);
    std::set<uint64_t> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(gen.next().addr);
    EXPECT_EQ(seen.size(), 32u);
}

TEST(UniformGen, Deterministic)
{
    UniformWorkingSetGen a(0, 1024 * kLine, kLine, 0.3, 42);
    UniformWorkingSetGen b(0, 1024 * kLine, kLine, 0.3, 42);
    for (int i = 0; i < 500; ++i) {
        const Access x = a.next();
        const Access y = b.next();
        EXPECT_EQ(x.addr, y.addr);
        EXPECT_EQ(x.write, y.write);
    }
}

TEST(UniformGen, WriteFractionRespected)
{
    UniformWorkingSetGen gen(0, 128 * kLine, kLine, 0.25, 5);
    int writes = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        writes += gen.next().write;
    EXPECT_NEAR(static_cast<double>(writes) / n, 0.25, 0.02);
}

TEST(UniformGen, CloneContinuesIdentically)
{
    UniformWorkingSetGen gen(0, 64 * kLine, kLine, 0.1, 9);
    gen.next();
    auto clone = gen.clone();
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(gen.next().addr, clone->next().addr);
}

TEST(UniformGen, RejectsBadParams)
{
    EXPECT_THROW(UniformWorkingSetGen(0, 1024, 48, 0.0, 1),
                 util::FatalError);
    EXPECT_THROW(UniformWorkingSetGen(0, 32, 64, 0.0, 1),
                 util::FatalError);
    EXPECT_THROW(UniformWorkingSetGen(0, 1024, 64, 1.5, 1),
                 util::FatalError);
}

// A NaN write fraction used to pass the range check and then never
// produce a write.
TEST(UniformGen, RejectsNaNWriteFraction)
{
    EXPECT_THROW(UniformWorkingSetGen(0, 1024, 64, std::nan(""), 1),
                 util::FatalError);
}

TEST(ZipfGen, RejectsNaNWriteFraction)
{
    EXPECT_THROW(ZipfWorkingSetGen(0, 1024, 64, 0.9, std::nan(""), 1),
                 util::FatalError);
}

TEST(StrideGen, RejectsNaNWriteFraction)
{
    EXPECT_THROW(StrideGen(0, 1024, 64, std::nan("")), util::FatalError);
}

TEST(ZipfGen, HotLinesDominate)
{
    ZipfWorkingSetGen gen(0, 1024 * kLine, kLine, 1.0, 0.0, 11);
    std::map<uint64_t, int> counts;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        ++counts[gen.next().addr];
    std::vector<int> sorted;
    for (const auto &[addr, c] : counts)
        sorted.push_back(c);
    std::sort(sorted.rbegin(), sorted.rend());
    int head = 0;
    for (int i = 0; i < 10 && i < static_cast<int>(sorted.size()); ++i)
        head += sorted[i];
    EXPECT_GT(static_cast<double>(head) / n, 0.3);
}

TEST(ZipfGen, FootprintReported)
{
    ZipfWorkingSetGen gen(0, 512 * kLine, kLine, 0.8, 0.0, 1);
    EXPECT_EQ(gen.footprintBytes(), 512 * kLine);
}

TEST(ZipfGen, HotLinesScatteredAcrossFootprint)
{
    // The hottest rank must not always be the first line: ranks are
    // permuted over the footprint so cache sets load evenly.
    int first_line_hot = 0;
    for (uint64_t seed = 0; seed < 8; ++seed) {
        ZipfWorkingSetGen gen(0, 256 * kLine, kLine, 1.2, 0.0, seed);
        std::map<uint64_t, int> counts;
        for (int i = 0; i < 5000; ++i)
            ++counts[gen.next().addr];
        uint64_t hottest = 0;
        int best = -1;
        for (const auto &[addr, c] : counts) {
            if (c > best) {
                best = c;
                hottest = addr;
            }
        }
        if (hottest == 0)
            ++first_line_hot;
    }
    EXPECT_LT(first_line_hot, 3);
}

TEST(ZipfGen, RejectsMoreThanUint32Lines)
{
    // 2^32 lines (256 GiB): rejected before any table is allocated.
    const uint64_t lines = uint64_t{UINT32_MAX} + 1;
    EXPECT_THROW(ZipfWorkingSetGen(0, lines * kLine, kLine, 0.9, 0.0, 1),
                 util::FatalError);
}

TEST(ZipfGen, RejectsBadLineSize)
{
    EXPECT_THROW(ZipfWorkingSetGen(0, 1024, 0, 0.9, 0.0, 1),
                 util::FatalError);
    EXPECT_THROW(ZipfWorkingSetGen(0, 1024, 48, 0.9, 0.0, 1),
                 util::FatalError);
}

TEST(ZipfGen, Deterministic)
{
    ZipfWorkingSetGen a(0, 128 * kLine, kLine, 0.9, 0.1, 4);
    ZipfWorkingSetGen b(0, 128 * kLine, kLine, 0.9, 0.1, 4);
    for (int i = 0; i < 300; ++i)
        EXPECT_EQ(a.next().addr, b.next().addr);
}

TEST(StrideGen, SweepsAndWraps)
{
    StrideGen gen(0, 4 * kLine, kLine, 0.0);
    std::vector<uint64_t> addrs;
    for (int i = 0; i < 8; ++i)
        addrs.push_back(gen.next().addr);
    const std::vector<uint64_t> expect = {0,        kLine,    2 * kLine,
                                          3 * kLine, 0,        kLine,
                                          2 * kLine, 3 * kLine};
    EXPECT_EQ(addrs, expect);
}

TEST(StrideGen, NeverWritesAtZeroFraction)
{
    StrideGen gen(0, 16 * kLine, kLine, 0.0);
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(gen.next().write);
}

TEST(StrideGen, RejectsBadParams)
{
    EXPECT_THROW(StrideGen(0, 0, 64, 0.0), util::FatalError);
    EXPECT_THROW(StrideGen(0, 1024, 0, 0.0), util::FatalError);
}

TEST(PointerChase, VisitsEveryLineOncePerLap)
{
    const uint64_t lines = 64;
    PointerChaseGen gen(0, lines * kLine, kLine, 17);
    std::set<uint64_t> lap;
    for (uint64_t i = 0; i < lines; ++i)
        lap.insert(gen.next().addr);
    EXPECT_EQ(lap.size(), lines);
    // Second lap visits the same set in the same order.
    std::set<uint64_t> lap2;
    for (uint64_t i = 0; i < lines; ++i)
        lap2.insert(gen.next().addr);
    EXPECT_EQ(lap, lap2);
}

TEST(PointerChase, OrderIsNotSequential)
{
    PointerChaseGen gen(0, 256 * kLine, kLine, 23);
    int sequential = 0;
    uint64_t prev = gen.next().addr;
    for (int i = 0; i < 255; ++i) {
        const uint64_t cur = gen.next().addr;
        if (cur == prev + kLine)
            ++sequential;
        prev = cur;
    }
    EXPECT_LT(sequential, 16);
}

TEST(PointerChase, RejectsMoreThanUint32Lines)
{
    const uint64_t lines = uint64_t{UINT32_MAX} + 1;
    EXPECT_THROW(PointerChaseGen(0, lines * kLine, kLine, 1),
                 util::FatalError);
}

TEST(PointerChase, CloneContinuesIdentically)
{
    PointerChaseGen gen(0, 32 * kLine, kLine, 2);
    gen.next();
    auto clone = gen.clone();
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(gen.next().addr, clone->next().addr);
}

TEST(MixtureGen, RespectsWeights)
{
    std::vector<MixtureGen::Component> comps;
    comps.push_back({std::make_unique<StrideGen>(0, 16 * kLine, kLine, 0.0),
                     3.0});
    comps.push_back({std::make_unique<StrideGen>(1 << 20, 16 * kLine,
                                                 kLine, 0.0),
                     1.0});
    MixtureGen gen(std::move(comps), 5);
    int high = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        if (gen.next().addr >= (1u << 20))
            ++high;
    }
    EXPECT_NEAR(static_cast<double>(high) / n, 0.25, 0.02);
}

TEST(MixtureGen, FootprintIsSum)
{
    std::vector<MixtureGen::Component> comps;
    comps.push_back({std::make_unique<StrideGen>(0, 1024, 64, 0.0), 1.0});
    comps.push_back({std::make_unique<StrideGen>(4096, 2048, 64, 0.0), 1.0});
    MixtureGen gen(std::move(comps), 1);
    EXPECT_EQ(gen.footprintBytes(), 3072u);
}

TEST(MixtureGen, CloneIsIndependent)
{
    std::vector<MixtureGen::Component> comps;
    comps.push_back(
        {std::make_unique<UniformWorkingSetGen>(0, 64 * kLine, kLine, 0.0,
                                                3),
         1.0});
    MixtureGen gen(std::move(comps), 7);
    auto clone = gen.clone();
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(gen.next().addr, clone->next().addr);
}

TEST(MixtureGen, RejectsBadComponents)
{
    EXPECT_THROW(MixtureGen({}, 1), util::FatalError);
    std::vector<MixtureGen::Component> comps;
    comps.push_back({std::make_unique<StrideGen>(0, 1024, 64, 0.0), -1.0});
    EXPECT_THROW(MixtureGen(std::move(comps), 1), util::FatalError);
}

// A NaN or infinite weight, or finite weights whose sum overflows,
// used to turn the CDF into NaN or zeros, so every draw picked one
// component.
TEST(MixtureGen, RejectsNonFiniteWeights)
{
    const double inf = std::numeric_limits<double>::infinity();
    for (const std::vector<double> &weights :
         {std::vector<double>{1.0, std::nan("")},
          std::vector<double>{inf, 1.0},
          std::vector<double>{1e308, 1e308}}) {
        std::vector<MixtureGen::Component> comps;
        for (const double w : weights)
            comps.push_back(
                {std::make_unique<StrideGen>(0, 1024, 64, 0.0), w});
        EXPECT_THROW(MixtureGen(std::move(comps), 1), util::FatalError)
            << weights[0] << ", " << weights[1];
    }
}

TEST(PhasedGen, AlternatesPhases)
{
    std::vector<PhasedGen::Phase> phases;
    phases.push_back({std::make_unique<StrideGen>(0, 16 * kLine, kLine,
                                                  0.0),
                      3});
    phases.push_back({std::make_unique<StrideGen>(1 << 20, 16 * kLine,
                                                  kLine, 0.0),
                      2});
    PhasedGen gen(std::move(phases));
    std::vector<bool> high;
    for (int i = 0; i < 10; ++i)
        high.push_back(gen.next().addr >= (1u << 20));
    const std::vector<bool> expect = {false, false, false, true, true,
                                      false, false, false, true, true};
    EXPECT_EQ(high, expect);
}

TEST(PhasedGen, FootprintIsMax)
{
    std::vector<PhasedGen::Phase> phases;
    phases.push_back({std::make_unique<StrideGen>(0, 1024, 64, 0.0), 1});
    phases.push_back({std::make_unique<StrideGen>(0, 8192, 64, 0.0), 1});
    PhasedGen gen(std::move(phases));
    EXPECT_EQ(gen.footprintBytes(), 8192u);
}

TEST(PhasedGen, RejectsEmptyOrZeroLength)
{
    EXPECT_THROW(PhasedGen({}), util::FatalError);
    std::vector<PhasedGen::Phase> phases;
    phases.push_back({std::make_unique<StrideGen>(0, 1024, 64, 0.0), 0});
    EXPECT_THROW(PhasedGen(std::move(phases)), util::FatalError);
}

} // namespace
} // namespace rebudget::trace
