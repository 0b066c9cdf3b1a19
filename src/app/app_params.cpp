#include "rebudget/app/app_params.h"

#include <vector>

#include "rebudget/trace/mixture.h"
#include "rebudget/trace/pointer_chase.h"
#include "rebudget/trace/stride.h"
#include "rebudget/trace/uniform.h"
#include "rebudget/trace/zipf.h"
#include "rebudget/util/logging.h"

namespace rebudget::app {

namespace {
constexpr uint64_t kLineBytes = 64;
} // namespace

char
appClassCode(AppClass cls)
{
    switch (cls) {
      case AppClass::CacheSensitive:
        return 'C';
      case AppClass::PowerSensitive:
        return 'P';
      case AppClass::BothSensitive:
        return 'B';
      case AppClass::None:
        return 'N';
    }
    util::panic("unknown AppClass");
}

AppClass
appClassFromCode(char code)
{
    switch (code) {
      case 'C':
        return AppClass::CacheSensitive;
      case 'P':
        return AppClass::PowerSensitive;
      case 'B':
        return AppClass::BothSensitive;
      case 'N':
        return AppClass::None;
      default:
        util::fatal("unknown application class code '%c'", code);
    }
}

namespace {

std::unique_ptr<trace::AddressGenerator>
makePattern(MemPattern pattern, uint64_t base_addr, uint64_t footprint,
            double alpha, double write_fraction, uint64_t seed)
{
    switch (pattern) {
      case MemPattern::Uniform:
        return std::make_unique<trace::UniformWorkingSetGen>(
            base_addr, footprint, kLineBytes, write_fraction, seed);
      case MemPattern::Zipf:
        return std::make_unique<trace::ZipfWorkingSetGen>(
            base_addr, footprint, kLineBytes, alpha, write_fraction,
            seed);
      case MemPattern::PointerChase:
        return std::make_unique<trace::PointerChaseGen>(
            base_addr, footprint, kLineBytes, seed);
      case MemPattern::Stream:
        return std::make_unique<trace::StrideGen>(
            base_addr, footprint, kLineBytes, write_fraction);
    }
    util::panic("unknown MemPattern");
}

uint64_t
patternTableBytes(MemPattern pattern, uint64_t footprint)
{
    switch (pattern) {
      case MemPattern::Zipf:
        return trace::ZipfWorkingSetGen::tableBytes(footprint, kLineBytes);
      case MemPattern::PointerChase:
        return trace::PointerChaseGen::tableBytes(footprint, kLineBytes);
      case MemPattern::Uniform:
      case MemPattern::Stream:
        return 0;
    }
    util::panic("unknown MemPattern");
}

} // namespace

uint64_t
AppParams::generatorTableBytes() const
{
    uint64_t bytes = patternTableBytes(pattern, workingSetBytes);
    if (phaseAccesses != 0)
        bytes += patternTableBytes(phasePattern, phaseFootprintBytes);
    return bytes;
}

std::unique_ptr<trace::AddressGenerator>
AppParams::makeGenerator(uint64_t base_addr, uint64_t seed) const
{
    std::unique_ptr<trace::AddressGenerator> primary = makePattern(
        pattern, base_addr, workingSetBytes, zipfAlpha, writeFraction,
        seed);
    if (coldStreamFraction > 0.0) {
        // Blend in residual cold traffic placed after the primary
        // footprint.
        auto cold = std::make_unique<trace::StrideGen>(
            base_addr + (1ull << 36), coldStreamBytes, kLineBytes,
            writeFraction);
        std::vector<trace::MixtureGen::Component> comps;
        comps.push_back({std::move(primary), 1.0 - coldStreamFraction});
        comps.push_back({std::move(cold), coldStreamFraction});
        primary = std::make_unique<trace::MixtureGen>(
            std::move(comps), seed ^ 0x5bd1e995u);
    }
    if (phaseAccesses == 0)
        return primary;
    // Coarse phases: alternate between the primary behavior and the
    // alternate pattern (placed in a disjoint address range).
    auto alternate = makePattern(phasePattern, base_addr + (1ull << 37),
                                 phaseFootprintBytes, zipfAlpha,
                                 writeFraction, seed ^ 0x2545f491u);
    std::vector<trace::PhasedGen::Phase> phases;
    phases.push_back({std::move(primary), phaseAccesses});
    phases.push_back({std::move(alternate), phaseAccesses});
    return std::make_unique<trace::PhasedGen>(std::move(phases));
}

} // namespace rebudget::app
