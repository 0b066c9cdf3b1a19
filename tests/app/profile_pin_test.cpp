/**
 * @file
 * Bit pins for the 24 catalog profiles.  Each profile's instruction
 * count, L2 access rate and every point of its UMON miss curve are
 * hashed, as IEEE-754 bytes, with util::hashId into one digest.  The
 * digests below were recorded before the profiler's inner loops (the
 * Zipf draw, the L1 model's set indexing and the UMON's set indexing)
 * were rewritten for speed, so a change that moves one bit of one
 * profile fails here and names the app.
 */

#include "rebudget/app/catalog.h"

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "rebudget/util/rng.h"

namespace rebudget::app {
namespace {

struct PinnedProfile
{
    const char *name;
    std::uint64_t digest;
};

// Recorded from catalogProfiles() with the default ProfilerConfig and
// seeds 1000..1023 in catalog order.
constexpr PinnedProfile kPinned[] = {
    {"mcf", 0x8220d89137901c7fULL},
    {"vpr", 0x3ce79b6117f7bddbULL},
    {"twolf", 0x7c3d489cb70fc9d5ULL},
    {"art", 0x6086270efeb847c4ULL},
    {"soplex", 0x3bf65524986f3c4fULL},
    {"omnetpp", 0xc764a9666df5ece1ULL},
    {"sixtrack", 0x85ee27253ab931ceULL},
    {"hmmer", 0x9a1e3038f8f285ddULL},
    {"gamess", 0x9f7842457b3b6283ULL},
    {"namd", 0x517fa35883966b7cULL},
    {"gromacs", 0x85ee27253ab931ceULL},
    {"povray", 0x9a1e3038f8f285ddULL},
    {"apsi", 0x334b957278c6d52dULL},
    {"swim", 0x4342a1f4e77ac5dbULL},
    {"bzip2", 0x2057bfd07c95adc8ULL},
    {"gcc", 0xf73267aace175404ULL},
    {"astar", 0x66cc9939458f4ec5ULL},
    {"xalancbmk", 0x9ce6288ed14de2fdULL},
    {"milc", 0xbdaf0e44171d51ecULL},
    {"libquantum", 0x9e6be4ae0523fd6cULL},
    {"lbm", 0x91a252309b2fc421ULL},
    {"mgrid", 0x2cb9b1ebfcc51ed3ULL},
    {"applu", 0x23028d08dd3a5146ULL},
    {"gap", 0x6eb38c6540546955ULL},
};

std::uint64_t
profileDigest(const AppProfile &p)
{
    std::vector<double> values = {p.instructions, p.l2AccessesPerInstr};
    const auto &misses = p.l2Curve.samples();
    values.insert(values.end(), misses.begin(), misses.end());
    return util::hashId(
        std::string_view(reinterpret_cast<const char *>(values.data()),
                         values.size() * sizeof(double)));
}

std::string
hex(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016" PRIx64 "ULL", v);
    return buf;
}

TEST(CatalogProfilePin, EveryProfileMatchesItsRecordedDigest)
{
    const auto &profiles = catalogProfiles();
    ASSERT_EQ(profiles.size(), std::size(kPinned));
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        const AppProfile &p = profiles[i];
        EXPECT_EQ(p.params.name, kPinned[i].name);
        const std::uint64_t d = profileDigest(p);
        EXPECT_EQ(d, kPinned[i].digest)
            << p.params.name << ": got {\"" << p.params.name << "\", "
            << hex(d) << "}";
    }
}

} // namespace
} // namespace rebudget::app
