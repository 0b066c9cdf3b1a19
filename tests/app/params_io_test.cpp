#include "rebudget/app/params_io.h"

#include <gtest/gtest.h>

#include "rebudget/util/logging.h"

namespace rebudget::app {
namespace {

TEST(ParamsIo, ParsesFullDefinition)
{
    const std::string text = R"(
# my app mix
[frontend]
pattern = zipf
class = C
working_set_kb = 1024
zipf_alpha = 0.9
mem_per_instr = 0.12
cold_stream_fraction = 0.15
compute_cpi = 0.45
activity = 0.6
write_fraction = 0.25

[batch]
pattern = stream
working_set_kb = 16384
mem_per_instr = 0.05
)";
    const auto apps = parseAppParams(text);
    ASSERT_EQ(apps.size(), 2u);
    EXPECT_EQ(apps[0].name, "frontend");
    EXPECT_EQ(apps[0].pattern, MemPattern::Zipf);
    EXPECT_EQ(apps[0].designClass, AppClass::CacheSensitive);
    EXPECT_EQ(apps[0].workingSetBytes, 1024u * 1024);
    EXPECT_DOUBLE_EQ(apps[0].zipfAlpha, 0.9);
    EXPECT_DOUBLE_EQ(apps[0].memPerInstr, 0.12);
    EXPECT_DOUBLE_EQ(apps[0].coldStreamFraction, 0.15);
    EXPECT_DOUBLE_EQ(apps[0].computeCpi, 0.45);
    EXPECT_DOUBLE_EQ(apps[0].activity, 0.6);
    EXPECT_DOUBLE_EQ(apps[0].writeFraction, 0.25);
    EXPECT_EQ(apps[1].name, "batch");
    EXPECT_EQ(apps[1].pattern, MemPattern::Stream);
    EXPECT_EQ(apps[1].workingSetBytes, 16384u * 1024);
}

TEST(ParamsIo, DefaultsApplyWhenKeysOmitted)
{
    const auto apps = parseAppParams("[minimal]\npattern = uniform\n");
    ASSERT_EQ(apps.size(), 1u);
    const AppParams def;
    EXPECT_DOUBLE_EQ(apps[0].computeCpi, def.computeCpi);
    EXPECT_DOUBLE_EQ(apps[0].activity, def.activity);
}

TEST(ParamsIo, ParsesPhases)
{
    const auto apps = parseAppParams(
        "[phased]\npattern = zipf\nphase_accesses = 5000\n"
        "phase_pattern = stream\nphase_footprint_mb = 8\n");
    EXPECT_EQ(apps[0].phaseAccesses, 5000u);
    EXPECT_EQ(apps[0].phasePattern, MemPattern::Stream);
    EXPECT_EQ(apps[0].phaseFootprintBytes, 8u * 1024 * 1024);
}

TEST(ParamsIo, CommentsAndWhitespaceIgnored)
{
    const auto apps = parseAppParams(
        "  [a]  ; section\n  pattern = chase  # comment\n");
    EXPECT_EQ(apps[0].pattern, MemPattern::PointerChase);
}

TEST(ParamsIo, UnknownKeyIsFatal)
{
    EXPECT_THROW(parseAppParams("[a]\nworking_set = 4\n"),
                 util::FatalError);
}

TEST(ParamsIo, UnknownPatternIsFatal)
{
    EXPECT_THROW(parseAppParams("[a]\npattern = bogus\n"),
                 util::FatalError);
}

TEST(ParamsIo, KeyOutsideSectionIsFatal)
{
    EXPECT_THROW(parseAppParams("pattern = zipf\n"), util::FatalError);
}

TEST(ParamsIo, DuplicateNameIsFatal)
{
    EXPECT_THROW(parseAppParams("[a]\n[a]\n"), util::FatalError);
}

TEST(ParamsIo, BadNumberIsFatal)
{
    EXPECT_THROW(parseAppParams("[a]\nmem_per_instr = fast\n"),
                 util::FatalError);
}

namespace {

// The message of the FatalError that parsing @p text raises, or "" if
// it parses.
std::string
parseError(const std::string &text)
{
    try {
        parseAppParams(text, "apps.ini");
    } catch (const util::FatalError &e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(ParamsIo, NonFiniteValuesAreFatalForEveryKey)
{
    for (const char *key :
         {"working_set_kb", "zipf_alpha", "mem_per_instr",
          "cold_stream_fraction", "cold_stream_mb", "compute_cpi",
          "activity", "write_fraction", "phase_accesses",
          "phase_footprint_mb"}) {
        for (const char *value : {"nan", "NaN", "inf", "-inf", "infinity"}) {
            const std::string msg = parseError(
                std::string("[a]\n") + key + " = " + value + "\n");
            EXPECT_NE(msg.find("apps.ini:2"), std::string::npos)
                << key << " = " << value << ": '" << msg << "'";
        }
    }
}

TEST(ParamsIo, FractionalCountsAreFatal)
{
    for (const char *key : {"working_set_kb", "cold_stream_mb",
                            "phase_accesses", "phase_footprint_mb"}) {
        const std::string msg =
            parseError(std::string("[a]\n") + key + " = 1.5\n");
        EXPECT_NE(msg.find("apps.ini:2"), std::string::npos) << key;
        EXPECT_NE(msg.find("whole number"), std::string::npos) << msg;
    }
}

TEST(ParamsIo, OverflowingCountsAreFatal)
{
    // 2^54 KiB and 2^44 MiB are 2^64 bytes; 2^64 and 1e300 do not fit a
    // count; 2^53 + 2 is past the exactly representable integers.
    for (const char *line :
         {"working_set_kb = 18014398509481984", "cold_stream_mb = 17592186044416",
          "phase_footprint_mb = 17592186044416",
          "phase_accesses = 18446744073709551616", "phase_accesses = 1e300",
          "phase_accesses = 9007199254740994"}) {
        const std::string msg =
            parseError(std::string("[a]\n\n") + line + "\n");
        EXPECT_NE(msg.find("apps.ini:3"), std::string::npos)
            << line << ": '" << msg << "'";
    }
}

TEST(ParamsIo, WholeCountsParseExactly)
{
    const auto apps = parseAppParams(
        "[a]\nworking_set_kb = 2e3\ncold_stream_mb = 8.0\n"
        "phase_accesses = 9007199254740992\n"
        "phase_footprint_mb = 17592186044415\n");
    EXPECT_EQ(apps[0].workingSetBytes, 2000u * 1024);
    EXPECT_EQ(apps[0].coldStreamBytes, 8u * 1024 * 1024);
    EXPECT_EQ(apps[0].phaseAccesses, 9007199254740992u);
    EXPECT_EQ(apps[0].phaseFootprintBytes, 17592186044415ull << 20);
}

TEST(ParamsIo, NegativeCountIsFatal)
{
    EXPECT_NE(parseError("[a]\nphase_accesses = -1\n").find("apps.ini:2"),
              std::string::npos);
}

TEST(ParamsIo, EmptyInputIsFatal)
{
    EXPECT_THROW(parseAppParams("# nothing here\n"), util::FatalError);
}

TEST(ParamsIo, MissingFileIsFatal)
{
    EXPECT_THROW(loadAppParamsFile("/no/such/file.ini"),
                 util::FatalError);
}

TEST(ParamsIo, ParsedAppBuildsGenerator)
{
    const auto apps = parseAppParams(
        "[gen]\npattern = uniform\nworking_set_kb = 64\n");
    auto gen = apps[0].makeGenerator(0, 1);
    for (int i = 0; i < 100; ++i)
        EXPECT_LT(gen->next().addr, 64u * 1024);
}

} // namespace
} // namespace rebudget::app
