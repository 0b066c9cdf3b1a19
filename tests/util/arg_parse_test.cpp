/**
 * @file
 * util::parseUnsigned / util::parseDouble: the strict whole-token
 * numeric parsers behind rebudget_cli, rebudgetd, rebudgetctl and the
 * serve replay-trace reader.  The point of these tests is the reject
 * set -- every convenience std::stoul/std::stod would have silently
 * extended (partial consumption, signs, wraps, inf/nan) must be a
 * named error here.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "rebudget/util/arg_parse.h"
#include "rebudget/util/logging.h"

using namespace rebudget::util;

TEST(ParseUnsigned, AcceptsPlainDecimals)
{
    EXPECT_EQ(parseUnsigned("0").value(), 0u);
    EXPECT_EQ(parseUnsigned("7").value(), 7u);
    EXPECT_EQ(parseUnsigned("123456789").value(), 123456789u);
    EXPECT_EQ(parseUnsigned("18446744073709551615").value(),
              std::numeric_limits<std::uint64_t>::max());
}

TEST(ParseUnsigned, RejectsPartialConsumption)
{
    // std::stoul("10x") happily returns 10; the strict parser must
    // reject the whole token instead of dropping the trailer.
    EXPECT_FALSE(parseUnsigned("10x").ok());
    EXPECT_FALSE(parseUnsigned("10 ").ok());
    EXPECT_FALSE(parseUnsigned("1.5").ok());
    EXPECT_FALSE(parseUnsigned("0x10").ok());
}

TEST(ParseUnsigned, RejectsNegativeInsteadOfWrapping)
{
    // std::stoul("-5") wraps to 2^64-5 -- the classic footgun this
    // parser exists to close.
    const auto parsed = parseUnsigned("-5");
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::InvalidArgument);
}

TEST(ParseUnsigned, RejectsSignsWhitespaceAndEmpty)
{
    EXPECT_FALSE(parseUnsigned("").ok());
    EXPECT_FALSE(parseUnsigned("+5").ok());
    EXPECT_FALSE(parseUnsigned(" 5").ok());
    EXPECT_FALSE(parseUnsigned("5 ").ok());
    EXPECT_FALSE(parseUnsigned("\t5").ok());
}

TEST(ParseUnsigned, RejectsOverflow)
{
    // One past uint64 max, and something much larger.
    EXPECT_FALSE(parseUnsigned("18446744073709551616").ok());
    EXPECT_FALSE(parseUnsigned(std::string(40, '9')).ok());
}

TEST(ParseUnsigned, MaxOverloadEnforcesCeiling)
{
    EXPECT_EQ(parseUnsigned("100", 100).value(), 100u);
    const auto over = parseUnsigned("101", 100);
    ASSERT_FALSE(over.ok());
    EXPECT_EQ(over.status().code(), StatusCode::InvalidArgument);
}

TEST(ParseDouble, AcceptsFiniteDecimals)
{
    EXPECT_DOUBLE_EQ(parseDouble("0").value(), 0.0);
    EXPECT_DOUBLE_EQ(parseDouble("2.5").value(), 2.5);
    EXPECT_DOUBLE_EQ(parseDouble("-0.125").value(), -0.125);
    EXPECT_DOUBLE_EQ(parseDouble("1e3").value(), 1000.0);
}

TEST(ParseDouble, RejectsTrailingGarbage)
{
    EXPECT_FALSE(parseDouble("2.5x").ok());
    EXPECT_FALSE(parseDouble("2.5 ").ok());
    EXPECT_FALSE(parseDouble("2,5").ok());
}

TEST(ParseDouble, RejectsInfNanAndEmpty)
{
    EXPECT_FALSE(parseDouble("").ok());
    EXPECT_FALSE(parseDouble("inf").ok());
    EXPECT_FALSE(parseDouble("-inf").ok());
    EXPECT_FALSE(parseDouble("nan").ok());
    EXPECT_FALSE(parseDouble("NaN").ok());
}

TEST(ParseDouble, RejectsWhitespace)
{
    EXPECT_FALSE(parseDouble(" 1.0").ok());
    EXPECT_FALSE(parseDouble("1.0\n").ok());
}

TEST(FlagParsers, ReturnValueOrFailNamingTheFlag)
{
    EXPECT_EQ(unsignedFlag("--shards", "8"), 8u);
    EXPECT_EQ(unsignedFlag("--port", "65535", 0xffff), 65535u);
    EXPECT_DOUBLE_EQ(doubleFlag("--rate", "2.5"), 2.5);
    for (const auto &[flag, value] :
         {std::pair<std::string, std::string>{"--port", "65536"},
          {"--jobs", "-1"},
          {"--rate", "nan"}}) {
        try {
            if (flag == "--rate")
                (void)doubleFlag(flag, value);
            else
                (void)unsignedFlag(flag, value, 0xffff);
            ADD_FAILURE() << flag << " " << value << " was accepted";
        } catch (const FatalError &e) {
            EXPECT_EQ(std::string(e.what()).rfind(flag + ": ", 0), 0u)
                << e.what();
        }
    }
}
