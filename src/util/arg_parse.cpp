#include "rebudget/util/arg_parse.h"

#include <cassert>
#include <charconv>
#include <cmath>
#include <string>

#include "rebudget/util/logging.h"

namespace rebudget::util {

namespace {

/** Render up to 64 chars of the offending token for the diagnostic. */
std::string
quoted(std::string_view text)
{
    std::string out(text.substr(0, 64));
    if (text.size() > 64)
        out += "...";
    return out;
}

} // namespace

Expected<std::uint64_t>
parseUnsigned(std::string_view text)
{
    if (text.empty()) {
        return SolveStatus::error(StatusCode::InvalidArgument,
                                  "empty value where a non-negative "
                                  "integer was expected");
    }
    if (text.front() == '-') {
        return SolveStatus::error(StatusCode::InvalidArgument,
                                  "'%s' is negative; a non-negative "
                                  "integer was expected",
                                  quoted(text).c_str());
    }
    // from_chars accepts neither whitespace nor '+', so a leading
    // non-digit falls through to the generic diagnostic below.
    std::uint64_t value = 0;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec == std::errc::result_out_of_range) {
        return SolveStatus::error(StatusCode::InvalidArgument,
                                  "'%s' overflows a 64-bit unsigned "
                                  "integer",
                                  quoted(text).c_str());
    }
    if (ec != std::errc{} || ptr != text.data() + text.size()) {
        return SolveStatus::error(StatusCode::InvalidArgument,
                                  "'%s' is not a non-negative integer "
                                  "(whole token must be digits)",
                                  quoted(text).c_str());
    }
    return value;
}

Expected<std::uint64_t>
parseUnsigned(std::string_view text, std::uint64_t max)
{
    const auto parsed = parseUnsigned(text);
    if (!parsed.ok())
        return parsed.status();
    if (parsed.value() > max) {
        return SolveStatus::error(
            StatusCode::InvalidArgument,
            "'%s' exceeds the allowed maximum %llu", quoted(text).c_str(),
            static_cast<unsigned long long>(max));
    }
    return parsed.value();
}

Expected<double>
parseDouble(std::string_view text)
{
    if (text.empty()) {
        return SolveStatus::error(StatusCode::InvalidArgument,
                                  "empty value where a number was "
                                  "expected");
    }
    double value = 0.0;
    // std::chars_format::general: decimal and scientific, no hex, and
    // from_chars never skips whitespace.  "inf"/"nan" DO parse under
    // from_chars, so the finiteness check below still has work to do.
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value,
                        std::chars_format::general);
    if (ec == std::errc::result_out_of_range) {
        return SolveStatus::error(StatusCode::InvalidArgument,
                                  "'%s' is out of range for a double",
                                  quoted(text).c_str());
    }
    if (ec != std::errc{} || ptr != text.data() + text.size()) {
        return SolveStatus::error(StatusCode::InvalidArgument,
                                  "'%s' is not a number (whole token "
                                  "must parse)",
                                  quoted(text).c_str());
    }
    if (!std::isfinite(value)) {
        return SolveStatus::error(StatusCode::InvalidArgument,
                                  "'%s' is not a finite number",
                                  quoted(text).c_str());
    }
    return value;
}

std::uint64_t
unsignedFlag(std::string_view flag, std::string_view value,
             std::uint64_t max)
{
    const auto parsed = parseUnsigned(value, max);
    if (!parsed.ok())
        fatal("%.*s: %s", static_cast<int>(flag.size()), flag.data(),
              parsed.status().message().c_str());
    return parsed.value();
}

double
doubleFlag(std::string_view flag, std::string_view value)
{
    const auto parsed = parseDouble(value);
    if (!parsed.ok())
        fatal("%.*s: %s", static_cast<int>(flag.size()), flag.data(),
              parsed.status().message().c_str());
    return parsed.value();
}

} // namespace rebudget::util
