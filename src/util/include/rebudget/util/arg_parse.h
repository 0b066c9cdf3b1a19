#ifndef REBUDGET_UTIL_ARG_PARSE_H_
#define REBUDGET_UTIL_ARG_PARSE_H_

/**
 * @file
 * Strict numeric parsing for untrusted text: command-line flags,
 * protocol strings, replay traces.
 *
 * The std::stoul/std::stod family silently accepts input these parsers
 * must reject:
 *  - partial consumption ("10x" parses as 10 and drops the "x"),
 *  - leading whitespace and a leading '+',
 *  - a leading '-' for UNSIGNED values ("-5" wraps to 2^64-5), and
 *  - "inf"/"nan" where a tuning knob expects a real number.
 *
 * Every parser here consumes the WHOLE token or returns a named error
 * status, so a mistyped flag value surfaces as a diagnostic instead of
 * a silently truncated (or wrapped) number.  rebudget_cli, rebudgetd,
 * rebudgetctl, rebudgetload and the serve command parser all route
 * their numeric arguments through these.
 */

#include <cstdint>
#include <limits>
#include <string_view>

#include "rebudget/util/status.h"

namespace rebudget::util {

/**
 * Parse a non-negative decimal integer.  Rejects empty tokens, any
 * whitespace, signs (including '-': a negative value is a named error,
 * not a wrap to 2^64-n), non-digit trailers and values beyond
 * uint64_t.
 */
Expected<std::uint64_t> parseUnsigned(std::string_view text);

/** As parseUnsigned, additionally rejecting values above @p max. */
Expected<std::uint64_t> parseUnsigned(std::string_view text,
                                      std::uint64_t max);

/**
 * Parse a finite decimal floating-point number (optional leading '-').
 * Rejects empty tokens, whitespace, trailing garbage, hex floats and
 * the "inf"/"nan" spellings -- no allocation knob means infinity.
 */
Expected<double> parseDouble(std::string_view text);

/** parseUnsigned(@p value, @p max) for a command-line flag: a bad value
 * is util::fatal("<flag>: <why>"). */
std::uint64_t
unsignedFlag(std::string_view flag, std::string_view value,
             std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/** parseDouble(@p value) for a command-line flag, fatal as above. */
double doubleFlag(std::string_view flag, std::string_view value);

} // namespace rebudget::util

#endif // REBUDGET_UTIL_ARG_PARSE_H_
