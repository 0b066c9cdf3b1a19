#include "rebudget/app/params_io.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>

#include "rebudget/util/logging.h"

namespace rebudget::app {

namespace {

std::string
trim(const std::string &s)
{
    size_t b = 0;
    size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

MemPattern
parsePattern(const std::string &value, const std::string &where)
{
    if (value == "uniform")
        return MemPattern::Uniform;
    if (value == "zipf")
        return MemPattern::Zipf;
    if (value == "chase" || value == "pointer_chase")
        return MemPattern::PointerChase;
    if (value == "stream")
        return MemPattern::Stream;
    util::fatal("%s: unknown pattern '%s' (uniform|zipf|chase|stream)",
                where.c_str(), value.c_str());
}

double
parseDouble(const std::string &value, const std::string &where)
{
    double v = 0.0;
    try {
        size_t used = 0;
        v = std::stod(value, &used);
        if (used != value.size())
            throw std::invalid_argument(value);
    } catch (const std::exception &) {
        util::fatal("%s: bad number '%s'", where.c_str(), value.c_str());
    }
    if (!std::isfinite(v))
        util::fatal("%s: expected a finite number, got '%s'", where.c_str(),
                    value.c_str());
    return v;
}

// A whole, non-negative count times @p unit (bytes per KiB or MiB for
// the size keys), rejected when it is fractional or the product would
// not fit in 64 bits.
uint64_t
parseUint(const std::string &value, const std::string &where,
          uint64_t unit = 1)
{
    const double v = parseDouble(value, where);
    if (v < 0.0)
        util::fatal("%s: expected a non-negative value, got '%s'",
                    where.c_str(), value.c_str());
    if (v != std::floor(v))
        util::fatal("%s: expected a whole number, got '%s'", where.c_str(),
                    value.c_str());
    // Every whole double up to 2^53 is exact; past it, digits are lost.
    constexpr double kExactLimit = 9007199254740992.0; // 2^53
    if (v > kExactLimit)
        util::fatal("%s: '%s' exceeds 2^53", where.c_str(), value.c_str());
    const auto n = static_cast<uint64_t>(v);
    if (n > UINT64_MAX / unit)
        util::fatal("%s: '%s' overflows a 64-bit byte count", where.c_str(),
                    value.c_str());
    return n * unit;
}

void
applyKey(AppParams &app, const std::string &key, const std::string &value,
         const std::string &where)
{
    if (key == "pattern") {
        app.pattern = parsePattern(value, where);
    } else if (key == "class") {
        if (value.size() != 1)
            util::fatal("%s: class must be one of C P B N",
                        where.c_str());
        app.designClass = appClassFromCode(value[0]);
    } else if (key == "working_set_kb") {
        app.workingSetBytes = parseUint(value, where, 1024);
    } else if (key == "zipf_alpha") {
        app.zipfAlpha = parseDouble(value, where);
    } else if (key == "mem_per_instr") {
        app.memPerInstr = parseDouble(value, where);
    } else if (key == "cold_stream_fraction") {
        app.coldStreamFraction = parseDouble(value, where);
    } else if (key == "cold_stream_mb") {
        app.coldStreamBytes = parseUint(value, where, 1024 * 1024);
    } else if (key == "compute_cpi") {
        app.computeCpi = parseDouble(value, where);
    } else if (key == "activity") {
        app.activity = parseDouble(value, where);
    } else if (key == "write_fraction") {
        app.writeFraction = parseDouble(value, where);
    } else if (key == "phase_accesses") {
        app.phaseAccesses = parseUint(value, where);
    } else if (key == "phase_pattern") {
        app.phasePattern = parsePattern(value, where);
    } else if (key == "phase_footprint_mb") {
        app.phaseFootprintBytes = parseUint(value, where, 1024 * 1024);
    } else {
        util::fatal("%s: unknown key '%s'", where.c_str(), key.c_str());
    }
}

} // namespace

std::vector<AppParams>
parseAppParams(const std::string &text, const std::string &origin)
{
    std::vector<AppParams> out;
    std::istringstream in(text);
    std::string line;
    size_t lineno = 0;
    bool in_section = false;
    while (std::getline(in, line)) {
        ++lineno;
        // Strip comments.
        for (const char marker : {'#', ';'}) {
            const auto pos = line.find(marker);
            if (pos != std::string::npos)
                line.erase(pos);
        }
        line = trim(line);
        if (line.empty())
            continue;
        std::ostringstream where;
        where << origin << ":" << lineno;
        if (line.front() == '[') {
            if (line.back() != ']')
                util::fatal("%s: unterminated section header",
                            where.str().c_str());
            const std::string name = trim(line.substr(1, line.size() - 2));
            if (name.empty())
                util::fatal("%s: empty application name",
                            where.str().c_str());
            for (const auto &a : out) {
                if (a.name == name)
                    util::fatal("%s: duplicate application '%s'",
                                where.str().c_str(), name.c_str());
            }
            AppParams app;
            app.name = name;
            out.push_back(std::move(app));
            in_section = true;
            continue;
        }
        const auto eq = line.find('=');
        if (eq == std::string::npos)
            util::fatal("%s: expected key = value", where.str().c_str());
        if (!in_section)
            util::fatal("%s: key outside any [application] section",
                        where.str().c_str());
        applyKey(out.back(), trim(line.substr(0, eq)),
                 trim(line.substr(eq + 1)), where.str());
    }
    if (out.empty())
        util::fatal("%s: no applications defined", origin.c_str());
    return out;
}

std::vector<AppParams>
loadAppParamsFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        util::fatal("cannot open application file '%s'", path.c_str());
    std::stringstream buffer;
    buffer << in.rdbuf();
    return parseAppParams(buffer.str(), path);
}

} // namespace rebudget::app
