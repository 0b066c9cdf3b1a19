#include "rebudget/trace/replay.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <unordered_set>

#include "rebudget/util/logging.h"

namespace rebudget::trace {

ReplayGen::ReplayGen(std::vector<Access> accesses, uint64_t base_addr,
                     uint32_t line_bytes)
    : accesses_(std::move(accesses)), baseAddr_(base_addr)
{
    if (accesses_.empty())
        util::fatal("ReplayGen requires a non-empty trace");
    if (line_bytes == 0 || (line_bytes & (line_bytes - 1)) != 0)
        util::fatal("line_bytes must be a power of two");
    // Footprint: distinct cache lines touched (not the address span,
    // which is meaningless for traces spread over several regions).
    std::unordered_set<uint64_t> lines;
    lines.reserve(accesses_.size());
    for (const Access &a : accesses_)
        lines.insert(a.addr / line_bytes);
    footprint_ = static_cast<uint64_t>(lines.size()) * line_bytes;
}

void
ReplayGen::fill(Access *out, size_t n)
{
    const Access *trace = accesses_.data();
    const size_t length = accesses_.size();
    const uint64_t base = baseAddr_;
    size_t pos = pos_;
    for (size_t i = 0; i < n; ++i) {
        out[i] = Access{base + trace[pos].addr, trace[pos].write};
        if (++pos == length)
            pos = 0;
    }
    pos_ = pos;
}

std::unique_ptr<AddressGenerator>
ReplayGen::clone() const
{
    return std::make_unique<ReplayGen>(*this);
}

std::vector<Access>
loadTraceFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        util::fatal("cannot open trace file '%s'", path.c_str());
    std::vector<Access> out;
    std::string line;
    size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        // Strip comments and whitespace-only lines.
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        std::istringstream ss(line);
        std::string kind;
        if (!(ss >> kind))
            continue; // blank
        std::string addr_str;
        if (!(ss >> addr_str)) {
            util::fatal("%s:%zu: missing address", path.c_str(),
                        lineno);
        }
        Access a{};
        if (kind == "R" || kind == "r") {
            a.write = false;
        } else if (kind == "W" || kind == "w") {
            a.write = true;
        } else {
            util::fatal("%s:%zu: expected R or W, got '%s'",
                        path.c_str(), lineno, kind.c_str());
        }
        try {
            a.addr = std::stoull(addr_str, nullptr, 16);
        } catch (const std::exception &) {
            util::fatal("%s:%zu: bad hex address '%s'", path.c_str(),
                        lineno, addr_str.c_str());
        }
        out.push_back(a);
    }
    if (out.empty())
        util::fatal("trace file '%s' contains no accesses",
                    path.c_str());
    return out;
}

void
saveTraceFile(const std::string &path,
              const std::vector<Access> &accesses)
{
    std::ofstream os(path);
    if (!os)
        util::fatal("cannot write trace file '%s'", path.c_str());
    os << "# rebudget trace: R|W <hex address>\n" << std::hex;
    for (const Access &a : accesses)
        os << (a.write ? 'W' : 'R') << ' ' << a.addr << '\n';
    if (!os)
        util::fatal("error writing trace file '%s'", path.c_str());
}

} // namespace rebudget::trace
