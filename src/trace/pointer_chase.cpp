#include "rebudget/trace/pointer_chase.h"

#include <numeric>

#include "rebudget/util/logging.h"

namespace rebudget::trace {

PointerChaseGen::PointerChaseGen(uint64_t base_addr, uint64_t working_set,
                                 uint64_t line_bytes, uint64_t seed)
    : baseAddr_(base_addr), workingSet_(working_set), lineBytes_(line_bytes)
{
    if (line_bytes == 0 || (line_bytes & (line_bytes - 1)) != 0)
        util::fatal("line_bytes must be a power of two");
    const uint64_t lines = working_set / line_bytes;
    if (lines == 0)
        util::fatal("working set smaller than one line");
    if (lines > UINT32_MAX)
        util::fatal("working set of %llu lines exceeds 2^32 - 1",
                    static_cast<unsigned long long>(lines));
    // Build a random Hamiltonian cycle: shuffle the visit order, then link
    // each line to its successor.
    std::vector<uint32_t> order(lines);
    std::iota(order.begin(), order.end(), uint32_t{0});
    util::Rng rng(seed);
    rng.shuffle(order);
    nextLine_.resize(lines);
    for (uint64_t i = 0; i < lines; ++i)
        nextLine_[order[i]] = order[(i + 1) % lines];
    current_ = order[0];
}

void
PointerChaseGen::fill(Access *out, size_t n)
{
    const uint64_t base = baseAddr_;
    const uint64_t line_bytes = lineBytes_;
    const uint32_t *next_line = nextLine_.data();
    uint32_t current = current_;
    for (size_t i = 0; i < n; ++i) {
        out[i] = Access{base + uint64_t{current} * line_bytes, false};
        current = next_line[current];
    }
    current_ = current;
}

std::unique_ptr<AddressGenerator>
PointerChaseGen::clone() const
{
    return std::make_unique<PointerChaseGen>(*this);
}

uint64_t
PointerChaseGen::tableBytes(uint64_t working_set, uint64_t line_bytes)
{
    if (line_bytes == 0)
        return 0;
    const uint64_t lines = working_set / line_bytes;
    if (lines == 0 || lines > UINT32_MAX)
        return 0;
    // The visit order lives until the constructor returns; the
    // successor table for the generator's lifetime.
    return 2 * lines * sizeof(uint32_t);
}

} // namespace rebudget::trace
