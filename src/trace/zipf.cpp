#include "rebudget/trace/zipf.h"

#include <numeric>

#include "rebudget/util/logging.h"

namespace rebudget::trace {

namespace {

// Lines in the working set, validated before the sampler allocates.
uint64_t
checkedLines(uint64_t working_set, uint64_t line_bytes)
{
    if (line_bytes == 0 || (line_bytes & (line_bytes - 1)) != 0)
        util::fatal("line_bytes must be a power of two");
    const uint64_t lines = working_set / line_bytes;
    if (lines == 0)
        util::fatal("working set smaller than one line");
    if (lines > UINT32_MAX)
        util::fatal("working set of %llu lines exceeds 2^32 - 1",
                    static_cast<unsigned long long>(lines));
    return lines;
}

} // namespace

ZipfWorkingSetGen::ZipfWorkingSetGen(uint64_t base_addr,
                                     uint64_t working_set,
                                     uint64_t line_bytes, double alpha,
                                     double write_fraction, uint64_t seed)
    : baseAddr_(base_addr), workingSet_(working_set), lineBytes_(line_bytes),
      writeFraction_(write_fraction),
      sampler_(checkedLines(working_set, line_bytes), alpha), rng_(seed)
{
    if (!(write_fraction >= 0.0 && write_fraction <= 1.0))
        util::fatal("write_fraction must be in [0,1]");
    // Scatter ranks across the footprint so that hot lines spread evenly
    // over cache sets rather than clustering at low set indices.
    rankToLine_.resize(sampler_.size());
    std::iota(rankToLine_.begin(), rankToLine_.end(), uint32_t{0});
    util::Rng perm_rng(seed ^ 0xa5a5a5a5a5a5a5a5ULL);
    perm_rng.shuffle(rankToLine_);
}

void
ZipfWorkingSetGen::fill(Access *out, size_t n)
{
    // The RNG state and the fields are held in locals for the batch, so
    // a draw reads only the sampler's tables and the rank table.
    util::Rng rng = rng_;
    const uint32_t *rank_to_line = rankToLine_.data();
    const uint64_t base = baseAddr_;
    const uint64_t line_bytes = lineBytes_;
    const double write_fraction = writeFraction_;
    for (size_t i = 0; i < n; ++i) {
        const uint64_t line = rank_to_line[sampler_.rankOf(rng.uniform())];
        out[i] = Access{base + line * line_bytes,
                        rng.bernoulli(write_fraction)};
    }
    rng_ = rng;
}

std::unique_ptr<AddressGenerator>
ZipfWorkingSetGen::clone() const
{
    return std::make_unique<ZipfWorkingSetGen>(*this);
}

uint64_t
ZipfWorkingSetGen::tableBytes(uint64_t working_set, uint64_t line_bytes)
{
    if (line_bytes == 0)
        return 0;
    const uint64_t lines = working_set / line_bytes;
    if (lines == 0 || lines > UINT32_MAX)
        return 0;
    // The sampler's tables, then rank -> line.
    return util::ZipfSampler::tableBytes(lines) + lines * sizeof(uint32_t);
}

} // namespace rebudget::trace
