#include "rebudget/trace/mixture.h"

#include <algorithm>
#include <cmath>

#include "rebudget/util/logging.h"

namespace rebudget::trace {

MixtureGen::MixtureGen(std::vector<Component> components, uint64_t seed)
    : components_(std::move(components)), rng_(seed)
{
    if (components_.empty())
        util::fatal("MixtureGen requires at least one component");
    double sum = 0.0;
    for (const auto &c : components_) {
        if (!c.gen)
            util::fatal("MixtureGen component has a null generator");
        if (!(c.weight > 0.0 && std::isfinite(c.weight)))
            util::fatal("MixtureGen weights must be positive and finite");
        sum += c.weight;
    }
    if (!std::isfinite(sum))
        util::fatal("MixtureGen weights must have a finite sum");
    cdf_.reserve(components_.size());
    double acc = 0.0;
    for (const auto &c : components_) {
        acc += c.weight / sum;
        cdf_.push_back(acc);
    }
    cdf_.back() = 1.0;
}

MixtureGen::MixtureGen(const MixtureGen &other)
    : cdf_(other.cdf_), rng_(other.rng_)
{
    components_.reserve(other.components_.size());
    for (const auto &c : other.components_)
        components_.push_back(Component{c.gen->clone(), c.weight});
}

void
MixtureGen::fill(Access *out, size_t n)
{
    // Per chunk of kBatchSize slots: draw every slot's component, then
    // let each component fill its share in one batch and deal its
    // references to the slots that picked it, in slot order.  The
    // selector and the components own separate state, so each component
    // produces the references it would under interleaved next() calls.
    uint32_t pick[kBatchSize];
    Access drawn[kBatchSize];
    const double *cdf = cdf_.data();
    const size_t parts = components_.size();
    while (n > 0) {
        const size_t len = std::min(n, kBatchSize);
        util::Rng rng = rng_;
        for (size_t i = 0; i < len; ++i) {
            pick[i] = static_cast<uint32_t>(
                std::lower_bound(cdf, cdf + parts, rng.uniform()) - cdf);
        }
        rng_ = rng;
        for (uint32_t c = 0; c < parts; ++c) {
            const auto share =
                static_cast<size_t>(std::count(pick, pick + len, c));
            if (share == 0)
                continue;
            components_[c].gen->fill(drawn, share);
            const Access *next = drawn;
            for (size_t i = 0; i < len; ++i) {
                if (pick[i] == c)
                    out[i] = *next++;
            }
        }
        out += len;
        n -= len;
    }
}

uint64_t
MixtureGen::footprintBytes() const
{
    uint64_t total = 0;
    for (const auto &c : components_)
        total += c.gen->footprintBytes();
    return total;
}

std::unique_ptr<AddressGenerator>
MixtureGen::clone() const
{
    return std::make_unique<MixtureGen>(*this);
}

PhasedGen::PhasedGen(std::vector<Phase> phases) : phases_(std::move(phases))
{
    if (phases_.empty())
        util::fatal("PhasedGen requires at least one phase");
    for (const auto &p : phases_) {
        if (!p.gen)
            util::fatal("PhasedGen phase has a null generator");
        if (p.length == 0)
            util::fatal("PhasedGen phase lengths must be positive");
    }
    remaining_ = phases_[0].length;
}

PhasedGen::PhasedGen(const PhasedGen &other)
    : current_(other.current_), remaining_(other.remaining_)
{
    phases_.reserve(other.phases_.size());
    for (const auto &p : other.phases_)
        phases_.push_back(Phase{p.gen->clone(), p.length});
}

void
PhasedGen::fill(Access *out, size_t n)
{
    // Split the batch where the phase switches: on the first reference
    // after a phase has run its length, as one next() at a time would.
    while (n > 0) {
        if (remaining_ == 0) {
            current_ = (current_ + 1) % phases_.size();
            remaining_ = phases_[current_].length;
        }
        const auto len =
            static_cast<size_t>(std::min<uint64_t>(n, remaining_));
        phases_[current_].gen->fill(out, len);
        remaining_ -= len;
        out += len;
        n -= len;
    }
}

uint64_t
PhasedGen::footprintBytes() const
{
    uint64_t max_fp = 0;
    for (const auto &p : phases_)
        max_fp = std::max(max_fp, p.gen->footprintBytes());
    return max_fp;
}

std::unique_ptr<AddressGenerator>
PhasedGen::clone() const
{
    return std::make_unique<PhasedGen>(*this);
}

} // namespace rebudget::trace
