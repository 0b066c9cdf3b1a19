/**
 * @file
 * Bit-identicality regression for the generators' batch path.  Every
 * generator draws its stream through fill(out, n); verbatim ports of
 * the one-reference-at-a-time next() bodies they replaced live below,
 * with their own xoshiro256++ and full-table Zipf search, so no port
 * calls production code.  Driven with the same parameters, fill must
 * return the ports' stream at batch sizes 1, 3, 255, 256 and 1000,
 * across PhasedGen switches, after a clone() taken mid-stream, and with
 * next() calls interleaved.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "rebudget/trace/mixture.h"
#include "rebudget/trace/pointer_chase.h"
#include "rebudget/trace/replay.h"
#include "rebudget/trace/stride.h"
#include "rebudget/trace/uniform.h"
#include "rebudget/trace/zipf.h"

namespace rebudget::trace {
namespace {

constexpr uint64_t kLine = 64;

// util::Rng as it was: xoshiro256++ seeded through splitmix64.
class RefRng
{
  public:
    explicit RefRng(uint64_t seed)
    {
        uint64_t sm = seed;
        for (auto &s : s_)
            s = splitmix64(sm);
    }

    uint64_t
    next()
    {
        const uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
        const uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

    uint64_t
    uniformInt(uint64_t n)
    {
        const uint64_t limit = UINT64_MAX - UINT64_MAX % n;
        uint64_t x;
        do {
            x = next();
        } while (x >= limit);
        return x % n;
    }

    bool bernoulli(double p) { return uniform() < p; }

    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (size_t i = v.size(); i > 1; --i) {
            const size_t j = uniformInt(static_cast<uint64_t>(i));
            std::swap(v[i - 1], v[j]);
        }
    }

  private:
    static uint64_t
    splitmix64(uint64_t &x)
    {
        x += 0x9e3779b97f4a7c15ULL;
        uint64_t z = x;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    static uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t s_[4];
};

// The one-at-a-time stream interface the generators had.
class RefGen
{
  public:
    virtual ~RefGen() = default;
    virtual Access next() = 0;
    virtual std::unique_ptr<RefGen> clone() const = 0;
};

template <typename Derived>
class RefGenBase : public RefGen
{
  public:
    std::unique_ptr<RefGen>
    clone() const override
    {
        return std::make_unique<Derived>(static_cast<const Derived &>(*this));
    }
};

class RefZipf : public RefGenBase<RefZipf>
{
  public:
    RefZipf(uint64_t base_addr, uint64_t working_set, uint64_t line_bytes,
            double alpha, double write_fraction, uint64_t seed)
        : baseAddr_(base_addr), lineBytes_(line_bytes),
          writeFraction_(write_fraction), rng_(seed)
    {
        const uint64_t n = working_set / line_bytes;
        cdf_.resize(n);
        double sum = 0.0;
        for (size_t k = 0; k < n; ++k) {
            sum += 1.0 / std::pow(static_cast<double>(k + 1), alpha);
            cdf_[k] = sum;
        }
        for (auto &c : cdf_)
            c /= sum;
        cdf_.back() = 1.0;
        rankToLine_.resize(n);
        std::iota(rankToLine_.begin(), rankToLine_.end(), uint32_t{0});
        RefRng perm_rng(seed ^ 0xa5a5a5a5a5a5a5a5ULL);
        perm_rng.shuffle(rankToLine_);
    }

    Access
    next() override
    {
        const size_t rank = static_cast<size_t>(
            std::lower_bound(cdf_.begin(), cdf_.end(), rng_.uniform()) -
            cdf_.begin());
        const uint64_t line = rankToLine_[rank];
        return Access{baseAddr_ + line * lineBytes_,
                      rng_.bernoulli(writeFraction_)};
    }

  private:
    uint64_t baseAddr_;
    uint64_t lineBytes_;
    double writeFraction_;
    std::vector<double> cdf_;
    std::vector<uint32_t> rankToLine_;
    RefRng rng_;
};

class RefUniform : public RefGenBase<RefUniform>
{
  public:
    RefUniform(uint64_t base_addr, uint64_t working_set,
               uint64_t line_bytes, double write_fraction, uint64_t seed)
        : baseAddr_(base_addr), lineBytes_(line_bytes),
          lines_(working_set / line_bytes), writeFraction_(write_fraction),
          rng_(seed)
    {}

    Access
    next() override
    {
        const uint64_t line = rng_.uniformInt(lines_);
        return Access{baseAddr_ + line * lineBytes_,
                      rng_.bernoulli(writeFraction_)};
    }

  private:
    uint64_t baseAddr_;
    uint64_t lineBytes_;
    uint64_t lines_;
    double writeFraction_;
    RefRng rng_;
};

class RefStride : public RefGenBase<RefStride>
{
  public:
    RefStride(uint64_t base_addr, uint64_t footprint, uint64_t stride_bytes,
              double write_fraction)
        : baseAddr_(base_addr), footprint_(footprint), stride_(stride_bytes)
    {
        writePeriod_ =
            write_fraction > 0.0
                ? static_cast<uint64_t>(std::llround(1.0 / write_fraction))
                : 0;
    }

    Access
    next() override
    {
        Access a;
        a.addr = baseAddr_ + offset_;
        a.write =
            writePeriod_ != 0 && (count_ % writePeriod_) == 0 && count_ > 0;
        offset_ += stride_;
        if (offset_ >= footprint_)
            offset_ = 0;
        ++count_;
        return a;
    }

  private:
    uint64_t baseAddr_;
    uint64_t footprint_;
    uint64_t stride_;
    uint64_t offset_ = 0;
    uint64_t count_ = 0;
    uint64_t writePeriod_;
};

class RefChase : public RefGenBase<RefChase>
{
  public:
    RefChase(uint64_t base_addr, uint64_t working_set, uint64_t line_bytes,
             uint64_t seed)
        : baseAddr_(base_addr), lineBytes_(line_bytes)
    {
        const uint64_t lines = working_set / line_bytes;
        std::vector<uint32_t> order(lines);
        std::iota(order.begin(), order.end(), uint32_t{0});
        RefRng rng(seed);
        rng.shuffle(order);
        nextLine_.resize(lines);
        for (uint64_t i = 0; i < lines; ++i)
            nextLine_[order[i]] = order[(i + 1) % lines];
        current_ = order[0];
    }

    Access
    next() override
    {
        const Access a{
            baseAddr_ + static_cast<uint64_t>(current_) * lineBytes_, false};
        current_ = nextLine_[current_];
        return a;
    }

  private:
    uint64_t baseAddr_;
    uint64_t lineBytes_;
    std::vector<uint32_t> nextLine_;
    uint32_t current_ = 0;
};

class RefReplay : public RefGenBase<RefReplay>
{
  public:
    RefReplay(std::vector<Access> accesses, uint64_t base_addr)
        : accesses_(std::move(accesses)), baseAddr_(base_addr)
    {}

    Access
    next() override
    {
        Access a = accesses_[pos_];
        a.addr += baseAddr_;
        pos_ = (pos_ + 1) % accesses_.size();
        return a;
    }

  private:
    std::vector<Access> accesses_;
    uint64_t baseAddr_;
    size_t pos_ = 0;
};

class RefMixture : public RefGen
{
  public:
    RefMixture(std::vector<std::pair<std::unique_ptr<RefGen>, double>> comps,
               uint64_t seed)
        : components_(std::move(comps)), rng_(seed)
    {
        double sum = 0.0;
        for (const auto &c : components_)
            sum += c.second;
        double acc = 0.0;
        for (const auto &c : components_) {
            acc += c.second / sum;
            cdf_.push_back(acc);
        }
        cdf_.back() = 1.0;
    }

    RefMixture(const RefMixture &other) : cdf_(other.cdf_), rng_(other.rng_)
    {
        for (const auto &c : other.components_)
            components_.emplace_back(c.first->clone(), c.second);
    }

    Access
    next() override
    {
        const double u = rng_.uniform();
        const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
        const size_t idx = static_cast<size_t>(it - cdf_.begin());
        return components_[idx].first->next();
    }

    std::unique_ptr<RefGen>
    clone() const override
    {
        return std::make_unique<RefMixture>(*this);
    }

  private:
    std::vector<std::pair<std::unique_ptr<RefGen>, double>> components_;
    std::vector<double> cdf_;
    RefRng rng_;
};

class RefPhased : public RefGen
{
  public:
    explicit RefPhased(
        std::vector<std::pair<std::unique_ptr<RefGen>, uint64_t>> phases)
        : phases_(std::move(phases)), remaining_(phases_[0].second)
    {}

    RefPhased(const RefPhased &other)
        : current_(other.current_), remaining_(other.remaining_)
    {
        for (const auto &p : other.phases_)
            phases_.emplace_back(p.first->clone(), p.second);
    }

    Access
    next() override
    {
        if (remaining_ == 0) {
            current_ = (current_ + 1) % phases_.size();
            remaining_ = phases_[current_].second;
        }
        --remaining_;
        return phases_[current_].first->next();
    }

    std::unique_ptr<RefGen>
    clone() const override
    {
        return std::make_unique<RefPhased>(*this);
    }

  private:
    std::vector<std::pair<std::unique_ptr<RefGen>, uint64_t>> phases_;
    size_t current_ = 0;
    uint64_t remaining_ = 0;
};

// A production generator and its port, built from the same parameters.
struct Pair
{
    std::unique_ptr<AddressGenerator> gen;
    std::unique_ptr<RefGen> ref;
};

Pair
zipf(uint64_t base, uint64_t working_set, double alpha, double wf,
     uint64_t seed)
{
    return {std::make_unique<ZipfWorkingSetGen>(base, working_set, kLine,
                                                alpha, wf, seed),
            std::make_unique<RefZipf>(base, working_set, kLine, alpha, wf,
                                      seed)};
}

Pair
uniform(uint64_t base, uint64_t working_set, double wf, uint64_t seed)
{
    return {std::make_unique<UniformWorkingSetGen>(base, working_set, kLine,
                                                   wf, seed),
            std::make_unique<RefUniform>(base, working_set, kLine, wf,
                                         seed)};
}

Pair
stride(uint64_t base, uint64_t footprint, uint64_t stride_bytes, double wf)
{
    return {std::make_unique<StrideGen>(base, footprint, stride_bytes, wf),
            std::make_unique<RefStride>(base, footprint, stride_bytes, wf)};
}

Pair
chase(uint64_t base, uint64_t working_set, uint64_t seed)
{
    return {std::make_unique<PointerChaseGen>(base, working_set, kLine,
                                              seed),
            std::make_unique<RefChase>(base, working_set, kLine, seed)};
}

Pair
replay(uint64_t base)
{
    std::vector<Access> trace;
    for (uint64_t i = 0; i < 37; ++i)
        trace.push_back(Access{(i * 7919 % 23) * kLine + i, i % 3 == 0});
    return {std::make_unique<ReplayGen>(trace, base),
            std::make_unique<RefReplay>(trace, base)};
}

Pair
mixture(std::vector<std::pair<Pair, double>> parts, uint64_t seed)
{
    std::vector<MixtureGen::Component> comps;
    std::vector<std::pair<std::unique_ptr<RefGen>, double>> refs;
    for (auto &[p, w] : parts) {
        comps.push_back({std::move(p.gen), w});
        refs.emplace_back(std::move(p.ref), w);
    }
    return {std::make_unique<MixtureGen>(std::move(comps), seed),
            std::make_unique<RefMixture>(std::move(refs), seed)};
}

Pair
phased(std::vector<std::pair<Pair, uint64_t>> parts)
{
    std::vector<PhasedGen::Phase> phases;
    std::vector<std::pair<std::unique_ptr<RefGen>, uint64_t>> refs;
    for (auto &[p, len] : parts) {
        phases.push_back({std::move(p.gen), len});
        refs.emplace_back(std::move(p.ref), len);
    }
    return {std::make_unique<PhasedGen>(std::move(phases)),
            std::make_unique<RefPhased>(std::move(refs))};
}

Pair
pairOf(Pair a, double wa, Pair b, double wb, uint64_t seed)
{
    std::vector<std::pair<Pair, double>> parts;
    parts.emplace_back(std::move(a), wa);
    parts.emplace_back(std::move(b), wb);
    return mixture(std::move(parts), seed);
}

// Every pattern, and the compositions the catalog builds: a Zipf app
// with a cold stride, and phases that alternate with it.
const std::vector<std::pair<std::string, std::function<Pair()>>> &
streams()
{
    static const std::vector<std::pair<std::string, std::function<Pair()>>>
        all = {
            {"zipf", [] { return zipf(0, 256 * 1024, 0.9, 0.15, 3); }},
            {"uniform", [] { return uniform(0x1000, 64 * 1024, 0.3, 4); }},
            {"stride", [] { return stride(1ull << 36, 48 * 1024, kLine, 0.25); }},
            {"stride_odd", [] { return stride(0, 1000, 192, 0.4); }},
            {"chase", [] { return chase(1ull << 37, 32 * 1024, 5); }},
            {"replay", [] { return replay(0x100); }},
            {"mixture",
             [] {
                 std::vector<std::pair<Pair, double>> parts;
                 parts.emplace_back(zipf(0, 128 * 1024, 0.7, 0.1, 6), 0.7);
                 parts.emplace_back(stride(1ull << 36, 1 << 20, kLine, 0.1),
                                    0.2);
                 parts.emplace_back(uniform(1ull << 38, 16 * 1024, 0.5, 7),
                                    0.1);
                 return mixture(std::move(parts), 8);
             }},
            {"zipf_cold",
             [] {
                 return pairOf(zipf(0, 2 * 1024 * 1024, 0.9, 0.15, 9), 0.95,
                               stride(1ull << 36, 8 << 20, kLine, 0.15),
                               0.05, 9 ^ 0x5bd1e995u);
             }},
            {"phased",
             [] {
                 std::vector<std::pair<Pair, uint64_t>> parts;
                 parts.emplace_back(
                     pairOf(zipf(0, 64 * 1024, 0.8, 0.2, 10), 0.9,
                            stride(1ull << 36, 1 << 20, kLine, 0.2), 0.1, 11),
                     7);
                 parts.emplace_back(chase(1ull << 37, 16 * 1024, 12), 300);
                 return phased(std::move(parts));
             }},
            {"phased_three",
             [] {
                 std::vector<std::pair<Pair, uint64_t>> parts;
                 parts.emplace_back(uniform(0, 32 * 1024, 0.3, 13), 256);
                 parts.emplace_back(replay(1ull << 40), 1);
                 parts.emplace_back(stride(1ull << 36, 4096, kLine, 0.5), 1000);
                 return phased(std::move(parts));
             }},
            {"mixture_of_phases",
             [] {
                 std::vector<std::pair<Pair, uint64_t>> parts;
                 parts.emplace_back(zipf(0, 32 * 1024, 1.1, 0.1, 14), 3);
                 parts.emplace_back(stride(1ull << 36, 8192, kLine, 0.0), 5);
                 return pairOf(phased(std::move(parts)), 2.0,
                               uniform(1ull << 38, 8192, 0.25, 15), 1.0, 16);
             }},
        };
    return all;
}

constexpr size_t kBatchSizes[] = {1, 3, 255, 256, 1000};

// Draw @p total references from @p gen in batches of the given sizes
// (cycled) and compare each with the port's next().
void
expectStream(AddressGenerator &gen, RefGen &ref,
             const std::vector<size_t> &sizes, size_t total,
             const std::string &what)
{
    std::vector<Access> batch;
    size_t drawn = 0;
    for (size_t k = 0; drawn < total; ++k) {
        const size_t n = std::min(sizes[k % sizes.size()], total - drawn);
        batch.assign(n, Access{~uint64_t{0}, true});
        gen.fill(batch.data(), n);
        for (size_t i = 0; i < n; ++i) {
            const Access want = ref.next();
            ASSERT_EQ(batch[i].addr, want.addr)
                << what << ": reference " << drawn + i;
            ASSERT_EQ(batch[i].write, want.write)
                << what << ": reference " << drawn + i;
        }
        drawn += n;
    }
}

TEST(BatchReference, FillMatchesNextAtEveryBatchSize)
{
    for (const auto &[name, make] : streams()) {
        for (const size_t size : kBatchSizes) {
            Pair p = make();
            expectStream(*p.gen, *p.ref, {size}, 6000,
                         name + " batch " + std::to_string(size));
        }
        Pair p = make();
        expectStream(*p.gen, *p.ref, {1, 3, 255, 256, 1000}, 12000,
                     name + " mixed batches");
    }
}

TEST(BatchReference, BatchesCrossPhaseSwitches)
{
    // Phases of 7 and 300 references: batches of 255, 256 and 1000 each
    // span several switches, and a batch of 3 ends on a switch.
    for (const size_t size : kBatchSizes) {
        std::vector<std::pair<Pair, uint64_t>> parts;
        parts.emplace_back(zipf(0, 64 * 1024, 0.9, 0.3, 20), 7);
        parts.emplace_back(stride(1ull << 36, 1 << 16, kLine, 0.5), 300);
        parts.emplace_back(uniform(1ull << 37, 1 << 16, 0.1, 21), 256);
        Pair p = phased(std::move(parts));
        expectStream(*p.gen, *p.ref, {size}, 5000,
                     "phases batch " + std::to_string(size));
    }
}

TEST(BatchReference, CloneTakenMidStreamContinuesIdentically)
{
    for (const auto &[name, make] : streams()) {
        Pair p = make();
        // Stop mid-phase and mid-chunk: 255 + 3 + 1 references.
        expectStream(*p.gen, *p.ref, {255, 3, 1}, 259, name);
        const std::unique_ptr<AddressGenerator> gen_clone = p.gen->clone();
        const std::unique_ptr<RefGen> ref_clone = p.ref->clone();
        expectStream(*p.gen, *p.ref, {1000, 256}, 3000, name + " original");
        expectStream(*gen_clone, *ref_clone, {3, 256, 1}, 3000,
                     name + " clone");
    }
}

TEST(BatchReference, NextInterleavesWithFill)
{
    for (const auto &[name, make] : streams()) {
        Pair p = make();
        std::vector<Access> batch(1000);
        size_t drawn = 0;
        for (size_t k = 0; k < 40; ++k) {
            const Access a = p.gen->next();
            const Access want = p.ref->next();
            ASSERT_EQ(a.addr, want.addr) << name << ": next " << drawn;
            ASSERT_EQ(a.write, want.write) << name << ": next " << drawn;
            ++drawn;
            const size_t n = kBatchSizes[k % std::size(kBatchSizes)];
            p.gen->fill(batch.data(), n);
            for (size_t i = 0; i < n; ++i) {
                const Access w = p.ref->next();
                ASSERT_EQ(batch[i].addr, w.addr) << name << ": " << drawn + i;
                ASSERT_EQ(batch[i].write, w.write) << name << ": " << drawn + i;
            }
            drawn += n;
        }
    }
}

} // namespace
} // namespace rebudget::trace
