#ifndef REBUDGET_APP_APP_PARAMS_H_
#define REBUDGET_APP_APP_PARAMS_H_

/**
 * @file
 * Parametric application descriptions (SPEC stand-ins).
 *
 * The paper evaluates 24 SPEC CPU2000/2006 applications classified as
 * Cache-sensitive (C), Power-sensitive (P), Both (B) or None (N)
 * (Section 5).  Since SPEC binaries and SimPoints are unavailable, each
 * catalog entry is a parametric model: a synthetic reference stream with
 * a chosen locality profile plus core timing and power parameters.  The
 * streams run through the real cache substrate, so cache behavior
 * (including the mcf-style cliff the paper highlights in Figure 2)
 * emerges from the simulated hardware rather than being asserted.
 */

#include <cstdint>
#include <memory>
#include <string>

#include "rebudget/trace/generator.h"

namespace rebudget::app {

/** Paper Section 5 application classes. */
enum class AppClass { CacheSensitive, PowerSensitive, BothSensitive, None };

/** @return the one-letter class code (C, P, B, N). */
char appClassCode(AppClass cls);

/** @return a class parsed from its one-letter code. */
AppClass appClassFromCode(char code);

/** Memory reference pattern archetypes for the catalog. */
enum class MemPattern
{
    /** Uniform random over the working set (linear miss-vs-size ramp). */
    Uniform,
    /** Zipf-skewed reuse (smooth concave miss curve, vpr-like). */
    Zipf,
    /** Random pointer chase (LRU cliff at the working-set size,
     *  mcf-like). */
    PointerChase,
    /** Streaming sweep over a large footprint (cache-insensitive). */
    Stream,
};

/** Full parametric description of a catalog application. */
struct AppParams
{
    /** Display name (SPEC-like). */
    std::string name;
    /** Class the parameters were designed to land in. */
    AppClass designClass = AppClass::None;

    // --- Memory behavior ---
    /** Primary reference pattern. */
    MemPattern pattern = MemPattern::Uniform;
    /** Primary working-set footprint in bytes. */
    uint64_t workingSetBytes = 512 * 1024;
    /** Zipf skew for the Zipf pattern. */
    double zipfAlpha = 0.8;
    /**
     * Fraction of accesses that stream over a large cold footprint
     * regardless of the primary pattern (residual DRAM traffic that no
     * realistic cache allocation removes).
     */
    double coldStreamFraction = 0.0;
    /** Cold stream footprint in bytes. */
    uint64_t coldStreamBytes = 32ull * 1024 * 1024;
    /** Memory references per instruction (pre-L1). */
    double memPerInstr = 0.3;
    /** Store fraction of memory references. */
    double writeFraction = 0.2;

    // --- Optional coarse program phases ---
    /**
     * When > 0, the reference stream alternates between the primary
     * pattern and a second phase of phasePattern/phaseFootprintBytes,
     * switching every phaseAccesses references.  Used to evaluate how
     * the 1 ms reallocation epoch tracks phase changes (Section 4.3).
     */
    uint64_t phaseAccesses = 0;
    /** Pattern of the alternate phase. */
    MemPattern phasePattern = MemPattern::Stream;
    /** Footprint of the alternate phase in bytes. */
    uint64_t phaseFootprintBytes = 16ull * 1024 * 1024;

    // --- Core timing ---
    /** Cycles per instruction excluding L2-level stalls. */
    double computeCpi = 0.5;

    // --- Power ---
    /** Dynamic-power activity factor in (0, 1]. */
    double activity = 0.8;

    /**
     * Build the reference stream described by these parameters.
     *
     * @param base_addr  address-space base for this instance
     * @param seed       RNG seed
     */
    std::unique_ptr<trace::AddressGenerator> makeGenerator(
        uint64_t base_addr, uint64_t seed) const;

    /**
     * @return heap bytes of the lookup tables makeGenerator() would build
     * (Zipf and pointer-chase patterns; uniform and streaming patterns
     * hold none), computed from these parameters alone.  The catalog
     * profiler sizes its admission budget with it.
     */
    uint64_t generatorTableBytes() const;
};

} // namespace rebudget::app

#endif // REBUDGET_APP_APP_PARAMS_H_
