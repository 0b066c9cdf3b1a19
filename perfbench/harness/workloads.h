#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

/**
 * @file
 * The four benchmark workloads.  Each run function measures one
 * workload for cfg.seconds and fills a Result: end-to-end metrics when
 * cfg.trace is false; per-layer metrics (from spans around the calls
 * into each module's public functions) plus the tracing overhead when
 * it is true.  A probe is a short traced pass whose per-layer metrics
 * fill the layers the requested workload does not exercise.
 */

#include <cstdint>

#include "common.h"

namespace perfbench {

/** Steady-clock time at harness main() entry: setup_s starts here. */
extern std::uint64_t g_startNs;

/** Cold setup of an in-process workload; returns setup seconds. */
double inprocSetupOnly(const RunConfig &cfg);

Result runFig04(const RunConfig &cfg);
Result runMarketScale(const RunConfig &cfg);
/** serve_read (write = false) or serve_write (write = true). */
Result runServe(const RunConfig &cfg, bool write);

/** Short traced slice of the fig04 suite (every bundle-path layer). */
Result probeFig04(const RunConfig &cfg);
/** Short traced serve_write session (every write-side serve layer). */
Result probeServeWrite(const RunConfig &cfg);

/** Call app::catalogProfiles() and sharedCatalogModel() for every
 * catalog app, with spans on @p tr (may be null); returns seconds
 * spent.  Only the first call in a process is cold. */
double warmCatalog(Tracer *tr);

/** app.profile_s, eval.model_build_ms and workloads.suite_ms from the
 * setup spans on @p tr. */
void setupLayerMetrics(Result &r, const Tracer &tr);

/** Add the per-layer market.* metrics for merged solver stats. */
struct SolverTotals
{
    std::uint64_t solves = 0;
    std::uint64_t sweeps = 0;
    std::uint64_t steps = 0;
    std::uint64_t warm = 0;
    std::uint64_t failSafe = 0;
    double solveSeconds = 0.0;
    std::uint64_t ops = 0;
};
void addMarketMetrics(Result &r, const SolverTotals &t);

/** Record, per span name, its count and the p50 of its duration and
 * of its self time (duration minus direct children) as info lines. */
void addSpanTable(Result &r, const std::map<std::string, SpanSummary> &spans);

/** Set @p metric to the p50 duration of span @p span, scaled by
 * @p scale into @p unit; absent when the span never ran. */
void addSpanP50(Result &r, const std::string &metric,
                const std::map<std::string, SpanSummary> &spans,
                const std::string &span, double scale,
                const std::string &unit);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H_
