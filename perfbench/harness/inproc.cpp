/**
 * @file
 * In-process workloads: fig04_sweep (the paper's Figure 4 suite under
 * all six mechanisms through eval::BundleRunner::evaluate) and
 * market_scale (ReBudget-40 allocate() on 1024-player markets).
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>

#include "rebudget/app/catalog.h"
#include "rebudget/core/baselines.h"
#include "rebudget/core/max_efficiency.h"
#include "rebudget/core/rebudget_allocator.h"
#include "rebudget/eval/bundle_runner.h"
#include "rebudget/eval/problem_builder.h"
#include "rebudget/workloads/bundles.h"
#include "workloads.h"

using namespace rebudget;

namespace perfbench {

namespace {

// --- recorded expectations ---------------------------------------------

/** fig04: summed marketIterations per pass over the 240 bundles, in
 * mechanism order (the fig04 counters the test suite pins). */
struct MechanismExpect
{
    const char *name;
    std::uint64_t marketIterations;
};
constexpr MechanismExpect kFig04Expect[] = {
    {"EqualShare", 0},     {"EqualBudget", 753}, {"Balanced", 953},
    {"ReBudget-20", 1896}, {"ReBudget-40", 2631}, {"MaxEfficiency", 0},
};
constexpr std::size_t kFig04Bundles = 240;
/** Bundles of the traced fig04 probe. */
constexpr std::uint64_t kProbeBundles = 24;

/** market_scale: one fixed roster set; the benchmark seed only orders
 * the ops.  Counters of one ReBudget-40 allocate() per roster: a run
 * whose counters differ names the measured ones in its errors, which
 * are the values to record when a solver change is meant to move them.
 * An odd roster count puts a window's median op inside one roster's
 * cluster of latencies instead of on the edge between two. */
constexpr std::size_t kScalePlayers = 1024;
struct RosterExpect
{
    std::uint64_t rosterSeed;
    std::uint64_t solves;
    std::uint64_t sweeps;
    std::uint64_t rounds;
    bool converged;
};
constexpr RosterExpect kScaleExpect[] = {
    {101, 4, 13, 7, true}, {102, 4, 11, 7, true}, {103, 4, 13, 7, true},
    {104, 4, 13, 7, true}, {105, 4, 10, 7, true}, {106, 4, 11, 7, true},
    {107, 4, 14, 7, true}, {108, 4, 10, 7, true}, {109, 4, 11, 7, true},
};

double
secondsSince(std::uint64_t t0)
{
    return static_cast<double>(nowNs() - t0) * 1e-9;
}

void
accumulate(SolverTotals &t, const util::SolverStats &s)
{
    t.solves += static_cast<std::uint64_t>(s.equilibriumSolves);
    t.sweeps += static_cast<std::uint64_t>(s.sweepIterations);
    t.steps += static_cast<std::uint64_t>(s.hillClimbSteps);
    t.warm += static_cast<std::uint64_t>(s.warmStartedSolves);
    t.failSafe += static_cast<std::uint64_t>(s.failSafeTrips);
    t.solveSeconds += s.solveSeconds;
}

double
convergedShare(const SolverTotals &t)
{
    return t.solves == 0 ? 1.0
                         : static_cast<double>(t.solves - t.failSafe) /
                               static_cast<double>(t.solves);
}

/** Worker CPUs: the first min(nproc, 4) allowed CPUs. */
std::vector<int>
workerCpus()
{
    std::vector<int> cpus = allowedCpus();
    if (cpus.size() > 4)
        cpus.resize(4);
    if (cpus.empty())
        cpus.push_back(0);
    return cpus;
}

/** Throughput and p99 latency; the traced run reports them from its
 * untraced half. */
void
setTail(Result &r, const Samples &lat, std::uint64_t ops, double wall_s)
{
    r.set("latency_p99_us", lat.quantileNs(0.99) * 1e-3, "us", lat.size());
    r.set("ops_per_s", static_cast<double>(ops) / wall_s, "1/s", ops);
}

void
setEndToEnd(Result &r, const Samples &lat, std::uint64_t ops,
            double wall_s, const Windows &win, double share)
{
    r.set("latency_p50_us", median(win.p50Us), "us", lat.size());
    setTail(r, lat, ops, wall_s);
    r.set("cpu_us_per_op", median(win.cpuUsPerOp), "us", ops);
    r.set("peak_rss_mb", peakRssMb(), "MiB", 1);
    r.set("converged_share", share, "ratio", ops);
}

// --- fig04_sweep -----------------------------------------------------------

/** Tracer and op of the calling thread for TimedAllocator's spans (a
 * null tracer records nothing). */
thread_local Tracer *t_tracer = nullptr;
thread_local std::uint64_t t_op = 0;

/**
 * Forwards to a mechanism and records a span around each allocate() on
 * the calling thread's tracer.  A BundleRunner over these wrappers runs
 * evaluate() itself, so traced passes take the code path untraced ones
 * take.
 */
class TimedAllocator final : public core::Allocator
{
  public:
    /** Interns the span name: construct before any worker starts. */
    explicit TimedAllocator(const core::Allocator &inner)
        : inner_(inner),
          span_(Tracer::nameId("core.allocate." + inner.name()))
    {
    }
    const std::string &name() const override { return inner_.name(); }
    core::AllocationOutcome
    allocate(const core::AllocationProblem &problem) const override
    {
        ScopedSpan s(t_tracer, span_, t_op);
        return inner_.allocate(problem);
    }

  private:
    const core::Allocator &inner_;
    std::uint32_t span_;
};

struct Fig04Env
{
    std::vector<workloads::Bundle> bundles;
    core::EqualShareAllocator equalShare;
    core::EqualBudgetAllocator equalBudget;
    core::BalancedBudgetAllocator balanced;
    core::ReBudgetAllocator rb20 = core::ReBudgetAllocator::withStep(20);
    core::ReBudgetAllocator rb40 = core::ReBudgetAllocator::withStep(40);
    core::MaxEfficiencyAllocator maxEff;
    std::vector<const core::Allocator *> mechanisms;
    std::vector<std::unique_ptr<TimedAllocator>> timed;
    /** The same mechanisms behind TimedAllocator wrappers. */
    std::vector<const core::Allocator *> timedMechanisms;
    std::unique_ptr<eval::BundleRunner> runner;
    /** evaluate() over timedMechanisms, for traced passes. */
    std::unique_ptr<eval::BundleRunner> tracedRunner;
    /** Interned before any worker starts. */
    std::uint32_t bundleSpan = Tracer::nameId("fig04.bundle");
};

std::unique_ptr<Fig04Env>
fig04Setup(Tracer *tr)
{
    warmCatalog(tr);
    auto env = std::make_unique<Fig04Env>();
    {
        ScopedSpan s(tr, Tracer::nameId("workloads.suite"), 0);
        env->bundles = workloads::generateAllBundles(
            workloads::classifyCatalog(), 64, 40, 2016);
    }
    env->mechanisms = {&env->equalShare, &env->equalBudget,
                       &env->balanced,   &env->rb20,
                       &env->rb40,       &env->maxEff};
    for (const core::Allocator *m : env->mechanisms) {
        env->timed.push_back(std::make_unique<TimedAllocator>(*m));
        env->timedMechanisms.push_back(env->timed.back().get());
    }
    env->runner = std::make_unique<eval::BundleRunner>(env->mechanisms);
    env->tracedRunner =
        std::make_unique<eval::BundleRunner>(env->timedMechanisms);
    return env;
}

/** Per-mechanism tallies of one or more passes. */
struct PassTally
{
    /** Scored allocate() calls per mechanism. */
    std::vector<std::uint64_t> calls;
    std::vector<std::uint64_t> iterations;
    std::vector<std::uint64_t> converged;
    std::vector<SolverTotals> solver;
    std::vector<std::uint64_t> rounds;
    std::vector<std::uint64_t> elided;
    std::uint64_t bad = 0;
    std::string firstBad;

    explicit PassTally(std::size_t m)
        : calls(m), iterations(m), converged(m), solver(m), rounds(m),
          elided(m)
    {
    }
    void addScore(std::size_t m, const eval::MechanismScore &s)
    {
        if (!s.status.ok()) {
            if (bad++ == 0)
                firstBad = s.mechanism + ": " + s.status.toString();
            return;
        }
        calls[m] += 1;
        iterations[m] += static_cast<std::uint64_t>(s.marketIterations);
        converged[m] += s.converged ? 1 : 0;
        accumulate(solver[m], s.stats);
        rounds[m] += static_cast<std::uint64_t>(s.stats.budgetRounds);
        elided[m] += static_cast<std::uint64_t>(s.stats.elidedRescales);
    }
    /** Add every score of @p evals; a skipped or partly scored bundle
     * counts as bad.  Returns the bundles scored by every mechanism. */
    std::uint64_t
    addEvaluations(const std::vector<eval::BundleEvaluation> &evals)
    {
        std::uint64_t done = 0;
        for (const eval::BundleEvaluation &ev : evals) {
            if (ev.skipped || ev.scores.size() != calls.size()) {
                if (bad++ == 0)
                    firstBad = ev.bundle + " skipped: " + ev.skipReason;
                continue;
            }
            done += 1;
            for (std::size_t m = 0; m < calls.size(); ++m)
                addScore(m, ev.scores[m]);
        }
        return done;
    }
};

/** Check one pass against the recorded counters; returns failed ops. */
std::uint64_t
checkPass(Result &r, const PassTally &t, std::uint64_t bundles_done,
          std::uint64_t pass)
{
    std::uint64_t failed = t.bad;
    if (t.bad != 0)
        r.fail("fig04 pass " + std::to_string(pass) + ": " + t.firstBad);
    if (bundles_done != kFig04Bundles) {
        r.fail("fig04 pass " + std::to_string(pass) + " evaluated " +
               std::to_string(bundles_done) + " bundles");
        failed += kFig04Bundles - std::min(bundles_done, kFig04Bundles);
    }
    for (std::size_t m = 0; m < std::size(kFig04Expect); ++m) {
        const char *name = kFig04Expect[m].name;
        if (t.converged[m] != kFig04Bundles) {
            r.fail(std::string("fig04 ") + name + " converged " +
                   std::to_string(t.converged[m]) + "/240");
            failed += 1;
        }
        if (t.iterations[m] != kFig04Expect[m].marketIterations) {
            r.fail(std::string("fig04 ") + name + " market iterations " +
                   std::to_string(t.iterations[m]) + " != " +
                   std::to_string(kFig04Expect[m].marketIterations));
            failed += 1;
        }
    }
    return failed;
}

/** Bundle order of pass @p pass: a seeded shuffle of the suite. */
std::vector<std::size_t>
passOrder(std::uint64_t seed, std::uint64_t pass, std::size_t n)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    InputRng rng(seed, 0xf16, pass);
    for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
    return order;
}

struct Fig04Pass
{
    Samples latency;
    /** One window per whole pass. */
    Windows windows;
    std::uint64_t ops = 0;
    std::uint64_t failed = 0;
    std::uint64_t passes = 0;
    PassTally total{std::size(kFig04Expect)};
    std::vector<std::unique_ptr<Tracer>> tracers;
};

/**
 * Run whole passes over the suite, each in a seeded bundle order on
 * pinned workers, until @p seconds elapse (at least one pass).  The
 * pass count thus follows from the run length; every per-pass counter
 * is checked and none depends on it.  Traced passes evaluate through
 * the TimedAllocator runner, with a span around each bundle.
 */
void
fig04Passes(const RunConfig &cfg, const Fig04Env &env, Result &r,
            double seconds, bool traced, Fig04Pass &out)
{
    const std::vector<int> cpus = workerCpus();
    const std::size_t workers = cpus.size();
    for (std::size_t w = 0; w < workers; ++w)
        out.tracers.push_back(std::make_unique<Tracer>());
    const eval::BundleRunner &runner =
        traced ? *env.tracedRunner : *env.runner;
    const std::size_t count = env.bundles.size();
    const std::uint64_t t0 = nowNs();
    do {
        const std::uint64_t pass = out.passes++;
        const std::vector<std::size_t> order =
            passOrder(cfg.seed, pass, count);
        const std::uint64_t op_base = out.ops;
        std::vector<eval::BundleEvaluation> evals(count);
        std::vector<Samples> lat(workers);
        const std::uint64_t cpu0 = processCpuNs();
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> pool;
        for (std::size_t w = 0; w < workers; ++w) {
            pool.emplace_back([&, w] {
                pinThread(0, cpus[w]);
                Tracer *tr = traced ? out.tracers[w].get() : nullptr;
                t_tracer = tr;
                for (;;) {
                    const std::size_t i = next.fetch_add(1);
                    if (i >= count)
                        break;
                    t_op = op_base + i;
                    const std::uint64_t s = nowNs();
                    {
                        ScopedSpan span(tr, env.bundleSpan, t_op);
                        evals[i] = runner.evaluate(env.bundles[order[i]]);
                    }
                    lat[w].add(nowNs() - s);
                }
            });
        }
        for (std::thread &t : pool)
            t.join();
        Samples pass_lat;
        for (const Samples &l : lat)
            pass_lat.append(l);
        out.windows.add(pass_lat, count, processCpuNs() - cpu0);
        out.latency.append(pass_lat);
        PassTally tally(env.mechanisms.size());
        const std::uint64_t done = tally.addEvaluations(evals);
        out.total.addEvaluations(evals);
        out.ops += count;
        out.failed += checkPass(r, tally, done, pass);
    } while (secondsSince(t0) < seconds);
    // Whole passes only, so the per-pass sums are exact.
    for (std::size_t k = 0; k < env.mechanisms.size(); ++k) {
        const std::string name = env.mechanisms[k]->name();
        r.counters["fig04.iterations_per_pass." + name] =
            out.total.iterations[k] / out.passes;
        r.counters["fig04.solves_per_pass." + name] =
            out.total.solver[k].solves / out.passes;
        r.counters["fig04.converged_per_pass." + name] =
            out.total.converged[k] / out.passes;
    }
}

std::vector<const Tracer *>
views(const std::vector<std::unique_ptr<Tracer>> &ts)
{
    std::vector<const Tracer *> v;
    for (const auto &t : ts)
        v.push_back(t.get());
    return v;
}

/** Per-layer metrics of a traced fig04 pass. */
void
fig04LayerMetrics(Result &r, const Fig04Env &env, const Fig04Pass &p)
{
    const auto spans = summarizeSpans(views(p.tracers));
    addSpanTable(r, spans);
    addSpanP50(r, "eval.problem_us", spans, "eval.problem", 1e-3, "us");
    addSpanP50(r, "eval.score_us", spans, "eval.score", 1e-3, "us");
    double all = 0.0;
    double oracle = 0.0;
    std::uint64_t rounds = 0;
    std::uint64_t elided = 0;
    std::uint64_t rebudget_calls = 0;
    SolverTotals market;
    for (std::size_t m = 0; m < env.mechanisms.size(); ++m) {
        const std::string &name = env.mechanisms[m]->name();
        const std::string span = "core.allocate." + name;
        addSpanP50(r, "core.allocate_us." + name, spans, span, 1e-3, "us");
        const auto it = spans.find(span);
        const double sum = it == spans.end() ? 0.0 : it->second.total.sumNs();
        all += sum;
        if (name == "MaxEfficiency")
            oracle += sum;
        if (p.total.rounds[m] != 0)
            rebudget_calls += p.total.calls[m];
        rounds += p.total.rounds[m];
        elided += p.total.elided[m];
        const SolverTotals &t = p.total.solver[m];
        market.solves += t.solves;
        market.sweeps += t.sweeps;
        market.steps += t.steps;
        market.warm += t.warm;
        market.failSafe += t.failSafe;
        market.solveSeconds += t.solveSeconds;
    }
    market.ops = p.ops;
    r.set("core.max_efficiency_share", all > 0 ? oracle / all : 0.0,
          "ratio", p.ops);
    r.set("core.rounds_per_allocate",
          rebudget_calls ? static_cast<double>(rounds) /
                               static_cast<double>(rebudget_calls)
                         : 0.0,
          "count", rebudget_calls);
    r.set("core.elided_share",
          rounds ? static_cast<double>(elided) / static_cast<double>(rounds)
                 : 0.0,
          "ratio", rounds);
    addMarketMetrics(r, market);
}

// --- market_scale ----------------------------------------------------------

struct ScaleEnv
{
    std::vector<eval::BundleProblem> problems;
    core::ReBudgetAllocator rb40 = core::ReBudgetAllocator::withStep(40);
    market::SolveWorkspace ws;
};

std::unique_ptr<ScaleEnv>
scaleSetup(Tracer *tr)
{
    warmCatalog(tr);
    auto env = std::make_unique<ScaleEnv>();
    static const std::uint32_t kProblem = Tracer::nameId("eval.problem");
    for (const RosterExpect &e : kScaleExpect) {
        ScopedSpan s(tr, kProblem, 0);
        env->problems.push_back(
            eval::makeSyntheticBundleProblem(kScalePlayers, e.rosterSeed));
    }
    for (auto &bp : env->problems)
        bp.problem.workspace = &env->ws;
    return env;
}

struct ScalePass
{
    Samples latency;
    Windows windows;
    std::uint64_t ops = 0;
    std::uint64_t failed = 0;
    SolverTotals market;
    std::uint64_t rounds = 0;
    std::uint64_t elided = 0;
    Tracer tracer;
};

void
scalePasses(const RunConfig &cfg, ScaleEnv &env, Result &r, double seconds,
            bool traced, ScalePass &out)
{
    static const std::uint32_t kAlloc =
        Tracer::nameId("core.allocate.ReBudget-40");
    static const std::uint32_t kOp = Tracer::nameId("market_scale.op");
    const std::size_t rosters = env.problems.size();
    // The last worker CPU: CPU 0 takes most device interrupts.
    pinThread(0, workerCpus().back());
    std::vector<std::size_t> order(rosters);
    const std::uint64_t t0 = nowNs();
    std::uint64_t cycle = 0;
    // Windows close on cycle boundaries once a tenth of the run passed.
    const auto window_ns = static_cast<std::uint64_t>(seconds * 1e9 /
                                                      kWindows);
    Samples win_lat;
    std::uint64_t win_start = t0;
    std::uint64_t win_cpu = processCpuNs();
    std::uint64_t win_ops = 0;
    do {
        for (std::size_t i = 0; i < rosters; ++i)
            order[i] = i;
        InputRng rng(cfg.seed, 0x5ca1e, cycle++);
        for (std::size_t i = rosters; i > 1; --i)
            std::swap(order[i - 1], order[rng.below(i)]);
        for (const std::size_t k : order) {
            const std::uint64_t op = out.ops++;
            const std::uint64_t s = nowNs();
            core::AllocationOutcome o;
            if (traced) {
                ScopedSpan span(&out.tracer, kOp, op);
                ScopedSpan inner(&out.tracer, kAlloc, op);
                o = env.rb40.allocate(env.problems[k].problem);
            } else {
                o = env.rb40.allocate(env.problems[k].problem);
            }
            out.latency.add(nowNs() - s);
            win_lat.add(nowNs() - s);
            win_ops += 1;
            accumulate(out.market, o.stats);
            out.rounds += static_cast<std::uint64_t>(o.stats.budgetRounds);
            out.elided += static_cast<std::uint64_t>(o.stats.elidedRescales);
            const RosterExpect &e = kScaleExpect[k];
            const auto solves =
                static_cast<std::uint64_t>(o.stats.equilibriumSolves);
            const auto sweeps =
                static_cast<std::uint64_t>(o.stats.sweepIterations);
            const auto rounds =
                static_cast<std::uint64_t>(o.stats.budgetRounds);
            if (!o.status.ok() || solves != e.solves ||
                sweeps != e.sweeps || rounds != e.rounds ||
                o.converged != e.converged) {
                out.failed += 1;
                r.fail("market_scale roster " +
                       std::to_string(e.rosterSeed) + ": status " +
                       o.status.toString() + " solves " +
                       std::to_string(solves) + " sweeps " +
                       std::to_string(sweeps) + " rounds " +
                       std::to_string(rounds) + " converged " +
                       (o.converged ? "true" : "false"));
            }
        }
        if (nowNs() - win_start >= window_ns) {
            out.windows.add(win_lat, win_ops, processCpuNs() - win_cpu);
            win_lat = Samples();
            win_ops = 0;
            win_start = nowNs();
            win_cpu = processCpuNs();
        }
    } while (secondsSince(t0) < seconds);
    out.windows.add(win_lat, win_ops, processCpuNs() - win_cpu);
    out.market.ops = out.ops;
}

} // namespace

// --- shared helpers --------------------------------------------------------

double
warmCatalog(Tracer *tr)
{
    static const std::uint32_t kProfile = Tracer::nameId("app.profile");
    static const std::uint32_t kModel = Tracer::nameId("eval.model_build");
    const std::uint64_t t0 = nowNs();
    {
        ScopedSpan s(tr, kProfile, 0);
        app::catalogProfiles();
    }
    for (const auto &p : app::spec24Catalog()) {
        ScopedSpan s(tr, kModel, 0);
        (void)eval::sharedCatalogModel(p.name, true);
    }
    return secondsSince(t0);
}

void
addMarketMetrics(Result &r, const SolverTotals &t)
{
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    r.set("market.solves", d(t.solves), "count", t.ops);
    r.set("market.sweeps_per_solve", ratio(d(t.sweeps), d(t.solves)),
          "count", t.solves);
    r.set("market.steps_per_sweep", ratio(d(t.steps), d(t.sweeps)),
          "count", t.sweeps);
    r.set("market.ns_per_sweep", ratio(t.solveSeconds * 1e9, d(t.sweeps)),
          "ns", t.sweeps);
    r.set("market.warm_share", ratio(d(t.warm), d(t.solves)), "ratio",
          t.solves);
    r.set("market.fail_safe_trips", d(t.failSafe), "count", t.solves);
}

void
addSpanP50(Result &r, const std::string &metric,
           const std::map<std::string, SpanSummary> &spans,
           const std::string &span, double scale, const std::string &unit)
{
    const auto it = spans.find(span);
    if (it == spans.end() || it->second.total.size() == 0)
        return;
    r.set(metric, it->second.total.quantileNs(0.5) * scale, unit,
          it->second.total.size());
}

void
addSpanTable(Result &r, const std::map<std::string, SpanSummary> &spans)
{
    for (const auto &[name, sum] : spans) {
        char line[128];
        std::snprintf(line, sizeof(line), "n=%zu p50_us=%.3f self_p50_us=%.3f",
                      sum.total.size(), sum.total.quantileNs(0.5) * 1e-3,
                      sum.self.quantileNs(0.5) * 1e-3);
        r.info["span " + name] = line;
    }
}

void
setupLayerMetrics(Result &r, const Tracer &tr)
{
    const auto spans = summarizeSpans({&tr});
    addSpanTable(r, spans);
    addSpanP50(r, "app.profile_s", spans, "app.profile", 1e-9, "s");
    addSpanP50(r, "eval.model_build_ms", spans, "eval.model_build", 1e-6,
               "ms");
    addSpanP50(r, "workloads.suite_ms", spans, "workloads.suite", 1e-6,
               "ms");
}

double
inprocSetupOnly(const RunConfig &cfg)
{
    if (cfg.workload == "fig04_sweep")
        fig04Setup(nullptr);
    else
        scaleSetup(nullptr);
    return secondsSince(g_startNs);
}

namespace {

/** setup_s over kSetups cold starts: this process's own plus
 * kSetups - 1 fresh child processes. */
void
setSetupMetric(const RunConfig &cfg, Result &r, double own)
{
    std::vector<double> setups = {own};
    for (int i = 1; i < kSetups; ++i) {
        const double s = childSetupSeconds(cfg);
        if (s < 0) {
            r.fail("setup child process failed");
            continue;
        }
        setups.push_back(s);
    }
    r.set("setup_s", median(setups), "s", setups.size());
}

} // namespace

Result
runFig04(const RunConfig &cfg)
{
    Result r;
    Tracer setup_tr;
    const auto env = fig04Setup(cfg.trace ? &setup_tr : nullptr);
    const double own_setup = secondsSince(g_startNs);
    {
        // One checked but untimed pass: caches and lazy state warm up
        // before anything is measured.
        Fig04Pass warm;
        fig04Passes(cfg, *env, r, 0.0, false, warm);
        r.attempted += warm.ops;
        r.failed += warm.failed;
    }
    if (!cfg.trace) {
        Fig04Pass p;
        const std::uint64_t t0 = nowNs();
        fig04Passes(cfg, *env, r, cfg.seconds, false, p);
        const double wall = secondsSince(t0);
        SolverTotals all;
        for (const SolverTotals &t : p.total.solver) {
            all.solves += t.solves;
            all.failSafe += t.failSafe;
        }
        setEndToEnd(r, p.latency, p.ops, wall, p.windows,
                    convergedShare(all));
        r.attempted += p.ops;
        r.failed += p.failed;
        setSetupMetric(cfg, r, own_setup);
        return r;
    }
    // Traced: an untraced half, then a traced half of the same work;
    // the p50 difference is the tracing overhead.
    Fig04Pass plain;
    const std::uint64_t t0 = nowNs();
    fig04Passes(cfg, *env, r, cfg.seconds / 2, false, plain);
    setTail(r, plain.latency, plain.ops, secondsSince(t0));
    Fig04Pass traced;
    fig04Passes(cfg, *env, r, cfg.seconds / 2, true, traced);
    r.attempted += plain.ops + traced.ops;
    r.failed += plain.failed + traced.failed;
    setupLayerMetrics(r, setup_tr);
    fig04LayerMetrics(r, *env, traced);
    r.set("trace.overhead_us",
          (traced.latency.quantileNs(0.5) - plain.latency.quantileNs(0.5)) *
              1e-3,
          "us", traced.latency.size());
    auto tv = views(traced.tracers);
    tv.push_back(&setup_tr);
    writeSpans(tv, "spans.tsv", 200000);
    return r;
}

Result
probeFig04(const RunConfig &cfg)
{
    // A short traced slice of the suite on this thread.  evaluate() runs
    // as in traced passes; the eval calls it makes are timed from
    // outside on the same bundle: makeBundleProblem once more, and
    // scoreOutcome on each outcome evaluate() kept.
    Result r;
    Tracer setup_tr;
    const auto env = fig04Setup(&setup_tr);
    eval::BundleRunnerOptions keep;
    keep.keepOutcomes = true;
    const eval::BundleRunner runner(env->timedMechanisms, keep);
    const std::uint32_t kProblem = Tracer::nameId("eval.problem");
    const std::uint32_t kScore = Tracer::nameId("eval.score");
    Fig04Pass p;
    p.tracers.push_back(std::make_unique<Tracer>());
    Tracer &tr = *p.tracers[0];
    const std::vector<std::size_t> order =
        passOrder(cfg.seed, 0, env->bundles.size());
    std::vector<eval::BundleEvaluation> evals;
    t_tracer = &tr;
    for (std::uint64_t op = 0; op < kProbeBundles; ++op) {
        const workloads::Bundle &b = env->bundles[order[op]];
        t_op = op;
        eval::BundleEvaluation ev;
        {
            ScopedSpan s(&tr, env->bundleSpan, op);
            ev = runner.evaluate(b);
        }
        eval::BundleProblem bp;
        {
            ScopedSpan s(&tr, kProblem, op);
            bp = eval::makeBundleProblem(b.appNames);
        }
        for (const core::AllocationOutcome &o : ev.outcomes) {
            ScopedSpan s(&tr, kScore, op);
            (void)eval::scoreOutcome(bp.problem, o);
        }
        evals.push_back(std::move(ev));
    }
    t_tracer = nullptr;
    p.total.addEvaluations(evals);
    p.ops = kProbeBundles;
    if (p.total.bad != 0)
        r.fail("fig04 probe: " + p.total.firstBad);
    setupLayerMetrics(r, setup_tr);
    fig04LayerMetrics(r, *env, p);
    writeSpans(views(p.tracers), "spans-probe-fig04.tsv", 200000);
    r.attempted = p.ops;
    r.failed = p.total.bad;
    return r;
}

Result
runMarketScale(const RunConfig &cfg)
{
    Result r;
    Tracer setup_tr;
    const auto env = scaleSetup(cfg.trace ? &setup_tr : nullptr);
    const double own_setup = secondsSince(g_startNs);
    {
        ScalePass warm; // one checked, untimed cycle
        scalePasses(cfg, *env, r, 0.0, false, warm);
        r.attempted += warm.ops;
        r.failed += warm.failed;
    }
    if (!cfg.trace) {
        ScalePass p;
        const std::uint64_t t0 = nowNs();
        scalePasses(cfg, *env, r, cfg.seconds, false, p);
        const double wall = secondsSince(t0);
        setEndToEnd(r, p.latency, p.ops, wall, p.windows,
                    convergedShare(p.market));
        r.attempted += p.ops;
        r.failed += p.failed;
        // Whole cycles ran, so these per-cycle sums are exact.
        const std::uint64_t cycles =
            std::max<std::uint64_t>(p.ops / env->problems.size(), 1);
        r.counters["market_scale.solves_per_cycle"] = p.market.solves / cycles;
        r.counters["market_scale.sweeps_per_cycle"] = p.market.sweeps / cycles;
        r.counters["market_scale.rounds_per_cycle"] = p.rounds / cycles;
        setSetupMetric(cfg, r, own_setup);
        return r;
    }
    ScalePass plain;
    const std::uint64_t t0 = nowNs();
    scalePasses(cfg, *env, r, cfg.seconds / 2, false, plain);
    setTail(r, plain.latency, plain.ops, secondsSince(t0));
    ScalePass traced;
    scalePasses(cfg, *env, r, cfg.seconds / 2, true, traced);
    r.attempted += plain.ops + traced.ops;
    r.failed += plain.failed + traced.failed;
    setupLayerMetrics(r, setup_tr);
    {
        const auto spans = summarizeSpans({&traced.tracer});
        addSpanTable(r, spans);
        addSpanP50(r, "core.allocate_us.ReBudget-40", spans,
                   "core.allocate.ReBudget-40", 1e-3, "us");
        addSpanP50(r, "eval.problem_us", summarizeSpans({&setup_tr}),
                   "eval.problem", 1e-3, "us");
        r.set("core.max_efficiency_share", 0.0, "ratio", traced.ops);
        r.set("core.rounds_per_allocate",
              static_cast<double>(traced.rounds) /
                  static_cast<double>(std::max<std::uint64_t>(traced.ops, 1)),
              "count", traced.ops);
        r.set("core.elided_share",
              traced.rounds ? static_cast<double>(traced.elided) /
                                  static_cast<double>(traced.rounds)
                            : 0.0,
              "ratio", traced.rounds);
        addMarketMetrics(r, traced.market);
    }
    r.set("trace.overhead_us",
          (traced.latency.quantileNs(0.5) - plain.latency.quantileNs(0.5)) *
              1e-3,
          "us", traced.latency.size());
    writeSpans({&traced.tracer, &setup_tr}, "spans.tsv", 200000);
    return r;
}

} // namespace perfbench
