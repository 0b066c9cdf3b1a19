/**
 * perf_serve -- closed-loop throughput bench for the serving stack.
 *
 * Stands up an in-process serve::ServerCore (the exact engine behind
 * rebudgetd, no sockets), populates it with --markets independent
 * catalog-app markets spread over --shards shards, then drives epoch
 * ticks with deterministic per-tick demand perturbations and measures
 * sustained tick and solve throughput.
 *
 * Like bench/perf_equilibrium, this binary overrides operator new --
 * here bumping a THREAD-LOCAL counter wired into
 * serve::ServeConfig::allocCounter, so each shard samples exactly the
 * allocations made by its own tick body (which runs on a single
 * thread-pool worker).  After the warm-up ticks the bench enforces the
 * serving-path contract and exits fatally on violation:
 *
 *  - steady_tick_allocs == 0 on every shard (warm-start chains plus
 *    workspace reuse mean the tick path never touches the heap), and
 *  - zero cold-started solves during the measured window (every market
 *    re-solves from its previous equilibrium).
 *
 * Output: one rebudget.perf_serve.v1 JSON object on stdout.
 *
 * Part B (--capacity / --capacity-smoke): the read-path capacity
 * sweep.  For each (markets x players x readers) row a fresh core is
 * populated and warmed, then one ticker thread re-solves every epoch
 * continuously while N reader threads hammer GetAllocation on a
 * seeded market schedule.  Every reply is checked for tearing
 * (roster size, per-tenant row width, budget mass, per-market tick
 * monotonicity); any violation, read error, steady-tick allocation or
 * cold solve in the measured window is fatal.  Output is one
 * rebudget.serve_bench.v1 JSON object (stdout or --out FILE), gated
 * against the committed BENCH_serve.json by tools/bench_compare.py.
 *
 * Part C (--recovery / --recovery-smoke): the durability-cost section.
 * A populated, warmed core is snapshotted (timed), then driven through
 * a journaled steady window and an identical unjournaled window so the
 * per-op journal overhead is a measured ratio, not a guess.  A tail of
 * journal-only writes is then "crashed" (the core is simply dropped)
 * and recovered into a fresh core (timed); the recovered digest must
 * match the live core's bit for bit, and steady ticks must stay
 * allocation-free WITH journaling attached -- both violations are
 * fatal.  Output is one rebudget.serve_recovery.v1 JSON object, gated
 * against the committed BENCH_serve_recovery.json.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "rebudget/eval/bundle_runner.h"
#include "rebudget/serve/persist.h"
#include "rebudget/serve/server_core.h"
#include "rebudget/util/arg_parse.h"
#include "rebudget/util/logging.h"
#include "rebudget/util/rng.h"
#include "rebudget/util/solver_stats.h"

// ---------------------------------------------------------------------
// Thread-local heap allocation counter.  Each serve::Shard::tick runs
// on one thread and samples the hook before/after, so the delta it
// sees is precisely its own tick body's allocations -- concurrent
// shards on other workers never pollute it.
// ---------------------------------------------------------------------

namespace {
thread_local std::int64_t t_heap_allocs = 0;

std::int64_t
threadAllocCount()
{
    return t_heap_allocs;
}

void *
countedAlloc(std::size_t size)
{
    t_heap_allocs += 1;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t size, std::size_t align)
{
    t_heap_allocs += 1;
    if (align < sizeof(void *))
        align = sizeof(void *);
    void *p = nullptr;
    if (posix_memalign(&p, align, size ? size : 1) == 0)
        return p;
    throw std::bad_alloc();
}
} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

// The nothrow forms too: std::stable_sort (catalog profiling) takes
// its temporary buffer from one and returns it through the sized
// delete below, so a library nothrow new would pair with free().
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    t_heap_allocs += 1;
    return std::malloc(size ? size : 1);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    t_heap_allocs += 1;
    return std::malloc(size ? size : 1);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, static_cast<std::size_t>(align));
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, static_cast<std::size_t>(align));
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

using namespace rebudget;

namespace {

std::uint64_t
parseFlag(const char *flag, const char *value, std::uint64_t max)
{
    const auto parsed = util::parseUnsigned(value, max);
    if (!parsed.ok())
        util::fatal("%s: %s", flag, parsed.status().message().c_str());
    return parsed.value();
}

// ---------------------------------------------------------------------
// Part B: read-path capacity sweep.
// ---------------------------------------------------------------------

/** Latency samples recorded per reader (beyond this reads still count
 * toward throughput, but stop being sampled). */
constexpr std::size_t kReadSampleCap = std::size_t{1} << 18;

struct CapacitySpec
{
    std::size_t markets = 0;
    std::size_t players = 0;
    std::size_t readers = 0;
};

struct ReaderStats
{
    std::uint64_t reads = 0;
    std::uint64_t readErrors = 0;
    std::uint64_t tornReads = 0;
    /** Per-read latency samples, nanoseconds. */
    std::vector<double> samplesNs;
    /** Last tick observed per market (monotonicity check). */
    std::vector<std::uint64_t> lastTick;
};

struct CapacityResult
{
    CapacitySpec spec;
    std::uint64_t reads = 0;
    std::uint64_t readErrors = 0;
    std::uint64_t tornReads = 0;
    std::uint64_t ticks = 0;
    double elapsed = 0.0;
    double p50Ns = 0.0;
    double p99Ns = 0.0;
    double maxNs = 0.0;
    std::int64_t steadyAllocs = 0;
    std::int64_t coldSolves = 0;
    /** Markets whose oscillation was frozen during validation
     * (informational; machine-dependent only through FP flags). */
    std::uint64_t frozenMarkets = 0;
};

/** One reader's closed loop: GetAllocation on a seeded market schedule
 * until the stop flag rises, validating every reply for tearing.  Uses
 * the production lock-free path (ServerCore::readAllocation) with a
 * reused reply, the same way the socket transport serves reads -- so
 * after the first lap the loop itself performs zero heap allocations
 * and the numbers measure the serving plane, not the harness. */
void
readerLoop(serve::ServerCore &core, const CapacitySpec &spec,
           std::uint64_t seed, std::size_t readerIdx,
           const std::atomic<bool> &stop, ReaderStats &out)
{
    out.samplesNs.reserve(kReadSampleCap);
    out.lastTick.assign(spec.markets, 0);
    const std::uint64_t streamKey =
        util::mix64(seed ^ (0xb10cada ^ (readerIdx * 0x9e3779b97f4a7c15ull)));
    serve::AllocationReply reply;
    serve::ErrorReply err;
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t m =
            util::mix64(streamKey ^ (i * 0x2545f4914f6cdd1dull))
            % spec.markets;
        ++i;
        serve::GetAllocation req;
        req.market = m;
        const double t0 = util::monotonicSeconds();
        const bool ok = core.readAllocation(req, reply, err);
        const double dtNs = (util::monotonicSeconds() - t0) * 1e9;
        ++out.reads;
        if (out.samplesNs.size() < kReadSampleCap)
            out.samplesNs.push_back(dtNs);
        if (!ok) {
            ++out.readErrors;
            continue;
        }
        // Tearing checks: a snapshot mixing two epochs (or a solve in
        // flight) breaks one of these before it breaks anything subtle.
        bool torn = false;
        if (reply.market != m)
            torn = true;
        if (reply.players.size() != spec.players)
            torn = true;
        if (reply.prices.empty())
            torn = true;
        double budgetMass = 0.0;
        for (const serve::TenantAllocation &p : reply.players) {
            if (p.alloc.size() != reply.prices.size())
                torn = true;
            budgetMass += p.budget;
        }
        const double n = static_cast<double>(spec.players);
        if (budgetMass < n - 1e-6 * n || budgetMass > n + 1e-6 * n)
            torn = true;
        if (reply.tick < out.lastTick[m])
            torn = true;
        out.lastTick[m] = reply.tick;
        if (torn)
            ++out.tornReads;
    }
}

/** Run one capacity row: populate + warm a fresh core, then measure
 * readers vs a continuously ticking writer for @p readSeconds. */
CapacityResult
runCapacityRow(const CapacitySpec &spec, const serve::ServeConfig &base,
               std::uint64_t seed, std::uint64_t warmup,
               double readSeconds)
{
    serve::ServeConfig config = base;
    config.allocCounter = &threadAllocCount;
    serve::ServerCore core(config);

    for (std::size_t m = 0; m < spec.markets; ++m) {
        const std::vector<std::string> names = eval::syntheticAppNames(
            spec.players,
            util::mix64(seed ^ (0x5e + static_cast<std::uint64_t>(m))));
        serve::CreateMarket req;
        req.market = m;
        for (std::size_t t = 0; t < names.size(); ++t)
            req.tenants.push_back({t, names[t]});
        const serve::Response resp = core.apply(req);
        if (const auto *err = std::get_if<serve::ErrorReply>(&resp))
            util::fatal("capacity: create market %zu: %s", m,
                        err->message.c_str());
    }
    // Demand model: seeded static weights, driven to a solver
    // fixpoint before measurement.  The ticker runs for wall-clock
    // time, not a fixed tick count, so any demand schedule that keeps
    // changing would eventually hit a draw the tatonnement loop never
    // settles (Part A already trips its fail-safe at --ticks 400) --
    // and a "converged" result only matches the true equilibrium
    // within tolerance, so even a two-state oscillation lets the warm
    // seed wander run over run.  Static demand closes the loop
    // exactly: once a tick re-solves every market from its own
    // published equilibrium and converges, every later solve is a
    // bit-identical rerun of that tick (same config, same warm seed),
    // so fail-safes, fallbacks and cold solves are impossible in the
    // measured window no matter how long the row runs.  This is the
    // same steady-tick regime Part A's zero-allocation gate pins.
    //
    // The validation loop certifies the fixpoint: markets whose
    // seeded draw does not settle are frozen to uniform weights, and
    // measurement starts only after several consecutive ticks in
    // which EVERY market converged.
    auto submitWeight = [&](std::size_t m, std::uint64_t tenant,
                            double w) {
        serve::SubmitDemand req;
        req.market = m;
        req.tenant = tenant;
        req.weight = w;
        const serve::Response resp = core.apply(req);
        if (std::holds_alternative<serve::ErrorReply>(resp))
            util::fatal("capacity: demand rejected on market %zu", m);
    };
    for (std::size_t m = 0; m < spec.markets; ++m)
        for (std::size_t t = 0; t < spec.players; ++t) {
            const std::uint64_t key = util::mix64(
                seed ^ 0xa11 ^ (m * 0x9e3779b97f4a7c15ull) ^ t);
            submitWeight(m, t,
                         0.25 + static_cast<double>(key % 32) / 8.0);
        }
    // 0 = seeded draw, 1 = frozen to uniform weights.
    std::vector<std::uint8_t> stage(spec.markets, 0);

    constexpr std::uint64_t kValidationCap = 300;
    constexpr std::uint32_t kCleanStreak = 4;
    std::uint64_t valTick = 0;
    std::uint32_t streak = 0;
    std::size_t frozen = 0;
    while (streak < kCleanStreak) {
        if (valTick >= kValidationCap)
            util::fatal("capacity m=%zu p=%zu r=%zu: markets did not "
                        "stabilize within %llu validation ticks",
                        spec.markets, spec.players, spec.readers,
                        static_cast<unsigned long long>(kValidationCap));
        core.tick();
        bool clean = true;
        for (std::size_t m = 0; m < spec.markets; ++m) {
            serve::GetAllocation req;
            req.market = m;
            const serve::Response resp = core.apply(req);
            const auto *reply =
                std::get_if<serve::AllocationReply>(&resp);
            if (reply != nullptr && reply->converged)
                continue;
            clean = false;
            if (stage[m] == 0) {
                for (std::size_t t = 0; t < spec.players; ++t)
                    submitWeight(m, t, 1.0);
                stage[m] = 1;
                ++frozen;
            } // stage 1: wait out the watchdog's recovery window.
        }
        streak = clean ? streak + 1 : 0;
        ++valTick;
    }
    (void)warmup; // subsumed by the validation loop above
    util::SolverStats afterWarmup;
    for (std::size_t s = 0; s < core.shardCount(); ++s)
        afterWarmup.merge(core.shard(s).solverStats());

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> ticksDone{0};
    std::vector<ReaderStats> stats(spec.readers);
    const double start = util::monotonicSeconds();
    std::thread ticker([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            core.tick();
            ticksDone.fetch_add(1, std::memory_order_relaxed);
        }
    });
    std::vector<std::thread> readers;
    readers.reserve(spec.readers);
    for (std::size_t r = 0; r < spec.readers; ++r)
        readers.emplace_back(readerLoop, std::ref(core), std::cref(spec),
                             seed, r, std::cref(stop), std::ref(stats[r]));
    std::this_thread::sleep_for(std::chrono::duration<double>(readSeconds));
    stop.store(true, std::memory_order_relaxed);
    for (std::thread &th : readers)
        th.join();
    ticker.join();
    const double elapsed = util::monotonicSeconds() - start;

    CapacityResult row;
    row.spec = spec;
    row.elapsed = elapsed;
    row.frozenMarkets = frozen;
    row.ticks = ticksDone.load(std::memory_order_relaxed);
    std::vector<double> all;
    for (const ReaderStats &s : stats) {
        row.reads += s.reads;
        row.readErrors += s.readErrors;
        row.tornReads += s.tornReads;
        all.insert(all.end(), s.samplesNs.begin(), s.samplesNs.end());
    }
    if (!all.empty()) {
        std::sort(all.begin(), all.end());
        row.p50Ns = all[all.size() / 2];
        row.p99Ns = all[std::min(all.size() - 1, (all.size() * 99) / 100)];
        row.maxNs = all.back();
    }
    util::SolverStats total;
    for (std::size_t s = 0; s < core.shardCount(); ++s) {
        total.merge(core.shard(s).solverStats());
        row.steadyAllocs += core.shard(s).counters().steadyTickAllocs;
    }
    row.coldSolves = total.coldStartedSolves - afterWarmup.coldStartedSolves;

    // The same absolute gates as Part A, applied per row: a torn or
    // failed read, a steady-tick allocation or a cold solve inside the
    // measured window all mean the serving contract broke.
    if (row.readErrors != 0)
        util::fatal("capacity m=%zu p=%zu r=%zu: %llu reads failed",
                    spec.markets, spec.players, spec.readers,
                    static_cast<unsigned long long>(row.readErrors));
    if (row.tornReads != 0)
        util::fatal("capacity m=%zu p=%zu r=%zu: %llu torn reads",
                    spec.markets, spec.players, spec.readers,
                    static_cast<unsigned long long>(row.tornReads));
    if (row.steadyAllocs != 0)
        util::fatal("capacity m=%zu p=%zu r=%zu: %lld steady-tick "
                    "allocations",
                    spec.markets, spec.players, spec.readers,
                    static_cast<long long>(row.steadyAllocs));
    if (row.coldSolves != 0)
        util::fatal("capacity m=%zu p=%zu r=%zu: %lld cold solves in "
                    "the measured window",
                    spec.markets, spec.players, spec.readers,
                    static_cast<long long>(row.coldSolves));
    if (row.reads == 0)
        util::fatal("capacity m=%zu p=%zu r=%zu: no reads completed",
                    spec.markets, spec.players, spec.readers);
    return row;
}

int
runCapacitySweep(const serve::ServeConfig &config, std::uint64_t seed,
                 std::uint64_t warmup, double readSeconds, bool smoke,
                 const std::string &outPath)
{
    // The ticker loops for wall-clock time, not a fixed tick count, so
    // it sees orders of magnitude more demand draws than Part A; the
    // iteration fail-safe needs matching headroom or a rare hard draw
    // trips the watchdog warn path (which allocates) and fails the
    // zero-allocation gate spuriously.
    serve::ServeConfig cfg = config;
    if (cfg.market.maxIterations < 2000)
        cfg.market.maxIterations = 2000;

    std::vector<CapacitySpec> specs;
    if (smoke) {
        specs = {{64, 8, 4}, {512, 8, 8}};
    } else {
        for (std::size_t markets : {std::size_t{64}, std::size_t{512},
                                    std::size_t{2048}})
            for (std::size_t players : {std::size_t{4}, std::size_t{8}})
                for (std::size_t readers : {std::size_t{1}, std::size_t{4},
                                            std::size_t{8}})
                    specs.push_back({markets, players, readers});
    }

    std::vector<CapacityResult> rows;
    rows.reserve(specs.size());
    for (const CapacitySpec &spec : specs)
        rows.push_back(runCapacityRow(spec, cfg, seed, warmup,
                                      readSeconds));

    FILE *out = stdout;
    if (!outPath.empty()) {
        out = std::fopen(outPath.c_str(), "w");
        if (out == nullptr)
            util::fatal("cannot open --out file '%s'", outPath.c_str());
    }
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"schema\": \"rebudget.serve_bench.v1\",\n");
    std::fprintf(out, "  \"shards\": %llu,\n",
                 static_cast<unsigned long long>(config.shards));
    std::fprintf(out, "  \"jobs\": %u,\n", config.jobs);
    std::fprintf(out, "  \"seed\": %llu,\n",
                 static_cast<unsigned long long>(seed));
    std::fprintf(out, "  \"read_seconds\": %.3f,\n", readSeconds);
    std::fprintf(out, "  \"capacity\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const CapacityResult &r = rows[i];
        std::fprintf(out, "    {\"markets\": %zu, \"players\": %zu, "
                          "\"readers\": %zu,\n",
                     r.spec.markets, r.spec.players, r.spec.readers);
        std::fprintf(out, "     \"reads\": %llu, "
                          "\"reads_per_sec\": %.2f,\n",
                     static_cast<unsigned long long>(r.reads),
                     static_cast<double>(r.reads) / r.elapsed);
        std::fprintf(out, "     \"read_p50_ns\": %.1f, "
                          "\"read_p99_ns\": %.1f, "
                          "\"read_max_ns\": %.1f,\n",
                     r.p50Ns, r.p99Ns, r.maxNs);
        std::fprintf(out, "     \"ticks\": %llu, "
                          "\"ticks_per_sec\": %.2f,\n",
                     static_cast<unsigned long long>(r.ticks),
                     static_cast<double>(r.ticks) / r.elapsed);
        std::fprintf(out, "     \"read_errors\": %llu, "
                          "\"torn_reads\": %llu, "
                          "\"steady_tick_allocs\": %lld, "
                          "\"cold_solves\": %lld, "
                          "\"frozen_markets\": %llu}%s\n",
                     static_cast<unsigned long long>(r.readErrors),
                     static_cast<unsigned long long>(r.tornReads),
                     static_cast<long long>(r.steadyAllocs),
                     static_cast<long long>(r.coldSolves),
                     static_cast<unsigned long long>(r.frozenMarkets),
                     i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n");
    std::fprintf(out, "}\n");
    if (out != stdout)
        std::fclose(out);
    return 0;
}

// ---------------------------------------------------------------------
// Part C: durability cost + recovery fidelity.
// ---------------------------------------------------------------------

/** Total on-disk size of every shard-*.snap in @p dir (informational;
 * the gate is on counters and digests, not bytes). */
std::uint64_t
snapshotBytes(const std::string &dir, std::size_t shards)
{
    std::uint64_t total = 0;
    for (std::size_t s = 0; s < shards; ++s) {
        std::error_code ec;
        const auto size = std::filesystem::file_size(
            dir + "/shard-" + std::to_string(s) + ".snap", ec);
        if (!ec)
            total += size;
    }
    return total;
}

int
runRecoveryBench(const serve::ServeConfig &base, std::size_t markets,
                 std::size_t players, std::uint64_t seed,
                 std::uint64_t warmup, std::uint64_t window,
                 const std::string &outPath)
{
    serve::ServeConfig config = base;
    config.allocCounter = &threadAllocCount;
    // Same headroom rationale as the capacity sweep: a rare hard
    // demand draw that trips the iteration fail-safe would warn (and
    // allocate) inside the tick body, failing the zero-allocation gate
    // for a solver-tuning reason rather than a durability one.
    if (config.market.maxIterations < 2000)
        config.market.maxIterations = 2000;
    serve::ServerCore core(config);

    char tmpl[] = "/tmp/rebudget_perf_recovery_XXXXXX";
    const char *stateDir = ::mkdtemp(tmpl);
    if (stateDir == nullptr)
        util::fatal("recovery: mkdtemp failed");
    serve::PersistConfig persistConfig;
    persistConfig.dir = stateDir;
    // The daemon's default fsync cadence (data on, journal off) is a
    // property of the disk, not the code under test; the bench turns
    // data fsync off so the measured windows compare encode+append
    // cost, not device flush latency.
    persistConfig.fsyncData = false;
    serve::PersistManager persist(persistConfig, core.shardCount());
    if (!persist.init().ok())
        util::fatal("recovery: cannot create state dir %s", stateDir);

    for (std::size_t m = 0; m < markets; ++m) {
        const std::vector<std::string> names = eval::syntheticAppNames(
            players,
            util::mix64(seed ^ (0x5e + static_cast<std::uint64_t>(m))));
        serve::CreateMarket req;
        req.market = m;
        for (std::size_t t = 0; t < names.size(); ++t)
            req.tenants.push_back({t, names[t]});
        const serve::Response resp = core.apply(req);
        if (const auto *err = std::get_if<serve::ErrorReply>(&resp))
            util::fatal("recovery: create market %zu: %s", m,
                        err->message.c_str());
    }
    auto perturb = [&](std::uint64_t tick) {
        for (std::size_t m = 0; m < markets; ++m) {
            const std::uint64_t key =
                util::mix64(seed ^ (tick * 1315423911ull) ^ m);
            serve::SubmitDemand req;
            req.market = m;
            req.tenant = key % players;
            req.weight = 0.5 + static_cast<double>(key % 16) / 8.0;
            const serve::Response resp = core.apply(req);
            if (std::holds_alternative<serve::ErrorReply>(resp))
                util::fatal("recovery: demand rejected on market %zu", m);
        }
    };
    std::uint64_t tick = 0;
    for (std::uint64_t t = 0; t < warmup; ++t) {
        perturb(tick++);
        core.tick();
    }
    util::SolverStats afterWarmup;
    for (std::size_t s = 0; s < core.shardCount(); ++s)
        afterWarmup.merge(core.shard(s).solverStats());

    // Baseline snapshot (timed): also opens the per-shard journals,
    // exactly as the daemon does before attaching the journal sink.
    const double snapStart = util::monotonicSeconds();
    if (const auto st = persist.snapshotAll(core); !st.ok())
        util::fatal("recovery: snapshot failed: %s",
                    st.message().c_str());
    const double snapshotSeconds =
        util::monotonicSeconds() - snapStart;
    const std::uint64_t snapBytes =
        snapshotBytes(stateDir, core.shardCount());

    // Plain window: identical demand churn, no journal attached.
    const double plainStart = util::monotonicSeconds();
    for (std::uint64_t t = 0; t < window; ++t) {
        perturb(tick++);
        core.tick();
    }
    const double plainSeconds = util::monotonicSeconds() - plainStart;

    // Journaled window: same shape of work with the write-ahead sink
    // attached.  The ratio of the two windows is the measured cost of
    // durability on the serving path.
    core.setJournal(&persist);
    const double journaledStart = util::monotonicSeconds();
    for (std::uint64_t t = 0; t < window; ++t) {
        perturb(tick++);
        core.tick();
    }
    const double journaledSeconds =
        util::monotonicSeconds() - journaledStart;

    // Rotate, then write a journal-only tail: one demand per market
    // that no snapshot covers.  Dropping `core` unrecovered from here
    // models kill -9; instead we keep it as the fidelity reference.
    if (const auto st = persist.snapshotAll(core); !st.ok())
        util::fatal("recovery: snapshot failed: %s",
                    st.message().c_str());
    perturb(tick++);
    core.setJournal(nullptr);
    persist.syncJournals();
    const std::uint64_t journalOps = persist.journaledOps();

    // Recover into a fresh core (timed) and hold it to the contract:
    // published state matches bit for bit, and the first post-restart
    // tick -- warm chains re-seeded from the snapshot, the journaled
    // tail replayed -- matches the survivor's too.
    // Identical solver config (same iteration headroom) so the
    // post-restart tick is comparable bit for bit.
    serve::ServerCore recovered(config);
    serve::PersistManager reader(persistConfig, recovered.shardCount());
    if (!reader.init().ok())
        util::fatal("recovery: cannot reopen state dir %s", stateDir);
    const double recoverStart = util::monotonicSeconds();
    const serve::RecoveryReport report = reader.recover(recovered);
    const double recoverSeconds =
        util::monotonicSeconds() - recoverStart;

    int digestMatch = 1;
    if (recovered.digest() != core.digest()) {
        digestMatch = 0;
        util::fatal("recovery: recovered digest %016llx != live "
                    "%016llx",
                    static_cast<unsigned long long>(recovered.digest()),
                    static_cast<unsigned long long>(core.digest()));
    }
    core.tick();
    recovered.tick();
    if (recovered.digest() != core.digest()) {
        digestMatch = 0;
        util::fatal("recovery: first post-restart tick diverged "
                    "(%016llx != %016llx)",
                    static_cast<unsigned long long>(recovered.digest()),
                    static_cast<unsigned long long>(core.digest()));
    }

    // The Part A contract must survive with journaling attached: the
    // tick body never touches the heap (journal appends live on the
    // apply path), and every measured solve reuses the warm chain.
    std::int64_t steadyAllocs = 0;
    util::SolverStats total;
    for (std::size_t s = 0; s < core.shardCount(); ++s) {
        total.merge(core.shard(s).solverStats());
        steadyAllocs += core.shard(s).counters().steadyTickAllocs;
    }
    if (steadyAllocs != 0)
        util::fatal("recovery: %lld steady-tick allocations with "
                    "journaling attached",
                    static_cast<long long>(steadyAllocs));
    const std::int64_t coldSolves =
        total.coldStartedSolves - afterWarmup.coldStartedSolves;
    if (coldSolves != 0)
        util::fatal("recovery: %lld cold solves in the measured window",
                    static_cast<long long>(coldSolves));

    std::error_code ec;
    std::filesystem::remove_all(stateDir, ec);

    FILE *out = stdout;
    if (!outPath.empty()) {
        out = std::fopen(outPath.c_str(), "w");
        if (out == nullptr)
            util::fatal("cannot open --out file '%s'", outPath.c_str());
    }
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"schema\": \"rebudget.serve_recovery.v1\",\n");
    std::fprintf(out, "  \"shards\": %zu,\n", core.shardCount());
    std::fprintf(out, "  \"markets\": %zu,\n", markets);
    std::fprintf(out, "  \"players_per_market\": %zu,\n", players);
    std::fprintf(out, "  \"seed\": %llu,\n",
                 static_cast<unsigned long long>(seed));
    std::fprintf(out, "  \"warmup_ticks\": %llu,\n",
                 static_cast<unsigned long long>(warmup));
    std::fprintf(out, "  \"window_ticks\": %llu,\n",
                 static_cast<unsigned long long>(window));
    std::fprintf(out, "  \"snapshot_ms\": %.3f,\n",
                 snapshotSeconds * 1e3);
    std::fprintf(out, "  \"snapshot_bytes\": %llu,\n",
                 static_cast<unsigned long long>(snapBytes));
    std::fprintf(out, "  \"plain_window_ms\": %.3f,\n",
                 plainSeconds * 1e3);
    std::fprintf(out, "  \"journaled_window_ms\": %.3f,\n",
                 journaledSeconds * 1e3);
    std::fprintf(out, "  \"journal_overhead_pct\": %.2f,\n",
                 plainSeconds > 0.0
                     ? (journaledSeconds / plainSeconds - 1.0) * 100.0
                     : 0.0);
    std::fprintf(out, "  \"journal_ops\": %llu,\n",
                 static_cast<unsigned long long>(journalOps));
    std::fprintf(out, "  \"recover_ms\": %.3f,\n",
                 recoverSeconds * 1e3);
    std::fprintf(out, "  \"snapshots_loaded\": %llu,\n",
                 static_cast<unsigned long long>(
                     report.summary.snapshotsLoaded));
    std::fprintf(out, "  \"markets_recovered\": %llu,\n",
                 static_cast<unsigned long long>(
                     report.summary.marketsRestored));
    std::fprintf(out, "  \"ops_replayed\": %llu,\n",
                 static_cast<unsigned long long>(
                     report.summary.opsReplayed));
    std::fprintf(out, "  \"ops_skipped\": %llu,\n",
                 static_cast<unsigned long long>(
                     report.summary.opsSkipped));
    std::fprintf(out, "  \"torn_tails\": %llu,\n",
                 static_cast<unsigned long long>(
                     report.summary.journalTornTails));
    std::fprintf(out, "  \"snapshots_corrupt\": %llu,\n",
                 static_cast<unsigned long long>(
                     report.summary.snapshotsCorrupt));
    std::fprintf(out, "  \"digest_match\": %d,\n", digestMatch);
    std::fprintf(out, "  \"steady_tick_allocs\": %lld,\n",
                 static_cast<long long>(steadyAllocs));
    std::fprintf(out, "  \"cold_solves\": %lld\n",
                 static_cast<long long>(coldSolves));
    std::fprintf(out, "}\n");
    if (out != stdout)
        std::fclose(out);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::size_t markets = 64;
    std::size_t players = 8;
    std::uint64_t warmup = 5;
    std::uint64_t measured = 40;
    std::uint64_t seed = 42;
    bool capacity = false;
    bool capacitySmoke = false;
    bool recovery = false;
    double readSeconds = 0.0; // 0 = mode default (1.0 full, 0.25 smoke)
    std::string outPath;
    serve::ServeConfig config;
    config.shards = 8;
    // Randomly drawn 8-app rosters can need more tatonnement sweeps
    // than the 30-iteration default before the price fluctuation
    // settles; a fail-safe trip would (correctly) fail the bench's
    // zero-allocation gate via the warning path, so give the solver
    // the headroom that a long-running daemon deployment would.
    config.market.maxIterations = 200;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                util::fatal("%s requires a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--markets")
            markets = parseFlag("--markets", value(), 1u << 16);
        else if (arg == "--players")
            players = parseFlag("--players", value(), 1u << 10);
        else if (arg == "--shards")
            config.shards = parseFlag("--shards", value(), 1u << 10);
        else if (arg == "--jobs")
            config.jobs = static_cast<unsigned>(
                parseFlag("--jobs", value(), 1u << 12));
        else if (arg == "--warmup")
            warmup = parseFlag("--warmup", value(), 1u << 20);
        else if (arg == "--ticks")
            measured = parseFlag("--ticks", value(), 1u << 20);
        else if (arg == "--seed")
            seed = parseFlag("--seed", value(), ~0ull);
        else if (arg == "--smoke") {
            markets = 64;
            players = 8;
            warmup = 3;
            measured = 8;
        } else if (arg == "--capacity") {
            capacity = true;
        } else if (arg == "--capacity-smoke") {
            capacity = true;
            capacitySmoke = true;
        } else if (arg == "--recovery") {
            recovery = true;
        } else if (arg == "--recovery-smoke") {
            // The Part A roster (64 markets x 8 catalog apps, seed-
            // keyed) is a known-clean draw: every market converges
            // inside the iteration budget, so the zero-allocation gate
            // measures journaling, not solver luck.
            recovery = true;
            markets = 64;
            players = 8;
            warmup = 3;
            measured = 8;
        } else if (arg == "--read-seconds") {
            const auto parsed = util::parseDouble(value());
            if (!parsed.ok() || parsed.value() <= 0.0)
                util::fatal("--read-seconds requires a positive number");
            readSeconds = parsed.value();
        } else if (arg == "--out") {
            outPath = value();
        } else {
            util::fatal("unknown argument '%s'", arg.c_str());
        }
    }
    if (markets == 0 || players == 0 || measured == 0)
        util::fatal("--markets, --players and --ticks must be positive");

    if (capacity) {
        if (readSeconds == 0.0)
            readSeconds = capacitySmoke ? 0.25 : 1.0;
        return runCapacitySweep(config, seed, warmup == 0 ? 5 : warmup,
                                readSeconds, capacitySmoke, outPath);
    }
    if (recovery)
        return runRecoveryBench(config, markets, players, seed, warmup,
                                measured, outPath);

    config.allocCounter = &threadAllocCount;
    serve::ServerCore core(config);

    // Populate: market m hosts `players` catalog apps drawn from a
    // stream keyed by (seed, m), so the roster is machine- and
    // job-count-independent.
    for (std::size_t m = 0; m < markets; ++m) {
        const std::vector<std::string> names = eval::syntheticAppNames(
            players, util::mix64(seed ^ (0x5e
                                         + static_cast<std::uint64_t>(m))));
        serve::CreateMarket req;
        req.market = m;
        for (std::size_t t = 0; t < names.size(); ++t)
            req.tenants.push_back({t, names[t]});
        const serve::Response resp = core.apply(req);
        if (const auto *err = std::get_if<serve::ErrorReply>(&resp))
            util::fatal("create market %zu: %s", m, err->message.c_str());
    }

    // Deterministic demand churn: one tenant per market re-weights
    // each tick.  Budgets shift but the roster (and thus every buffer
    // shape) is fixed, so the warm chain stays intact.
    auto perturb = [&](std::uint64_t tick) {
        for (std::size_t m = 0; m < markets; ++m) {
            const std::uint64_t key =
                util::mix64(seed ^ (tick * 1315423911ull) ^ m);
            serve::SubmitDemand req;
            req.market = m;
            req.tenant = key % players;
            req.weight = 0.5 + static_cast<double>(key % 16) / 8.0;
            const serve::Response resp = core.apply(req);
            if (std::holds_alternative<serve::ErrorReply>(resp))
                util::fatal("demand update rejected on market %zu", m);
        }
    };

    for (std::uint64_t t = 0; t < warmup; ++t) {
        perturb(t);
        core.tick();
    }

    util::SolverStats after_warmup;
    for (std::size_t s = 0; s < core.shardCount(); ++s)
        after_warmup.merge(core.shard(s).solverStats());

    const double start = util::monotonicSeconds();
    for (std::uint64_t t = 0; t < measured; ++t) {
        perturb(warmup + t);
        core.tick();
    }
    const double elapsed = util::monotonicSeconds() - start;

    util::SolverStats total;
    std::int64_t steady_allocs = 0;
    std::int64_t steady_ticks = 0;
    for (std::size_t s = 0; s < core.shardCount(); ++s) {
        total.merge(core.shard(s).solverStats());
        const serve::ShardCounters c = core.shard(s).counters();
        steady_allocs += c.steadyTickAllocs;
        steady_ticks += c.steadyTicks;
        if (c.steadyTickAllocs != 0) {
            util::fatal("shard %zu allocated %lld times on steady "
                        "ticks; the serving path must be allocation-"
                        "free after warm-up",
                        s,
                        static_cast<long long>(c.steadyTickAllocs));
        }
    }
    const std::int64_t cold_measured =
        total.coldStartedSolves - after_warmup.coldStartedSolves;
    if (cold_measured != 0) {
        util::fatal("%lld cold-started solves during the measured "
                    "window; every steady-state solve must reuse the "
                    "warm chain",
                    static_cast<long long>(cold_measured));
    }
    const std::int64_t solves_measured =
        total.equilibriumSolves - after_warmup.equilibriumSolves;

    std::printf("{\n");
    std::printf("  \"schema\": \"rebudget.perf_serve.v1\",\n");
    std::printf("  \"shards\": %zu,\n", core.shardCount());
    std::printf("  \"markets\": %zu,\n", markets);
    std::printf("  \"players_per_market\": %zu,\n", players);
    std::printf("  \"warmup_ticks\": %llu,\n",
                static_cast<unsigned long long>(warmup));
    std::printf("  \"measured_ticks\": %llu,\n",
                static_cast<unsigned long long>(measured));
    std::printf("  \"elapsed_seconds\": %.6f,\n", elapsed);
    std::printf("  \"ticks_per_sec\": %.2f,\n",
                static_cast<double>(measured) / elapsed);
    std::printf("  \"solves_per_sec\": %.2f,\n",
                static_cast<double>(solves_measured) / elapsed);
    std::printf("  \"steady_ticks\": %lld,\n",
                static_cast<long long>(steady_ticks));
    std::printf("  \"steady_tick_allocs\": %lld,\n",
                static_cast<long long>(steady_allocs));
    std::printf("  \"warm_started_solves\": %lld,\n",
                static_cast<long long>(total.warmStartedSolves));
    std::printf("  \"cold_started_solves\": %lld,\n",
                static_cast<long long>(total.coldStartedSolves));
    std::printf("  \"digest\": \"%016llx\"\n",
                static_cast<unsigned long long>(core.digest()));
    std::printf("}\n");
    return 0;
}
