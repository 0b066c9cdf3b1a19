#ifndef REBUDGET_SERVE_SHARD_H_
#define REBUDGET_SERVE_SHARD_H_

/**
 * @file
 * One shard of the market-serving daemon: a set of independent markets
 * that solve together on each epoch tick.
 *
 * Markets are hashed onto shards by market id (see ServerCore), so a
 * shard owns every request and every solve for its markets.  Mutating
 * requests and ticking both run under the shard's own mutex: the
 * write path (socket thread) and the tick path (thread-pool worker)
 * interleave safely, while distinct shards never contend.  Within a
 * tick, markets solve in ascending id order -- combined with
 * util::ThreadPool::parallelFor's determinism contract (shard state is
 * only touched by the worker that owns the shard's index), the whole
 * daemon's tick output is byte-identical at any --jobs value.
 *
 * Reads take no lock at all.  readAllocation() resolves the market
 * through a fixed-capacity insert-only atomic index (open addressing;
 * entries are never deleted, so a published pointer stays valid for
 * the shard's lifetime) and pins the market's published result slot
 * through a util::SnapshotSeqLock, copying the snapshot into a
 * caller-owned reply whose buffers are reused across calls.  A read
 * therefore never blocks behind an in-flight solve, never tears
 * (solves flip to the other slot and wait out pinned readers before
 * reusing one), and performs zero heap allocations once the reply has
 * grown to the market's shape.  tests/serve/snapshot_hammer_test.cpp
 * runs this path against a ticking core under TSan.
 *
 * Warm-start discipline (the reason this daemon exists): each market
 * keeps two EquilibriumResult slots and ping-pongs between them, so
 * tick T+1 warm-starts from tick T's converged equilibrium with zero
 * copies; a roster change (join/leave) re-keys the surviving tenants'
 * rows through market::migrateEquilibriumInto instead of dropping the
 * chain.  After the first solve at a given roster, the tick path
 * performs zero heap allocations per market per tick
 * (findEquilibriumInto's workspace-reuse contract); bench/perf_serve
 * audits this per shard via ServeConfig::allocCounter.
 */

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "rebudget/eval/problem_builder.h"
#include "rebudget/market/market.h"
#include "rebudget/serve/protocol.h"
#include "rebudget/sim/watchdog.h"
#include "rebudget/util/matrix.h"
#include "rebudget/util/seqlock.h"
#include "rebudget/util/solver_stats.h"

namespace rebudget::serve {

/** Admission cap: markets per shard. */
inline constexpr std::size_t kMaxMarketsPerShard = 1024;
/** Admission cap: players per market. */
inline constexpr std::size_t kMaxPlayersPerMarket = 1024;

/**
 * Daemon-wide tuning shared by every shard.  Every hosted market has
 * the paper's machine shape (eval::ProblemBuilder::Config{}) and the
 * default sim::ConvergenceWatchdog.
 */
struct ServeConfig
{
    /** Number of shards (markets hash onto them by id). */
    std::size_t shards = 4;
    /** Tick worker threads; 0 = REBUDGET_JOBS env, else hardware. */
    unsigned jobs = 0;
    /** Market tuning applied to every hosted market. */
    market::MarketConfig market;
    /**
     * Optional allocation-counter hook for the zero-alloc audit: when
     * set, each shard samples it immediately before and after its tick
     * body (which runs on a single thread) and attributes the delta to
     * the shard.  bench/perf_serve points this at a thread-local
     * counter bumped by its operator-new override; production builds
     * leave it null.
     */
    std::int64_t (*allocCounter)() = nullptr;
};

/** One tenant of a serialized market image: identity, the catalog app
 * backing its utility model, and its current demand weight. */
struct TenantState
{
    std::uint64_t tenant = 0;
    std::string app;
    double weight = 1.0;
};

/**
 * Serializable image of one hosted market's durable state: the roster
 * (identity + app + demand weight per tenant) and the published
 * equilibrium, including the bid matrix that seeds the next warm
 * solve.  Shard::exportState captures it, Shard::restoreMarket
 * rebuilds a market from it, and serve/persist.h is the snapshot
 * codec between the two.
 *
 * The fields mirror exactly what Shard::digest folds plus what the
 * warm chain feeds forward (bids, budgets), so a restored market
 * reproduces both the pre-crash digest and, bit-for-bit, the next
 * tick's solve.  Wall-clock solver fields (solveSeconds etc.) are
 * deliberately absent: they feed nothing forward.
 */
struct MarketState
{
    std::uint64_t id = 0;
    /** Current roster, dense player order. */
    std::vector<TenantState> tenants;
    /** A published slot exists (GetAllocation serves it). */
    bool published = false;
    /** The published slot is a real equilibrium usable as a warm
     * seed (false for watchdog-fallback publications). */
    bool warmValid = false;
    /** Roster the published equilibrium was solved on; may lag
     * `tenants` when churn arrived after the last tick. */
    std::vector<std::uint64_t> allocTenants;
    /** Epoch the published slot was solved at. */
    std::uint64_t tick = 0;
    std::uint64_t iterations = 0;
    bool converged = false;
    bool approximated = false;
    std::vector<double> prices;
    std::vector<double> budgets;
    std::vector<double> lambdas;
    /** Published allocation, [player][resource] of allocTenants. */
    util::Matrix<double> alloc;
    /** Published bids (warm-start seed); empty for fallback slots. */
    util::Matrix<double> bids;
};

/** Counters a shard exports alongside its solver telemetry. */
struct ShardCounters
{
    std::int64_t marketsCreated = 0;
    std::int64_t requestsApplied = 0;
    std::int64_t requestsRejected = 0;
    std::int64_t ticksRun = 0;
    /** Ticks on which every market warm-started (no roster change, no
     * cold solve) -- the regime the zero-alloc contract covers. */
    std::int64_t steadyTicks = 0;
    /** Heap allocations sampled during steady ticks (audit hook). */
    std::int64_t steadyTickAllocs = 0;
    /** Heap allocations sampled during non-steady (warm-up) ticks. */
    std::int64_t warmupTickAllocs = 0;
};

/** A set of markets solving on a shared epoch tick. */
class Shard
{
  public:
    /** Out-of-line definitions: MarketEntry is incomplete here. */
    Shard(std::size_t index, const ServeConfig &config);
    ~Shard();

    Shard(const Shard &) = delete;
    Shard &operator=(const Shard &) = delete;

    /**
     * Apply one market-scoped request (CreateMarket, SubmitDemand,
     * JoinTenant, LeaveTenant, GetAllocation) and build its reply.
     * Admission failures and malformed values come back as typed
     * ErrorReply; the shard's other markets are never affected.
     * Thread-safe against tick().  GetAllocation routes through
     * readAllocation() and never takes the shard mutex.
     */
    Response apply(const Request &req);

    /**
     * Lock-free snapshot read: copy the market's latest published
     * equilibrium into @p out.  Returns true on success; on failure
     * (unknown market, or no allocation published yet) fills @p err
     * and returns false.  @p out's buffers are reused across calls,
     * so a caller polling markets of stable shape performs zero heap
     * allocations per read after the first.  Safe from any thread,
     * concurrent with tick() and with mutating apply() calls; never
     * blocks behind an in-flight solve.
     */
    bool readAllocation(const GetAllocation &req, AllocationReply &out,
                        ErrorReply &err) const;

    /**
     * Run one epoch: re-derive budgets from the current demand weights
     * and solve every market, warm-started from its previous
     * equilibrium (or a migrated seed after roster churn).  Thread-safe
     * against apply(); distinct shards tick independently.
     */
    void tick(std::uint64_t epoch);

    /** @return the number of markets currently hosted. */
    std::size_t marketCount() const;

    /** Snapshot of the shard's counters (thread-safe). */
    ShardCounters counters() const;

    /** Merged solver telemetry across the shard's markets. */
    util::SolverStats solverStats() const;

    /**
     * Fold the shard's published state into an FNV-1a digest: market
     * ids, rosters and the bitwise doubles of budgets, prices, lambdas
     * and allocations, in ascending market-id order.  Wall-clock timer
     * fields are excluded, so the digest is identical across runs and
     * --jobs values for the same request trace.
     */
    std::uint64_t digest(std::uint64_t h) const;

    /**
     * Capture every hosted market as a serializable MarketState, in
     * ascending market-id order (the snapshot path).  Runs under the
     * shard mutex, so the image is a consistent point between ticks
     * and mutating ops.  @p out is cleared and reused.
     */
    void exportState(std::vector<MarketState> &out) const;

    /**
     * Rebuild one market from a snapshot image (the recovery path).
     * Re-creates the roster and utility models, installs the published
     * equilibrium into a snapshot slot (readers serve it immediately)
     * and re-arms the warm-start chain, so the first post-restore tick
     * is a warm solve that matches the uncrashed daemon's next tick
     * bit-for-bit.  Fails (typed, never fatal) on admission-cap
     * violations, duplicate markets/tenants, unknown catalog apps or
     * shape mismatches between roster and equilibrium -- corrupted
     * snapshots degrade to "market skipped", not a crash.
     */
    util::SolveStatus restoreMarket(const MarketState &st);

  private:
    struct MarketEntry;

    /**
     * One slot of the lock-free market index: open addressing keyed by
     * market id.  Insert-only (markets are never destroyed while the
     * shard lives): the writer stores the key, then the pointer with
     * release order; a reader that observes the pointer with acquire
     * order therefore also observes the key and a fully-constructed
     * entry.  An empty slot has ptr == nullptr.
     */
    struct IndexSlot
    {
        std::atomic<std::uint64_t> key{0};
        std::atomic<MarketEntry *> ptr{nullptr};
    };

    /** Internal counters: relaxed atomics, because the lock-free read
     * path bumps applied/rejected concurrently with everything else. */
    struct AtomicCounters
    {
        std::atomic<std::int64_t> marketsCreated{0};
        std::atomic<std::int64_t> requestsApplied{0};
        std::atomic<std::int64_t> requestsRejected{0};
        std::atomic<std::int64_t> ticksRun{0};
        std::atomic<std::int64_t> steadyTicks{0};
        std::atomic<std::int64_t> steadyTickAllocs{0};
        std::atomic<std::int64_t> warmupTickAllocs{0};
    };

    /** Build @p out for a new market @p id of @p tenants, or say why
     * the shard cannot host it (id taken, a cap, a tenant listed
     * twice, an unknown app): CreateMarket and restore share it. */
    util::SolveStatus newEntry(std::uint64_t id,
                               const std::vector<TenantState> &tenants,
                               std::unique_ptr<MarketEntry> &out) const;
    Response doCreate(const CreateMarket &req);
    Response doDemand(const SubmitDemand &req);
    Response doJoin(const JoinTenant &req);
    Response doLeave(const LeaveTenant &req);
    void tickMarket(MarketEntry &entry, std::uint64_t epoch);
    void installFallback(MarketEntry &entry, std::uint64_t epoch);
    /** Reshape one snapshot slot for the current roster under the
     * write gate (no-op once shaped).  Warm-up ticks only. */
    static void shapeSlot(MarketEntry &entry, int slot,
                          std::size_t tenants, std::size_t resources);

    /** Take ownership of a fully built @p entry and publish it. */
    void host(std::unique_ptr<MarketEntry> entry);
    /** Publish @p entry under @p market in the lock-free index.  Called
     * under mutex_ (single writer); the table never fills because the
     * admission cap is half its capacity. */
    void indexInsert(std::uint64_t market, MarketEntry *entry);
    /** Wait-free index probe; returns nullptr when absent. */
    const MarketEntry *indexLookup(std::uint64_t market) const;

    std::size_t index_;
    const ServeConfig *config_;
    /** Guards roster state and the solve path (mutating requests and
     * ticks); never taken by readAllocation(). */
    mutable std::mutex mutex_;
    /** Guards stats_ only, so GetStats never waits out a solve. */
    mutable std::mutex statsMutex_;
    std::map<std::uint64_t, std::unique_ptr<MarketEntry>> markets_;
    std::vector<IndexSlot> slots_;
    std::uint64_t slotMask_ = 0;
    std::atomic<std::size_t> marketCount_{0};
    /** mutable: the const lock-free read path counts its requests. */
    mutable AtomicCounters counters_;
    util::SolverStats stats_;
};

} // namespace rebudget::serve

#endif // REBUDGET_SERVE_SHARD_H_
