#include "rebudget/serve/shard.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "rebudget/util/rng.h"

namespace rebudget::serve {

namespace {

/** An ErrorReply carrying util::SolveStatus::error(code, fmt, args). */
template <typename... Args>
ErrorReply
reject(util::StatusCode code, const char *fmt, Args... args)
{
    return errorReply(util::SolveStatus::error(code, fmt, args...));
}

ErrorReply
unknownMarket(std::uint64_t market)
{
    return reject(util::StatusCode::InvalidArgument, "unknown market %llu",
                  static_cast<unsigned long long>(market));
}

ErrorReply
unknownTenant(std::uint64_t market, std::uint64_t tenant)
{
    return reject(util::StatusCode::InvalidArgument,
                  "market %llu has no tenant %llu",
                  static_cast<unsigned long long>(market),
                  static_cast<unsigned long long>(tenant));
}

/**
 * Pre-size an equilibrium slot's buffers for an n-player, m-resource
 * market.  The warm chain ping-pongs between two slots, so without
 * this the second slot would take its sizing allocations on the first
 * steady tick after a roster (re)build -- one tick after the chain is
 * already "warm" -- and break the zero-allocation contract.
 */
void
presizeResult(market::EquilibriumResult &r, std::size_t n, std::size_t m)
{
    r.alloc.resize(n, m);
    r.bids.resize(n, m);
    r.prices.resize(m);
    r.lambdas.resize(n);
    r.budgets.resize(n);
}

constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t
foldU64(std::uint64_t h, std::uint64_t v)
{
    for (int shift = 0; shift < 64; shift += 8) {
        h ^= (v >> shift) & 0xff;
        h *= kFnvPrime;
    }
    return h;
}

std::uint64_t
foldF64(std::uint64_t h, double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return foldU64(h, bits);
}

} // namespace

/**
 * One hosted market: roster, demand weights, the solver objects and the
 * two-slot warm-start chain.  All scratch buffers are sized on first
 * use and reused, so steady-state ticks allocate nothing.
 *
 * The two slots double as the read-side snapshot buffer: `gate`
 * arbitrates them between the single solver thread and any number of
 * lock-free readers.  Everything a reader touches is either immutable
 * (`id`), gate-protected slot payload (`slots`, `slotTenants`,
 * `slotTick`), or the gate itself; the remaining fields are solver
 * state owned by the shard mutex.
 */
struct Shard::MarketEntry
{
    std::uint64_t id = 0;
    /** Tenant ids in dense player order (parallel to builder models). */
    std::vector<std::uint64_t> tenants;
    /** Demand weights; budgets are n * w_i / sum(w) each tick. */
    std::vector<double> weights;
    eval::ProblemBuilder builder;
    std::vector<const market::UtilityModel *> modelPtrs;
    std::vector<double> capacities;
    std::unique_ptr<market::ProportionalMarket> market;
    market::SolveWorkspace ws;
    /** Warm-start chain and snapshot double buffer: solve into
     * slots[1-cur] after gate.beginWrite drains stale readers, flip
     * cur and gate.publish on success. */
    market::EquilibriumResult slots[2];
    /** Arbitrates the slots between the solver and lock-free reads. */
    util::SnapshotSeqLock gate;
    /** Roster each slot's allocation was computed on (read-side). */
    std::vector<std::uint64_t> slotTenants[2];
    /** Epoch each slot was published at (read-side). */
    std::uint64_t slotTick[2] = {0, 0};
    /** Slot vectors match the current roster shape (presized, so
     * steady-tick writes into them never allocate).  Both go false on
     * a roster change; each is reshaped under beginWrite before its
     * next write, all within warm-up ticks. */
    bool slotShaped[2] = {false, false};
    int cur = 0;
    /** slots[cur] is a real equilibrium usable as next tick's seed. */
    bool warmValid = false;
    /** slots[cur] is servable via GetAllocation (seed or fallback);
     * writer-side mirror of gate.frontSlot() != kNoSlot. */
    bool published = false;
    /** Migration scratch for roster-change warm seeds. */
    market::EquilibriumResult migrated;
    std::vector<std::ptrdiff_t> priorIndex;
    std::vector<double> budgets;
    /** Roster the current warm seed was solved on (migration map). */
    std::vector<std::uint64_t> solvedTenants;
    /** Set by create/join/leave; cleared once the market is rebuilt. */
    bool rosterChanged = true;
    sim::ConvergenceWatchdog watchdog;
    /** Epoch of the published allocation. */
    std::uint64_t lastTick = 0;
};

Shard::Shard(std::size_t index, const ServeConfig &config)
    : index_(index), config_(&config)
{
    // Index capacity 2x the admission cap keeps the open-addressing
    // load factor at or below one half, so probes stay short and the
    // insert loop always terminates.
    constexpr std::size_t kCap = 2 * kMaxMarketsPerShard;
    static_assert((kCap & (kCap - 1)) == 0, "index capacity is a mask");
    slots_ = std::vector<IndexSlot>(kCap);
    slotMask_ = kCap - 1;
}

Shard::~Shard() = default;

void
Shard::host(std::unique_ptr<MarketEntry> entry)
{
    MarketEntry *raw = entry.get();
    markets_.emplace(raw->id, std::move(entry));
    // Publish in the lock-free index only once the entry is fully
    // built; readers that win the race simply see "unknown market".
    indexInsert(raw->id, raw);
    marketCount_.fetch_add(1, std::memory_order_relaxed);
    counters_.marketsCreated.fetch_add(1, std::memory_order_relaxed);
}

void
Shard::indexInsert(std::uint64_t market, MarketEntry *entry)
{
    std::uint64_t h = util::mix64(market) & slotMask_;
    while (slots_[h].ptr.load(std::memory_order_relaxed) != nullptr)
        h = (h + 1) & slotMask_;
    slots_[h].key.store(market, std::memory_order_relaxed);
    slots_[h].ptr.store(entry, std::memory_order_release);
}

const Shard::MarketEntry *
Shard::indexLookup(std::uint64_t market) const
{
    std::uint64_t h = util::mix64(market) & slotMask_;
    for (;;) {
        const MarketEntry *entry =
            slots_[h].ptr.load(std::memory_order_acquire);
        if (entry == nullptr)
            return nullptr;
        if (slots_[h].key.load(std::memory_order_relaxed) == market)
            return entry;
        h = (h + 1) & slotMask_;
    }
}

Response
Shard::apply(const Request &req)
{
    if (const auto *get = std::get_if<GetAllocation>(&req)) {
        AllocationReply reply;
        ErrorReply err;
        if (readAllocation(*get, reply, err))
            return reply;
        return err;
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    Response resp;
    if (const auto *create = std::get_if<CreateMarket>(&req))
        resp = doCreate(*create);
    else if (const auto *demand = std::get_if<SubmitDemand>(&req))
        resp = doDemand(*demand);
    else if (const auto *join = std::get_if<JoinTenant>(&req))
        resp = doJoin(*join);
    else if (const auto *leave = std::get_if<LeaveTenant>(&req))
        resp = doLeave(*leave);
    else {
        ErrorReply e;
        e.code = util::StatusCode::InvalidArgument;
        e.message = "request is not market-scoped";
        resp = std::move(e);
    }
    if (std::holds_alternative<ErrorReply>(resp))
        counters_.requestsRejected.fetch_add(1,
                                             std::memory_order_relaxed);
    else
        counters_.requestsApplied.fetch_add(1,
                                            std::memory_order_relaxed);
    return resp;
}

bool
Shard::readAllocation(const GetAllocation &req, AllocationReply &out,
                      ErrorReply &err) const
{
    const MarketEntry *e = indexLookup(req.market);
    if (e == nullptr) {
        err = unknownMarket(req.market);
        counters_.requestsRejected.fetch_add(1,
                                             std::memory_order_relaxed);
        return false;
    }
    const util::SnapshotSeqLock::ReadPin pin(e->gate);
    if (!pin.valid()) {
        err = reject(util::StatusCode::FailedPrecondition,
                     "market %llu has no allocation yet (awaiting first tick)",
                     static_cast<unsigned long long>(req.market));
        counters_.requestsRejected.fetch_add(1,
                                             std::memory_order_relaxed);
        return false;
    }
    const std::uint32_t f = pin.slot();
    const market::EquilibriumResult &res = e->slots[f];
    const std::vector<std::uint64_t> &tenants = e->slotTenants[f];
    out.market = e->id;
    out.tick = e->slotTick[f];
    out.converged = res.converged;
    out.prices.assign(res.prices.begin(), res.prices.end());
    const std::size_t n = tenants.size();
    // Resize without discarding the inner vectors' capacity: shrink
    // destroys only the surplus entries, growth reuses slack, and
    // assign() below recycles each row buffer.
    if (out.players.size() > n)
        out.players.resize(n);
    while (out.players.size() < n)
        out.players.emplace_back();
    for (std::size_t i = 0; i < n; ++i) {
        TenantAllocation &t = out.players[i];
        t.tenant = tenants[i];
        t.budget = i < res.budgets.size() ? res.budgets[i] : 0.0;
        t.lambda = i < res.lambdas.size() ? res.lambdas[i] : 0.0;
        if (i < res.alloc.rows()) {
            const auto row = res.alloc[i];
            t.alloc.assign(row.begin(), row.end());
        } else {
            t.alloc.clear();
        }
    }
    counters_.requestsApplied.fetch_add(1, std::memory_order_relaxed);
    return true;
}

util::SolveStatus
Shard::newEntry(std::uint64_t id, const std::vector<TenantState> &tenants,
                std::unique_ptr<MarketEntry> &out) const
{
    const auto market = static_cast<unsigned long long>(id);
    if (markets_.count(id) != 0)
        return util::SolveStatus::error(util::StatusCode::FailedPrecondition,
                                        "market %llu already exists", market);
    if (markets_.size() >= kMaxMarketsPerShard)
        return util::SolveStatus::error(
            util::StatusCode::FailedPrecondition,
            "shard %zu is at its market cap (%zu)", index_,
            kMaxMarketsPerShard);
    if (tenants.size() > kMaxPlayersPerMarket)
        return util::SolveStatus::error(
            util::StatusCode::InvalidArgument,
            "market %llu has %zu tenants, cap is %zu", market,
            tenants.size(), kMaxPlayersPerMarket);
    out = std::make_unique<MarketEntry>();
    out->id = id;
    for (const TenantState &t : tenants) {
        if (std::find(out->tenants.begin(), out->tenants.end(), t.tenant) !=
            out->tenants.end())
            return util::SolveStatus::error(
                util::StatusCode::InvalidArgument,
                "duplicate tenant %llu in market %llu",
                static_cast<unsigned long long>(t.tenant), market);
        const auto added = out->builder.addApp(t.app);
        if (!added.ok())
            return added.status();
        out->tenants.push_back(t.tenant);
        out->weights.push_back(t.weight);
    }
    return {};
}

Response
Shard::doCreate(const CreateMarket &req)
{
    std::vector<TenantState> tenants;
    for (const TenantSpec &t : req.tenants)
        tenants.push_back({t.tenant, t.app, 1.0});
    std::unique_ptr<MarketEntry> entry;
    util::SolveStatus st = newEntry(req.market, tenants, entry);
    if (st.ok() && tenants.empty())
        st = util::SolveStatus::error(util::StatusCode::InvalidArgument,
                                      "CreateMarket needs at least one "
                                      "tenant");
    if (!st.ok())
        return errorReply(st);
    host(std::move(entry));
    return AckReply{};
}

Response
Shard::doDemand(const SubmitDemand &req)
{
    const auto it = markets_.find(req.market);
    if (it == markets_.end())
        return unknownMarket(req.market);
    MarketEntry &e = *it->second;
    if (!std::isfinite(req.weight) || req.weight <= 0.0) {
        return reject(util::StatusCode::InvalidArgument,
                      "demand weight must be a finite positive number, "
                      "got %g",
                      req.weight);
    }
    for (std::size_t i = 0; i < e.tenants.size(); ++i) {
        if (e.tenants[i] == req.tenant) {
            e.weights[i] = req.weight;
            return AckReply{};
        }
    }
    return unknownTenant(req.market, req.tenant);
}

Response
Shard::doJoin(const JoinTenant &req)
{
    const auto it = markets_.find(req.market);
    if (it == markets_.end())
        return unknownMarket(req.market);
    MarketEntry &e = *it->second;
    if (e.tenants.size() >= kMaxPlayersPerMarket) {
        return reject(util::StatusCode::FailedPrecondition,
                      "market %llu is at its player cap (%zu)",
                      static_cast<unsigned long long>(req.market),
                      kMaxPlayersPerMarket);
    }
    for (const std::uint64_t seen : e.tenants) {
        if (seen == req.tenant) {
            return reject(util::StatusCode::FailedPrecondition,
                          "tenant %llu already in market %llu",
                          static_cast<unsigned long long>(req.tenant),
                          static_cast<unsigned long long>(req.market));
        }
    }
    const auto added = e.builder.addApp(req.app);
    if (!added.ok())
        return errorReply(added.status());
    e.tenants.push_back(req.tenant);
    e.weights.push_back(1.0);
    e.rosterChanged = true;
    {
        const std::lock_guard<std::mutex> slock(statsMutex_);
        stats_.tenantsJoined += 1;
    }
    return AckReply{};
}

Response
Shard::doLeave(const LeaveTenant &req)
{
    const auto it = markets_.find(req.market);
    if (it == markets_.end())
        return unknownMarket(req.market);
    MarketEntry &e = *it->second;
    for (std::size_t i = 0; i < e.tenants.size(); ++i) {
        if (e.tenants[i] != req.tenant)
            continue;
        e.builder.removeAt(i);
        e.tenants.erase(e.tenants.begin() +
                        static_cast<std::ptrdiff_t>(i));
        e.weights.erase(e.weights.begin() +
                        static_cast<std::ptrdiff_t>(i));
        e.rosterChanged = true;
        {
            const std::lock_guard<std::mutex> slock(statsMutex_);
            stats_.tenantsDeparted += 1;
        }
        return AckReply{};
    }
    return unknownTenant(req.market, req.tenant);
}

void
Shard::tick(std::uint64_t epoch)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    // A tick is "steady" when every non-empty market will warm-start
    // from an intact chain: that is the regime the zero-allocation
    // contract covers, and the regime the audit counters below bucket
    // separately from warm-up/churn ticks.
    bool steady = true;
    for (const auto &kv : markets_) {
        const MarketEntry &e = *kv.second;
        if (e.tenants.empty())
            continue;
        if (e.rosterChanged || (!e.warmValid && !e.watchdog.inFallback()))
            steady = false;
    }
    auto *const counter = config_->allocCounter;
    const std::int64_t before = counter ? counter() : 0;
    for (auto &kv : markets_)
        tickMarket(*kv.second, epoch);
    const std::int64_t delta = counter ? counter() - before : 0;
    counters_.ticksRun.fetch_add(1, std::memory_order_relaxed);
    if (steady) {
        counters_.steadyTicks.fetch_add(1, std::memory_order_relaxed);
        counters_.steadyTickAllocs.fetch_add(delta,
                                             std::memory_order_relaxed);
    } else {
        counters_.warmupTickAllocs.fetch_add(delta,
                                             std::memory_order_relaxed);
    }
}

void
Shard::tickMarket(MarketEntry &e, std::uint64_t epoch)
{
    const std::size_t n = e.tenants.size();
    if (n == 0)
        return; // every tenant left; nothing to solve or publish

    // Budgets from demand weights: B_i = n * w_i / sum(w), so budgets
    // always sum to n (one unit per seat) and doubling your weight
    // doubles your purchasing power relative to the room.
    double wsum = 0.0;
    for (const double w : e.weights)
        wsum += w;
    e.budgets.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        e.budgets[i] = static_cast<double>(n) * e.weights[i] / wsum;

    const market::EquilibriumResult *prior = nullptr;
    if (e.rosterChanged) {
        // Rebuild the market for the new roster, then migrate the
        // surviving tenants' warm state across the shape change.  The
        // migration reads the old front slot, which concurrent readers
        // may still be pinning -- both sides only read, so that is
        // safe.  The old snapshot stays published throughout the
        // rebuild: readers keep the pre-churn allocation until the new
        // roster's first successful solve flips the buffer (the same
        // stale-until-next-tick semantics the mutexed path had).  Only
        // the back slot is reshaped before the solve; the other slot
        // is reshaped right after the flip, still inside this warm-up
        // tick, so steady ticks never touch an unshaped slot.
        const bool migrate = e.warmValid && !e.solvedTenants.empty();
        e.modelPtrs.clear();
        for (const auto &model : e.builder.models())
            e.modelPtrs.push_back(model.get());
        e.builder.capacitiesInto(e.capacities);
        e.market = std::make_unique<market::ProportionalMarket>(
            e.modelPtrs, e.capacities, config_->market);
        if (migrate) {
            e.priorIndex.resize(n);
            for (std::size_t i = 0; i < n; ++i) {
                e.priorIndex[i] = -1;
                for (std::size_t p = 0; p < e.solvedTenants.size(); ++p) {
                    if (e.solvedTenants[p] == e.tenants[i]) {
                        e.priorIndex[i] =
                            static_cast<std::ptrdiff_t>(p);
                        break;
                    }
                }
            }
            const std::size_t kept = market::migrateEquilibriumInto(
                e.slots[e.cur], e.priorIndex, e.capacities.size(),
                e.migrated);
            {
                const std::lock_guard<std::mutex> slock(statsMutex_);
                stats_.migratedWarmSeeds +=
                    static_cast<std::int64_t>(kept);
            }
            if (e.migrated.status.ok())
                prior = &e.migrated;
        }
        e.warmValid = false;
        e.rosterChanged = false;
        e.solvedTenants = e.tenants;
        e.slotShaped[0] = false;
        e.slotShaped[1] = false;
    } else if (e.warmValid) {
        prior = &e.slots[e.cur];
    }

    if (e.watchdog.consumeFallbackEpoch()) {
        installFallback(e, epoch);
        e.lastTick = epoch;
        const std::lock_guard<std::mutex> slock(statsMutex_);
        stats_.fallbackEpochs += 1;
        return;
    }

    // Solve into the back slot.  Readers may still be copying it from
    // two flips ago; wait them out before the solver writes.
    const int back = 1 - e.cur;
    market::EquilibriumResult &out = e.slots[back];
    e.gate.beginWrite(static_cast<std::uint32_t>(back));
    shapeSlot(e, back, n, e.capacities.size());
    e.market->findEquilibriumInto(e.budgets, prior, e.ws, out);

    {
        const std::lock_guard<std::mutex> slock(statsMutex_);
        stats_.equilibriumSolves += 1;
        stats_.sweepIterations += out.iterations;
        stats_.hillClimbSteps += out.hillClimbSteps;
        stats_.solveSeconds += out.solveSeconds;
        if (out.warmStarted)
            stats_.warmStartedSolves += 1;
        else
            stats_.coldStartedSolves += 1;
        if (!out.status.ok())
            stats_.failedSolves += 1;
        else if (!out.converged)
            stats_.failSafeTrips += 1;
    }

    if (out.status.ok()) {
        // Publish: stamp the slot's read-side metadata, then flip.
        // Same-size assignment reuses slotTenants' buffer, keeping
        // steady ticks allocation-free.
        e.slotTenants[back] = e.tenants;
        e.slotTick[back] = epoch;
        e.cur = back;
        e.warmValid = true;
        e.published = true;
        e.lastTick = epoch;
        e.gate.publish(static_cast<std::uint32_t>(back));
        // If the roster just changed, the now-idle slot still has the
        // old shape; fix it while this tick is still a warm-up tick.
        shapeSlot(e, 1 - e.cur, n, e.capacities.size());
    }
    // On a failed solve the chain stays on the old slot and readers
    // keep seeing the previous published allocation.

    const bool healthy = out.status.ok() && out.converged;
    if (e.watchdog.observe(healthy)) {
        // Watchdog trip: stop trusting the market, drop the warm chain
        // and publish the open-loop equal split for this epoch and the
        // recovery window.
        {
            const std::lock_guard<std::mutex> slock(statsMutex_);
            stats_.watchdogTrips += 1;
        }
        e.warmValid = false;
        installFallback(e, epoch);
        e.lastTick = epoch;
    }
}

void
Shard::shapeSlot(MarketEntry &entry, int slot, std::size_t tenants,
                 std::size_t resources)
{
    if (entry.slotShaped[slot])
        return;
    entry.gate.beginWrite(static_cast<std::uint32_t>(slot));
    presizeResult(entry.slots[slot], tenants, resources);
    entry.slotTenants[slot].reserve(tenants);
    entry.slotShaped[slot] = true;
}

/** Publish the open-loop equal split into the entry's back slot. */
void
Shard::installFallback(MarketEntry &entry, std::uint64_t epoch)
{
    const std::size_t n = entry.tenants.size();
    const std::size_t m = entry.capacities.size();
    const int back = 1 - entry.cur;
    market::EquilibriumResult &out = entry.slots[back];
    entry.gate.beginWrite(static_cast<std::uint32_t>(back));
    shapeSlot(entry, back, n, m);
    out.status = {};
    out.alloc.resize(n, m);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < m; ++j) {
            out.alloc(i, j) =
                entry.capacities[j] / static_cast<double>(n);
        }
    }
    out.bids.clear();
    out.prices.assign(m, 0.0);
    out.lambdas.assign(n, 0.0);
    out.budgets = entry.budgets;
    out.iterations = 0;
    out.converged = false;
    out.warmStarted = false;
    out.approximated = true;
    out.hillClimbSteps = 0;
    out.solveSeconds = 0.0;
    entry.slotTenants[back] = entry.tenants;
    entry.slotTick[back] = epoch;
    entry.cur = back;
    entry.published = true;
    entry.gate.publish(static_cast<std::uint32_t>(back));
    shapeSlot(entry, 1 - entry.cur, n, m);
}

std::size_t
Shard::marketCount() const
{
    return marketCount_.load(std::memory_order_relaxed);
}

ShardCounters
Shard::counters() const
{
    ShardCounters c;
    c.marketsCreated =
        counters_.marketsCreated.load(std::memory_order_relaxed);
    c.requestsApplied =
        counters_.requestsApplied.load(std::memory_order_relaxed);
    c.requestsRejected =
        counters_.requestsRejected.load(std::memory_order_relaxed);
    c.ticksRun = counters_.ticksRun.load(std::memory_order_relaxed);
    c.steadyTicks =
        counters_.steadyTicks.load(std::memory_order_relaxed);
    c.steadyTickAllocs =
        counters_.steadyTickAllocs.load(std::memory_order_relaxed);
    c.warmupTickAllocs =
        counters_.warmupTickAllocs.load(std::memory_order_relaxed);
    return c;
}

util::SolverStats
Shard::solverStats() const
{
    const std::lock_guard<std::mutex> lock(statsMutex_);
    return stats_;
}

void
Shard::exportState(std::vector<MarketState> &out) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    out.clear();
    out.reserve(markets_.size());
    for (const auto &kv : markets_) {
        const MarketEntry &e = *kv.second;
        MarketState st;
        st.id = e.id;
        st.tenants.resize(e.tenants.size());
        const auto &models = e.builder.models();
        for (std::size_t i = 0; i < e.tenants.size(); ++i) {
            st.tenants[i].tenant = e.tenants[i];
            st.tenants[i].app = models[i]->name();
            st.tenants[i].weight = e.weights[i];
        }
        st.published = e.published;
        st.warmValid = e.warmValid;
        if (e.published) {
            const market::EquilibriumResult &res = e.slots[e.cur];
            st.allocTenants = e.slotTenants[e.cur];
            st.tick = e.slotTick[e.cur];
            st.iterations = static_cast<std::uint64_t>(res.iterations);
            st.converged = res.converged;
            st.approximated = res.approximated;
            st.prices = res.prices;
            st.budgets = res.budgets;
            st.lambdas = res.lambdas;
            st.alloc = res.alloc;
            st.bids = res.bids;
        }
        out.push_back(std::move(st));
    }
}

util::SolveStatus
Shard::restoreMarket(const MarketState &st)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    if (st.published) {
        // The equilibrium shapes must agree with the roster it claims
        // to have been solved on; a corrupted snapshot that decoded
        // "successfully" but lies about shapes is rejected here.
        const std::size_t n = st.allocTenants.size();
        const std::size_t m = st.prices.size();
        const bool shaped =
            st.budgets.size() == n && st.lambdas.size() == n &&
            st.alloc.rows() == n && st.alloc.cols() == m &&
            (st.bids.empty() ||
             (st.bids.rows() == n && st.bids.cols() == m));
        if (!shaped) {
            return util::SolveStatus::error(
                util::StatusCode::InvalidArgument,
                "restore: market %llu equilibrium shapes disagree "
                "with its roster",
                static_cast<unsigned long long>(st.id));
        }
    }
    for (const TenantState &t : st.tenants) {
        if (!std::isfinite(t.weight) || t.weight <= 0.0) {
            return util::SolveStatus::error(
                util::StatusCode::InvalidArgument,
                "restore: tenant %llu of market %llu has weight %g",
                static_cast<unsigned long long>(t.tenant),
                static_cast<unsigned long long>(st.id), t.weight);
        }
    }
    std::unique_ptr<MarketEntry> entry;
    const util::SolveStatus built = newEntry(st.id, st.tenants, entry);
    if (!built.ok())
        return util::SolveStatus::error(built.code(), "restore: %s",
                                        built.message().c_str());
    MarketEntry &e = *entry;
    if (st.published) {
        // Install the published equilibrium into slot 0 and publish
        // it: readers serve the pre-crash allocation before the first
        // post-restore tick even runs.  rosterChanged stays true, so
        // that tick takes the rebuild path and warm-migrates from this
        // slot -- for an unchanged roster the migration is an identity
        // re-key of these exact bids, making the first post-restore
        // solve bit-identical to the uncrashed daemon's next tick.
        market::EquilibriumResult &res = e.slots[0];
        e.gate.beginWrite(0);
        res.status = {};
        res.prices = st.prices;
        res.budgets = st.budgets;
        res.lambdas = st.lambdas;
        res.alloc = st.alloc;
        res.bids = st.bids;
        res.iterations = static_cast<int>(st.iterations);
        res.converged = st.converged;
        res.approximated = st.approximated;
        res.warmStarted = false;
        res.hillClimbSteps = 0;
        res.solveSeconds = 0.0;
        e.slotTenants[0] = st.allocTenants;
        e.slotTick[0] = st.tick;
        e.cur = 0;
        e.published = true;
        // A warm seed needs bids; a fallback slot (or a snapshot
        // stripped of bids) restores as published-but-cold.
        e.warmValid = st.warmValid && !st.bids.empty();
        e.solvedTenants = st.allocTenants;
        e.lastTick = st.tick;
        e.gate.publish(0);
    }
    host(std::move(entry));
    return {};
}

std::uint64_t
Shard::digest(std::uint64_t h) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &kv : markets_) {
        const MarketEntry &e = *kv.second;
        h = foldU64(h, e.id);
        h = foldU64(h, e.tenants.size());
        for (const std::uint64_t t : e.tenants)
            h = foldU64(h, t);
        h = foldU64(h, e.published ? 1 : 0);
        if (!e.published)
            continue;
        const market::EquilibriumResult &res = e.slots[e.cur];
        h = foldU64(h, static_cast<std::uint64_t>(res.iterations));
        h = foldU64(h, res.converged ? 1 : 0);
        for (const double b : res.budgets)
            h = foldF64(h, b);
        for (const double p : res.prices)
            h = foldF64(h, p);
        for (const double l : res.lambdas)
            h = foldF64(h, l);
        for (std::size_t i = 0; i < res.alloc.rows(); ++i) {
            for (std::size_t j = 0; j < res.alloc.cols(); ++j)
                h = foldF64(h, res.alloc(i, j));
        }
    }
    return h;
}

} // namespace rebudget::serve
