/**
 * @file
 * Snapshot-read consistency hammer: concurrent GetAllocation readers
 * against a ticking ServerCore, including a mid-run roster churn
 * phase.  This is the test that pins the seqlock publication protocol
 * under ThreadSanitizer -- it runs in the test_serve binary, whose
 * serve_full alias the tsan and asan presets execute -- so any
 * ordering bug in SnapshotSeqLock, the shard's slot flipping, or the
 * lock-free market index shows up as a TSan report or as a torn-read
 * assertion here, not as a corrupted reply in production.
 *
 * Readers validate every reply's internal consistency (shape, budget
 * mass, tick monotonicity per market); tearing across a concurrent
 * solve would break one of those invariants long before anything
 * subtler goes wrong.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "rebudget/eval/bundle_runner.h"
#include "rebudget/serve/server_core.h"

using namespace rebudget;

namespace {

constexpr std::size_t kMarkets = 8;
constexpr std::size_t kPlayers = 4;
constexpr std::uint64_t kTicks = 300;
constexpr std::uint64_t kMinReads = 1000;
// A scheduler that never runs the readers fails the test, not hangs it.
constexpr auto kHammerDeadline = std::chrono::seconds(120);

struct ReaderOutcome
{
    std::uint64_t reads = 0;
    std::uint64_t torn = 0;
    std::uint64_t errors = 0;
    std::uint64_t staleVersion = 0;
    /** Reads so far, published for the ticking thread. */
    std::atomic<std::uint64_t> progress{0};
};

void
readerLoop(const serve::ServerCore &core, const std::atomic<bool> &stop,
           std::uint64_t streamSeed, ReaderOutcome &out)
{
    serve::AllocationReply reply;
    serve::ErrorReply err;
    std::vector<std::uint64_t> lastTick(kMarkets, 0);
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t m =
            (streamSeed + i * 0x9e3779b97f4a7c15ull) % kMarkets;
        ++i;
        serve::GetAllocation req;
        req.market = m;
        if (!core.readAllocation(req, reply, err)) {
            // Only the pre-first-tick window may refuse a read; after
            // the main thread's first tick every market stays
            // published through churn and fallbacks alike.
            ++out.errors;
            continue;
        }
        ++out.reads;
        out.progress.store(out.reads, std::memory_order_relaxed);
        bool torn = false;
        if (reply.market != m)
            torn = true;
        if (reply.players.empty() || reply.prices.empty())
            torn = true;
        double mass = 0.0;
        for (const serve::TenantAllocation &p : reply.players) {
            if (p.alloc.size() != reply.prices.size())
                torn = true;
            mass += p.budget;
        }
        // Budgets always sum to the player count (one unit per seat),
        // whatever the roster currently is -- a snapshot mixing two
        // epochs or two rosters misses the identity.
        const double n = static_cast<double>(reply.players.size());
        if (std::abs(mass - n) > 1e-6 * n)
            torn = true;
        if (reply.tick < lastTick[m])
            ++out.staleVersion;
        lastTick[m] = reply.tick;
        if (torn)
            ++out.torn;
    }
}

} // namespace

TEST(SnapshotHammer, ConcurrentReadsNeverTearAcrossTicksAndChurn)
{
    serve::ServeConfig config;
    config.shards = 4;
    config.jobs = 1;
    serve::ServerCore core(config);

    for (std::uint64_t m = 0; m < kMarkets; ++m) {
        serve::CreateMarket create;
        create.market = m;
        const std::vector<std::string> apps =
            eval::syntheticAppNames(kPlayers, 0x5eed ^ m);
        for (std::uint64_t t = 0; t < kPlayers; ++t)
            create.tenants.push_back({t, apps[t]});
        const serve::Response resp = core.apply(create);
        ASSERT_TRUE(std::holds_alternative<serve::AckReply>(resp));
    }
    core.tick(); // publish every market before readers start

    std::atomic<bool> stop{false};
    constexpr int kReaders = 4;
    ReaderOutcome outcomes[kReaders];
    std::vector<std::thread> readers;
    readers.reserve(kReaders);
    for (int r = 0; r < kReaders; ++r) {
        readers.emplace_back([&core, &stop, r, &outcomes] {
            readerLoop(core, stop, 0x51ed + 31 * r, outcomes[r]);
        });
    }

    const auto deadline = std::chrono::steady_clock::now() + kHammerDeadline;
    const auto pastDeadline = [deadline] {
        return std::chrono::steady_clock::now() > deadline;
    };
    const auto readsSoFar = [&outcomes] {
        std::uint64_t total = 0;
        for (const ReaderOutcome &o : outcomes)
            total += o.progress.load(std::memory_order_relaxed);
        return total;
    };
    // Tick only once every reader is running, so a loaded machine cannot
    // finish the ticks before the readers are scheduled.
    const auto allReadersStarted = [&outcomes] {
        for (const ReaderOutcome &o : outcomes) {
            if (o.progress.load(std::memory_order_relaxed) == 0)
                return false;
        }
        return true;
    };
    while (!allReadersStarted() && !pastDeadline())
        std::this_thread::yield();

    // At least kTicks ticks, then on until the readers have done enough
    // reads for the hammer to mean something.
    const std::string churnApp = eval::syntheticAppNames(1, 0xc4)[0];
    std::uint64_t tick = 0;
    for (; (tick < kTicks || readsSoFar() <= kMinReads) && !pastDeadline();
         ++tick) {
        if (tick % 10 == 3) {
            // Roster churn concurrent with reads: the rebuild path
            // must keep the old snapshot published while it reshapes.
            const std::uint64_t m = tick % kMarkets;
            const serve::Response resp = core.apply(
                serve::JoinTenant{m, kPlayers, churnApp});
            ASSERT_TRUE(std::holds_alternative<serve::AckReply>(resp));
        } else if (tick % 10 == 8) {
            const std::uint64_t m = (tick - 5) % kMarkets;
            const serve::Response resp =
                core.apply(serve::LeaveTenant{m, kPlayers});
            ASSERT_TRUE(std::holds_alternative<serve::AckReply>(resp));
        }
        // Weight churn keeps the solver genuinely re-solving.
        const serve::Response resp = core.apply(serve::SubmitDemand{
            tick % kMarkets, tick % kPlayers,
            1.0 + static_cast<double>(tick % 7) * 0.25});
        ASSERT_TRUE(std::holds_alternative<serve::AckReply>(resp));
        core.tick();
    }
    stop.store(true, std::memory_order_relaxed);
    for (std::thread &t : readers)
        t.join();

    std::uint64_t reads = 0;
    for (const ReaderOutcome &o : outcomes) {
        reads += o.reads;
        EXPECT_EQ(o.torn, 0u);
        EXPECT_EQ(o.errors, 0u);
        EXPECT_EQ(o.staleVersion, 0u);
    }
    // The hammer is meaningless if the readers barely ran.
    EXPECT_GT(reads, kMinReads);
    EXPECT_GE(tick, kTicks);
    EXPECT_EQ(core.epoch(), tick + 1);
}
