#ifndef REBUDGET_SERVE_SERVER_CORE_H_
#define REBUDGET_SERVE_SERVER_CORE_H_

/**
 * @file
 * Transport-independent core of rebudgetd: request routing over a fixed
 * set of shards, the epoch-tick driver, aggregated telemetry and the
 * deterministic replay/digest machinery.
 *
 * Splitting the core from the socket layer keeps every behavior
 * testable in-process (tests/serve/server_core_test.cpp drives it with
 * no sockets) and lets bench/perf_serve run closed-loop against the
 * exact production code path.
 *
 * Determinism: requests are routed to shards by util::mix64(market id),
 * ticks solve each shard on one ThreadPool worker (Shard state is only
 * touched through its own index -- the parallelFor contract), and
 * digest() folds only bit-stable fields.  Hence a fixed request
 * sequence yields an identical digest at any --jobs value, which
 * `rebudgetd --replay` exposes and tools/serve_smoke.sh asserts.
 */

#include <atomic>
#include <cstdint>
#include <functional>
#include <istream>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "rebudget/serve/shard.h"
#include "rebudget/util/thread_pool.h"

namespace rebudget::serve {

/** A raw request frame queued for asynchronous application, tagged
 * with the transport's (connection, sequence) reply address. */
struct PendingFrame
{
    std::vector<std::uint8_t> payload;
    std::uint64_t conn = 0;
    std::uint64_t seq = 0;
};

/**
 * Receives every state-mutating request (CreateMarket, SubmitDemand,
 * JoinTenant, LeaveTenant) as raw wire payload bytes BEFORE the owning
 * shard applies it -- the write-ahead hook the op journal
 * (serve/persist.h) hangs off.  journalOp() runs on the thread that is
 * about to apply the op.  The async write plane is single-flight per
 * shard, but a synchronous apply() (replay, admin tools) may race it,
 * so implementations must tolerate concurrent calls even for one
 * shard (serve/persist.h takes a per-shard mutex).  opApplied() fires
 * after the op's apply() returns, regardless of acceptance or
 * rejection: it advances the "durably applied" sequence floor a
 * snapshot may safely record.
 */
class JournalSink
{
  public:
    virtual ~JournalSink() = default;
    /** Persist one mutating op's wire payload bound for @p shard. */
    virtual void journalOp(std::size_t shard,
                           const std::uint8_t *payload,
                           std::size_t size) = 0;
    /** The op most recently journaled for @p shard has been applied. */
    virtual void opApplied(std::size_t shard) = 0;
};

/** What recovery did at startup, for telemetry and operator eyes. */
struct RecoverySummary
{
    /** Recovery ran (even if it found a cold, empty state dir). */
    bool attempted = false;
    /** Snapshot files that decoded and verified end to end. */
    std::uint64_t snapshotsLoaded = 0;
    /** Snapshot files rejected (bad magic/CRC/shape) -- each one
     * degraded to the previous snapshot or a cold start. */
    std::uint64_t snapshotsCorrupt = 0;
    std::uint64_t marketsRestored = 0;
    /** Markets whose image failed validation and were skipped. */
    std::uint64_t marketsSkipped = 0;
    /** Journal records replayed on top of the snapshots. */
    std::uint64_t opsReplayed = 0;
    /** Journal records skipped as already covered by a snapshot. */
    std::uint64_t opsSkipped = 0;
    /** Journals that ended in a torn/corrupt record (replay stops
     * there; everything before the tear still applied). */
    std::uint64_t journalTornTails = 0;
};

/** The daemon's market-hosting engine (no transport attached). */
class ServerCore
{
  public:
    explicit ServerCore(const ServeConfig &config);

    ServerCore(const ServerCore &) = delete;
    ServerCore &operator=(const ServerCore &) = delete;

    /**
     * Apply one request synchronously and build its reply.  Mutating
     * market-scoped requests run under the owning shard's mutex;
     * GetAllocation goes through the lock-free read path; GetStats
     * aggregates every shard; TickNow runs one epoch before acking;
     * Shutdown acks (stopping is the transport's job).
     */
    Response apply(const Request &req);

    /**
     * Lock-free snapshot read into a caller-reused reply (see
     * Shard::readAllocation): routes to the owning shard, never takes
     * a shard mutex, performs zero heap allocations once @p out has
     * grown to the market's shape.  Safe from any thread, concurrent
     * with ticks and writes.
     */
    bool readAllocation(const GetAllocation &req, AllocationReply &out,
                        ErrorReply &err) const
    {
        return shards_[shardOf(req.market)]->readAllocation(req, out, err);
    }

    /** Run one epoch tick across all shards, in parallel. */
    void tick();

    // --- async write plane (batched transport) -----------------------
    //
    // The socket layer never touches market state on its I/O thread:
    // it peeks the market id out of a raw frame, hands the frame to
    // submitFrame(), and per-shard FIFO queues drain on the tick
    // thread pool -- decode, apply and encode all happen on a worker.
    // Replies come back through the ReplySink, tagged with the
    // caller's (connection, sequence) pair so the transport can slot
    // them back into per-connection order.  Ordering: frames for the
    // same shard apply in submit order; frames for different shards
    // race, which is fine because distinct markets share no state.

    /** Receives encoded reply frames from worker threads.  Called
     * concurrently from pool workers; must be thread-safe. */
    using ReplySink = std::function<void(
        std::uint64_t conn, std::uint64_t seq,
        std::vector<std::uint8_t> &&frame)>;

    /** Install the reply sink (before the first submitFrame). */
    void setReplySink(ReplySink sink) { sink_ = std::move(sink); }

    /**
     * Queue one raw request frame (opcode + body, no length prefix)
     * for asynchronous application on @p market's shard.  The reply
     * frame -- encoded response, or an encoded ErrorReply when the
     * payload fails to decode -- reaches the ReplySink later, tagged
     * (conn, seq).  pendingOps() counts frames submitted but not yet
     * sunk, so a transport can drain before shutdown.
     */
    void submitFrame(std::uint64_t market,
                     std::vector<std::uint8_t> &&payload,
                     std::uint64_t conn, std::uint64_t seq);

    /**
     * Start one epoch tick without blocking: each shard solves as one
     * pool task, and @p done runs on the worker that finishes last.
     * The caller must not start another tick (sync or async) until
     * done fires; queued submitFrame work interleaves freely.
     */
    void tickAsync(std::function<void()> done);

    /** @return frames accepted by submitFrame whose reply has not yet
     * been handed to the sink. */
    std::size_t pendingOps() const
    {
        return pendingOps_.load(std::memory_order_acquire);
    }

    /** @return the number of epochs ticked so far. */
    std::uint64_t epoch() const { return epoch_; }

    /**
     * Restore the epoch counter (recovery only, before serving): ticks
     * resume from the pre-crash epoch, so recovered slot ticks and
     * fresh solves stay on one monotonic timeline.  Must not race
     * tick()/tickAsync().
     */
    void setEpoch(std::uint64_t epoch) { epoch_ = epoch; }

    /**
     * Install the write-ahead journal sink, or detach it with nullptr.
     * Attach AFTER recovery replay (so replayed ops are not
     * re-journaled) and before the transport starts accepting writes.
     * @p sink must outlive the core or be detached first.
     */
    void setJournal(JournalSink *sink) { journal_ = sink; }

    /** Record what startup recovery did (shown in statsJson()). */
    void noteRecovery(const RecoverySummary &summary)
    {
        recovery_ = summary;
    }

    /** @return the shard a market id routes to. */
    std::size_t shardOf(std::uint64_t market) const;

    /** @return the shard count. */
    std::size_t shardCount() const { return shards_.size(); }

    /** @return markets hosted across all shards. */
    std::size_t marketCount() const;

    /** Direct shard access (tests, benches). */
    const Shard &shard(std::size_t i) const { return *shards_[i]; }

    /** Mutable shard access (recovery restore path; tests). */
    Shard &mutableShard(std::size_t i) { return *shards_[i]; }

    /**
     * Per-shard telemetry as schema-stable JSON
     * ("rebudget.serve_stats.v1"): shard counters plus the merged
     * solver stats, one object per shard, fixed key order.
     */
    std::string statsJson() const;

    /**
     * FNV-1a digest over every shard's published market state (see
     * Shard::digest).  Identical runs -- same requests, same tick
     * schedule -- produce identical digests at any thread count.
     */
    std::uint64_t digest() const;

  private:
    /** One shard's inbox of raw frames awaiting a pool worker. */
    struct ShardQueue
    {
        std::mutex mutex;
        std::vector<PendingFrame> ops;
        /** True while a drain task is queued or running; the enqueuer
         * that flips it false->true owns scheduling the drain. */
        bool drainScheduled = false;
    };

    void drainQueue(std::size_t shard);
    /** The one write-ahead sequence: a mutating @p req is journaled
     * (@p payload is its wire form; null = encode it), applied on
     * @p shard, then marked applied.  Anything else only applies. */
    Response applyWriteAhead(std::size_t shard, const Request &req,
                             const std::vector<std::uint8_t> *payload);

    ServeConfig config_;
    std::vector<std::unique_ptr<Shard>> shards_;
    util::ThreadPool pool_;
    std::uint64_t epoch_ = 0;
    std::vector<std::unique_ptr<ShardQueue>> queues_;
    ReplySink sink_;
    JournalSink *journal_ = nullptr;
    RecoverySummary recovery_;
    std::atomic<std::size_t> pendingOps_{0};
};

/**
 * Drive a ServerCore from a text trace (the `rebudgetd --replay` mode).
 *
 * One command per line (`#` starts a comment): `tick [count]`, or a
 * create, demand, join or leave command in parseCommand's grammar
 * (protocol.h).  A malformed line or a rejected request stops the replay
 * with an error naming the line; replies to well-formed requests that
 * the server rejects (e.g. joining a nonexistent market) are errors
 * too, because a replay trace is supposed to be a known-good sequence.
 */
util::SolveStatus runReplayTrace(ServerCore &core, std::istream &in);

} // namespace rebudget::serve

#endif // REBUDGET_SERVE_SERVER_CORE_H_
