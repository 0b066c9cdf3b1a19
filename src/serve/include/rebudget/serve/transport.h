#ifndef REBUDGET_SERVE_TRANSPORT_H_
#define REBUDGET_SERVE_TRANSPORT_H_

/**
 * @file
 * rebudgetd's transport policy as a state machine that owns no file
 * descriptor and makes no system call.  A driver -- SocketServer's poll
 * loop in the daemon, the seeded scheduler of
 * tests/serve/transport_sim_test.cpp in tests -- feeds it connection
 * events (bytes read, bytes written, EOF, a dead socket), worker
 * completions, tick ends and timer ticks with the time passed in, and
 * moves the reply bytes it queues per connection onto the wire.
 *
 * Routing: CreateMarket / SubmitDemand / JoinTenant / LeaveTenant frames
 * go to Core::submitFrame raw (opcode and market id peeked, never
 * decoded here); GetAllocation and GetStats are answered inline;
 * TickNow, Shutdown and malformed frames are handled here.
 *
 * Contract, with the tests that pin each point:
 *  - Replies are FIFO per connection.  Each complete frame takes the
 *    connection's next sequence number, and a reply that completes
 *    early waits until every earlier one is queued (TransportSim.*,
 *    SocketServer.TinySendWindowBuffersPendingReplies).
 *  - A TickNow waits for every write accepted before it, on any
 *    connection: its tick starts only once Core::pendingOps() is 0 and
 *    no tick is in flight, and its ack is queued when that tick ends.
 *    At most one tick is in flight (TransportSim.*).
 *  - A write pipelined after a TickNow on the same connection goes to
 *    its shard at once, so it can still land in that tick, and a
 *    GetAllocation after it reads whatever is published when it
 *    arrives (TransportSim.* accepts either outcome).
 *  - EOF still delivers outstanding replies: reading stops, every
 *    complete frame received before it is answered and flushed, then
 *    the connection closes (SocketServer.HalfCloseStillGetsReplies,
 *    TransportSim.*).  A dead socket or a write error closes it at
 *    once; its later completions are dropped (TransportSim.*).
 *  - A complete frame that does not decode gets a typed ErrorReply and
 *    the connection stays open; a declared length over the cap gets
 *    one ErrorReply, then the connection closes
 *    (SocketServer.UnknownOpcodeGetsTypedErrorAndConnectionSurvives,
 *    SocketServer.OversizedFrameDropsOnlyThatConnection,
 *    TransportSim.*).
 *  - The first stop request (stop() or a Shutdown frame, or maxTicks
 *    timer ticks) drains: no new connections, and done() turns true
 *    once every accepted request is applied, answered and written, or
 *    kDrainMs later.  A second stop() ends the loop at once.
 */

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "rebudget/serve/protocol.h"

namespace rebudget::serve {

/** Per-connection framing, sequencing, TickNow barrier and drain. */
class Transport
{
  public:
    /** The engine behind the transport (ServerCore in the daemon). */
    class Core
    {
      public:
        virtual ~Core() = default;
        /** Queue a mutating frame; the driver hands its reply back
         * through Transport::complete(conn, seq, frame). */
        virtual void submitFrame(std::uint64_t market,
                                 std::vector<std::uint8_t> &&payload,
                                 std::uint64_t conn, std::uint64_t seq) = 0;
        virtual bool readAllocation(const GetAllocation &req,
                                    AllocationReply &out,
                                    ErrorReply &err) const = 0;
        virtual std::string statsJson() const = 0;
        /** Start one epoch tick; the driver reports its end through
         * Transport::tickDone(). */
        virtual void tickAsync() = 0;
        /** @return submitted frames whose reply is not produced yet. */
        virtual std::size_t pendingOps() const = 0;
    };

    /** Bound on the graceful drain (a dead peer or a wedged solve must
     * not hold the daemon open). */
    static constexpr std::int64_t kDrainMs = 5000;

    /** @p tickMs 0 = only TickNow ticks; @p maxTicks 0 = no limit;
     * times are milliseconds on any monotonic clock. */
    Transport(Core &core, std::uint32_t tickMs, std::uint64_t maxTicks,
              std::int64_t now);

    // --- events ---------------------------------------------------------

    /** A connection was accepted. @return its id. */
    std::uint64_t open();
    /** Bytes read from @p conn. */
    void received(std::uint64_t conn, const std::uint8_t *data,
                  std::size_t size);
    /** @p conn's peer finished sending. @return true when a partial
     * frame was dropped. */
    bool eof(std::uint64_t conn);
    /** @p conn's socket died (read or write error, hang-up). */
    void closed(std::uint64_t conn) { conns_.erase(conn); }
    /** The socket took the first @p bytes of outbox(conn). */
    void wrote(std::uint64_t conn, std::size_t bytes);
    /** A submitted frame's reply came back from a worker. */
    void complete(std::uint64_t conn, std::uint64_t seq,
                  std::vector<std::uint8_t> &&frame);
    /** The tick started through Core::tickAsync() ended. */
    void tickDone();
    /** Clock reading; starts the periodic tick when it is due. */
    void timer(std::int64_t now);
    /** A stop request (see the contract above). */
    void stop()
    {
        stops_ += 1;
        shuttingDown_ = true;
    }

    // --- what the driver should do ---------------------------------------

    bool accepting() const { return !shuttingDown_; }
    /** @return false once @p conn is closed: the driver closes its fd. */
    bool alive(std::uint64_t conn) const { return conns_.count(conn) != 0; }
    bool wantsRead(std::uint64_t conn) const;
    bool wantsWrite(std::uint64_t conn) const;
    /** Fill @p out with up to @p max unwritten reply chunks of @p conn,
     * in wire order. @return how many. */
    std::size_t outbox(std::uint64_t conn, std::span<const std::uint8_t> *out,
                       std::size_t max) const;
    /** @return how long the driver may wait for I/O (-1 = forever). */
    int timeoutMs(std::int64_t now) const;
    /** @return true when the driver should stop serving. */
    bool done(std::int64_t now);

  private:
    struct Connection
    {
        FrameReader reader;
        /** Sequence number of the next complete frame. */
        std::uint64_t seqNext = 0;
        /** Sequence number of the next reply allowed into sendq. */
        std::uint64_t seqReady = 0;
        /** Replies completed before their predecessors. */
        std::map<std::uint64_t, std::vector<std::uint8_t>> held;
        /** In-order reply frames awaiting the socket. */
        std::deque<std::vector<std::uint8_t>> sendq;
        /** Bytes of sendq.front() already written. */
        std::size_t sendoff = 0;
        /** False after EOF. */
        bool reading = true;
        /** Close once drained (EOF, framing error, Shutdown); later
         * input is dropped. */
        bool closing = false;

        bool drained() const
        {
            return sendq.empty() && held.empty() && seqReady == seqNext;
        }
    };

    Connection *find(std::uint64_t conn);
    void route(std::uint64_t id, Connection &conn);
    void enqueue(Connection &conn, std::uint64_t seq,
                 std::vector<std::uint8_t> &&frame);
    void reply(Connection &conn, std::uint64_t seq, const Response &resp);
    void retireIfDrained(std::uint64_t id, const Connection &conn);
    void maybeStartTick();

    Core &core_;
    std::map<std::uint64_t, Connection> conns_;
    std::uint64_t nextId_ = 1;
    /** Frames submitted whose completion has not arrived. */
    std::size_t outstanding_ = 0;
    std::vector<std::uint8_t> payload_;
    AllocationReply allocReply_;

    bool tickInFlight_ = false;
    /** (conn, seq) of TickNows waiting for the next tick, and of those
     * the tick in flight will ack. */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> tickWaiters_;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> tickAcking_;

    std::uint32_t tickMs_;
    std::uint64_t maxTicks_;
    std::uint64_t timerTicks_ = 0;
    std::int64_t nextTick_;

    int stops_ = 0;
    bool shuttingDown_ = false;
    bool draining_ = false;
    std::int64_t drainDeadline_ = 0;
};

} // namespace rebudget::serve

#endif // REBUDGET_SERVE_TRANSPORT_H_
