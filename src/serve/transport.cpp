#include "rebudget/serve/transport.h"

#include <algorithm>

#include "rebudget/serve/wire.h"

namespace rebudget::serve {

namespace {

/** The market id after the opcode of a raw payload of 9+ bytes. */
std::uint64_t
marketOf(const std::vector<std::uint8_t> &payload)
{
    return wire::ByteReader(payload.data() + 1, 8).u64();
}

bool
isOp(const std::vector<std::uint8_t> &payload, Opcode op, std::size_t size)
{
    return payload.size() == size &&
           payload[0] == static_cast<std::uint8_t>(op);
}

} // namespace

Transport::Transport(Core &core, std::uint32_t tickMs,
                     std::uint64_t maxTicks, std::int64_t now)
    : core_(core), tickMs_(tickMs), maxTicks_(maxTicks),
      nextTick_(tickMs > 0 ? now + tickMs : 0)
{
}

Transport::Connection *
Transport::find(std::uint64_t conn)
{
    const auto it = conns_.find(conn);
    return it == conns_.end() ? nullptr : &it->second;
}

std::uint64_t
Transport::open()
{
    const std::uint64_t id = nextId_++;
    conns_.emplace(id, Connection{});
    return id;
}

void
Transport::received(std::uint64_t id, const std::uint8_t *data,
                    std::size_t size)
{
    Connection *conn = find(id);
    if (conn == nullptr || conn->closing)
        return;
    conn->reader.feed(data, size);
    while (!conn->closing) {
        const FrameReader::Result r = conn->reader.next(payload_);
        if (r == FrameReader::Result::NeedMore)
            break;
        if (r == FrameReader::Result::Error) {
            // The stream position is untrustworthy: answer once, close.
            reply(*conn, conn->seqNext++,
                  ErrorReply{util::StatusCode::InvalidArgument,
                             conn->reader.error()});
            conn->closing = true;
            break;
        }
        route(id, *conn);
    }
}

void
Transport::route(std::uint64_t id, Connection &conn)
{
    const std::uint64_t seq = conn.seqNext++;
    const std::uint8_t op = payload_.empty() ? 0 : payload_[0];
    if (mutates(op) && payload_.size() >= 9) {
        const std::uint64_t market = marketOf(payload_);
        outstanding_ += 1;
        core_.submitFrame(market, std::move(payload_), id, seq);
        payload_ = {};
        return;
    }
    if (isOp(payload_, Opcode::GetAllocation, 9)) {
        ErrorReply err;
        if (core_.readAllocation(GetAllocation{marketOf(payload_)},
                                 allocReply_, err))
            reply(conn, seq, allocReply_);
        else
            reply(conn, seq, err);
        return;
    }
    if (isOp(payload_, Opcode::GetStats, 1)) {
        reply(conn, seq, StatsReply{core_.statsJson()});
        return;
    }
    if (isOp(payload_, Opcode::Shutdown, 1)) {
        reply(conn, seq, AckReply{});
        shuttingDown_ = true;
        conn.closing = true;
        return;
    }
    if (isOp(payload_, Opcode::TickNow, 1)) {
        tickWaiters_.emplace_back(id, seq);
        maybeStartTick();
        return;
    }
    // Unknown opcode or malformed shape (every well-formed request is
    // routed above): the strict decoder names the defect, and the
    // connection stays open.
    reply(conn, seq,
          errorReply(decodeRequest(payload_.data(), payload_.size())
                         .status()));
}

void
Transport::reply(Connection &conn, std::uint64_t seq, const Response &resp)
{
    std::vector<std::uint8_t> frame;
    encodeResponse(resp, frame);
    enqueue(conn, seq, std::move(frame));
}

void
Transport::enqueue(Connection &conn, std::uint64_t seq,
                   std::vector<std::uint8_t> &&frame)
{
    if (seq != conn.seqReady) {
        conn.held.emplace(seq, std::move(frame));
        return;
    }
    conn.sendq.push_back(std::move(frame));
    conn.seqReady += 1;
    auto it = conn.held.begin();
    while (it != conn.held.end() && it->first == conn.seqReady) {
        conn.sendq.push_back(std::move(it->second));
        conn.seqReady += 1;
        it = conn.held.erase(it);
    }
}

bool
Transport::eof(std::uint64_t id)
{
    Connection *conn = find(id);
    if (conn == nullptr)
        return false;
    const bool partial = conn->reader.midFrame();
    conn->reading = false;
    conn->closing = true;
    retireIfDrained(id, *conn);
    return partial;
}

void
Transport::wrote(std::uint64_t id, std::size_t bytes)
{
    Connection *conn = find(id);
    if (conn == nullptr)
        return;
    std::size_t left = bytes + conn->sendoff;
    while (!conn->sendq.empty() && left >= conn->sendq.front().size()) {
        left -= conn->sendq.front().size();
        conn->sendq.pop_front();
    }
    conn->sendoff = left;
    retireIfDrained(id, *conn);
}

void
Transport::retireIfDrained(std::uint64_t id, const Connection &conn)
{
    if (conn.closing && conn.drained())
        conns_.erase(id);
}

void
Transport::complete(std::uint64_t id, std::uint64_t seq,
                    std::vector<std::uint8_t> &&frame)
{
    outstanding_ -= 1;
    if (Connection *conn = find(id))
        enqueue(*conn, seq, std::move(frame));
    // Writes may have just drained; a deferred TickNow can go now.
    maybeStartTick();
}

void
Transport::tickDone()
{
    for (const auto &[id, seq] : tickAcking_) {
        if (Connection *conn = find(id))
            reply(*conn, seq, AckReply{});
    }
    tickAcking_.clear();
    tickInFlight_ = false;
    maybeStartTick();
}

void
Transport::maybeStartTick()
{
    if (!tickInFlight_ && !tickWaiters_.empty() &&
        core_.pendingOps() == 0) {
        tickAcking_.swap(tickWaiters_);
        tickInFlight_ = true;
        core_.tickAsync();
    }
}

void
Transport::timer(std::int64_t now)
{
    if (tickMs_ == 0 || shuttingDown_ || now < nextTick_)
        return;
    // Overrun skip: a period whose predecessor is still solving is
    // dropped, not queued as a burst of catch-up ticks.
    if (!tickInFlight_) {
        tickInFlight_ = true;
        core_.tickAsync();
        timerTicks_ += 1;
        if (maxTicks_ > 0 && timerTicks_ >= maxTicks_)
            shuttingDown_ = true;
    }
    nextTick_ += tickMs_;
    if (nextTick_ <= now)
        nextTick_ = now + tickMs_;
}

bool
Transport::wantsRead(std::uint64_t id) const
{
    const auto it = conns_.find(id);
    return it != conns_.end() && it->second.reading;
}

bool
Transport::wantsWrite(std::uint64_t id) const
{
    const auto it = conns_.find(id);
    return it != conns_.end() && !it->second.sendq.empty();
}

std::size_t
Transport::outbox(std::uint64_t id, std::span<const std::uint8_t> *out,
                  std::size_t max) const
{
    const auto it = conns_.find(id);
    if (it == conns_.end())
        return 0;
    std::size_t n = 0;
    std::size_t off = it->second.sendoff;
    for (const std::vector<std::uint8_t> &frame : it->second.sendq) {
        if (n == max)
            break;
        out[n++] = std::span<const std::uint8_t>(frame).subspan(off);
        off = 0;
    }
    return n;
}

int
Transport::timeoutMs(std::int64_t now) const
{
    if (shuttingDown_)
        return 100; // just draining; don't hang on a dead peer
    if (tickMs_ == 0)
        return -1;
    return static_cast<int>(std::clamp<std::int64_t>(nextTick_ - now, 0,
                                                     60000));
}

bool
Transport::done(std::int64_t now)
{
    if (stops_ >= 2)
        return true;
    if (!shuttingDown_)
        return false;
    if (!draining_) {
        draining_ = true;
        drainDeadline_ = now + kDrainMs;
    }
    if (now >= drainDeadline_)
        return true;
    // Every accepted request applied, answered and written, or its
    // connection gone.
    if (outstanding_ != 0 || tickInFlight_)
        return false;
    return std::all_of(conns_.begin(), conns_.end(), [](const auto &c) {
        return c.second.drained();
    });
}

} // namespace rebudget::serve
