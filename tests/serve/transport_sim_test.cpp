/**
 * @file
 * Seeded interleaving simulator for serve::Transport.
 *
 * Each seed drives K virtual connections through the real Transport
 * against FakeCore, a Transport::Core backed by a ServerCore replica.
 * One seeded scheduler picks every step: request bytes arrive split at
 * random boundaries, replies leave in random short writes, shard queues
 * apply in any order that keeps each shard FIFO, completions and tick
 * ends reach the transport in the order they were produced, ticks run
 * whenever they like, the timer fires, and connections half-close
 * (also mid-frame), break their framing, send Shutdown or die.  For
 * every seed the checks are:
 *  - each connection gets one reply per request, in request order;
 *  - each reply's bytes equal the replica's answer for that request
 *    (writes: the answer the replica gave when FakeCore applied them;
 *    reads and stats: its state when the frame arrived);
 *  - a TickNow's tick starts with no write pending and no other tick
 *    in flight, and the ack follows the end of a tick that started
 *    after the TickNow arrived;
 *  - every complete frame received before an EOF is answered, then the
 *    connection closes, and the transport stops reading it;
 *  - a framing error yields one ErrorReply, then a close;
 *  - a dead connection's completions are dropped, and the other
 *    connections pass every check above.
 * A failure prints its seed; the schedule depends on nothing else.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <random>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "rebudget/serve/protocol.h"
#include "rebudget/serve/server_core.h"
#include "rebudget/serve/transport.h"

using namespace rebudget;
using namespace rebudget::serve;

namespace {

std::vector<std::uint8_t>
frameOf(const Response &resp)
{
    std::vector<std::uint8_t> frame;
    encodeResponse(resp, frame);
    return frame;
}

/** A reply or a tick end on its way back to the I/O thread. */
struct Completion
{
    std::uint64_t conn = 0;
    std::uint64_t seq = 0;
    std::vector<std::uint8_t> frame;
    bool tickDone = false;
};

/**
 * Transport::Core over a ServerCore replica.  Submitted frames wait in
 * per-shard FIFOs until the scheduler applies them; replies and tick
 * ends queue for delivery in the order they were produced, as on the
 * daemon's completion queue.
 */
class FakeCore final : public Transport::Core
{
  public:
    struct Op
    {
        std::uint64_t conn = 0;
        std::uint64_t seq = 0;
        std::vector<std::uint8_t> payload;
        std::uint64_t index = 0;
    };
    /** What the replica answered for a submitted frame. */
    struct Answer
    {
        std::vector<std::uint8_t> payload;
        std::vector<std::uint8_t> frame;
    };

    explicit FakeCore(ServerCore &replica)
        : queues(replica.shardCount()), replica_(replica)
    {
    }

    void submitFrame(std::uint64_t market,
                     std::vector<std::uint8_t> &&payload,
                     std::uint64_t conn, std::uint64_t seq) override
    {
        queues[replica_.shardOf(market)].push_back(
            {conn, seq, std::move(payload), submitted});
        unapplied.insert(submitted++);
    }

    bool readAllocation(const GetAllocation &req, AllocationReply &out,
                        ErrorReply &err) const override
    {
        const bool ok = replica_.readAllocation(req, out, err);
        inlineAnswers.push_back(
            {req.market, ok ? frameOf(out) : frameOf(err)});
        return ok;
    }

    std::string statsJson() const override
    {
        std::string json = replica_.statsJson();
        inlineAnswers.push_back({kStats, frameOf(StatsReply{json})});
        return json;
    }

    void tickAsync() override
    {
        if (tickInFlight)
            fail("a tick started while another was in flight");
        if (!inTimer && !unapplied.empty())
            fail("a TickNow tick started with " +
                 std::to_string(unapplied.size()) + " write(s) pending");
        tickInFlight = true;
        tickRan = false;
        tickEnded.push_back(false);
    }

    std::size_t pendingOps() const override { return unapplied.size(); }

    /** Apply the head of @p shard's queue, as its pool task would. */
    void apply(std::size_t shard)
    {
        Op op = std::move(queues[shard].front());
        queues[shard].pop_front();
        const auto req = decodeRequest(op.payload.data(), op.payload.size());
        ErrorReply err;
        if (!req.ok()) {
            err.code = req.status().code();
            err.message = req.status().message();
        }
        std::vector<std::uint8_t> frame =
            frameOf(req.ok() ? replica_.apply(req.value()) : err);
        answers[{op.conn, op.seq}] = Answer{std::move(op.payload), frame};
        unapplied.erase(op.index);
        completions.push_back({op.conn, op.seq, std::move(frame), false});
    }

    /** Solve the tick in flight on every shard. */
    void runTick()
    {
        replica_.tick();
        tickRan = true;
        completions.push_back({0, 0, {}, true});
    }

    void fail(const std::string &what)
    {
        if (failure.empty())
            failure = what;
    }

    /** inlineAnswers key of a statsJson() call. */
    static constexpr std::uint64_t kStats = ~std::uint64_t{0};

    std::vector<std::deque<Op>> queues;
    std::deque<Completion> completions;
    /** What the replica answered each inline read (market id) and
     * stats call (kStats), in call order.  Both count in its stats, so
     * the simulator never asks it itself. */
    mutable std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>>
        inlineAnswers;
    std::map<std::pair<std::uint64_t, std::uint64_t>, Answer> answers;
    /** Submission indices not yet applied. */
    std::set<std::uint64_t> unapplied;
    std::uint64_t submitted = 0;
    bool tickInFlight = false;
    bool tickRan = false;
    /** Per tick started, in order: has its end been delivered. */
    std::vector<bool> tickEnded;
    /** Set while the driver runs Transport::timer(). */
    bool inTimer = false;
    std::string failure;

  private:
    ServerCore &replica_;
};

enum class Kind { Write, Read, Stats, Tick, Bad, Framing, Shutdown };

/** One virtual client: its request stream and what it got back. */
struct VConn
{
    std::uint64_t id = 0;
    std::vector<std::uint8_t> bytes;
    /** End offset of each request frame in `bytes`. */
    std::vector<std::size_t> ends;
    std::vector<Kind> kinds;
    std::vector<std::vector<std::uint8_t>> payloads;
    /** Bytes the client sends before it half-closes or dies. */
    std::size_t cut = 0;
    bool halfCloses = false;
    bool dies = false;

    std::size_t fed = 0;
    /** Request frames wholly fed to the transport. */
    std::size_t complete = 0;
    bool eofSent = false;
    bool dead = false;
    bool retired = false;
    /** Expected reply of each inline-answered request. */
    std::vector<std::vector<std::uint8_t>> expected;
    /** For a TickNow: ticks started, and writes submitted, before it
     * arrived. */
    std::vector<std::size_t> ticksBefore;
    std::vector<std::uint64_t> writesBefore;
    FrameReader in;
    std::size_t replies = 0;
};

/** Scheduler knobs of one test. */
struct Profile
{
    /** Chance (percent) a connection half-closes, breaks its framing
     * or dies; the rest stay open. */
    unsigned halfClose = 0;
    unsigned framing = 0;
    unsigned die = 0;
    /** One connection ends with a Shutdown request. */
    bool shutdown = false;
};

class Sim
{
  public:
    Sim(std::uint64_t seed, const Profile &profile)
        : gen_(seed), replica_(config()), core_(replica_),
          tickMs_(pick(2) == 0 ? 0 : 7),
          transport_(core_, tickMs_, 0, now_)
    {
        const char *apps[4] = {"mcf", "hmmer", "milc", "gcc"};
        for (std::uint64_t m = 0; m < 3; ++m) {
            CreateMarket create;
            create.market = m;
            for (std::uint64_t t = 0; t < 2; ++t)
                create.tenants.push_back({t, apps[(m + t) % 4]});
            replica_.apply(create);
        }
        replica_.tick();
        const std::size_t k = 1 + pick(4);
        conns_.resize(k);
        for (std::size_t c = 0; c < k; ++c)
            script(conns_[c], profile, profile.shutdown && c == 0);
    }

    /** Run to quiescence. @return the first violation, or "". */
    std::string run()
    {
        for (int step = 0; step < 200000; ++step) {
            if (!error_.empty() || !core_.failure.empty())
                break;
            if (!stepOnce())
                return finalChecks();
        }
        if (!core_.failure.empty())
            return core_.failure;
        return error_.empty() ? "no quiescence after 200000 steps" : error_;
    }

  private:
    static ServeConfig config()
    {
        ServeConfig c;
        c.shards = 2;
        c.jobs = 1;
        c.market.maxIterations = 200;
        return c;
    }

    std::uint64_t pick(std::uint64_t n) { return gen_() % n; }

    void fail(const std::string &what)
    {
        if (error_.empty())
            error_ = what;
    }

    void addFrame(VConn &v, Kind kind, std::vector<std::uint8_t> payload)
    {
        const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
        for (int b = 0; b < 4; ++b)
            v.bytes.push_back(static_cast<std::uint8_t>(len >> (8 * b)));
        v.bytes.insert(v.bytes.end(), payload.begin(), payload.end());
        v.ends.push_back(v.bytes.size());
        v.kinds.push_back(kind);
        v.payloads.push_back(std::move(payload));
    }

    void addRequest(VConn &v, Kind kind, const Request &req)
    {
        std::vector<std::uint8_t> payload;
        encodeRequestPayload(req, payload);
        addFrame(v, kind, std::move(payload));
    }

    void script(VConn &v, const Profile &profile, bool shutdown)
    {
        const char *apps[4] = {"mcf", "hmmer", "milc", "gcc"};
        const std::size_t n = 1 + pick(12);
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t m = pick(4); // market 3 does not exist
            const std::uint64_t roll = pick(100);
            if (roll < 30) {
                addRequest(v, Kind::Write,
                           SubmitDemand{m, pick(3),
                                        0.25 * static_cast<double>(
                                                   1 + pick(8))});
            } else if (roll < 40) {
                const std::uint64_t tenant = 2 + pick(2);
                if (pick(2) == 0)
                    addRequest(v, Kind::Write,
                               JoinTenant{m, tenant, apps[pick(4)]});
                else
                    addRequest(v, Kind::Write, LeaveTenant{m, tenant});
            } else if (roll < 44) {
                CreateMarket create;
                create.market = 3 + pick(3);
                create.tenants.push_back({0, apps[pick(4)]});
                addRequest(v, Kind::Write, create);
            } else if (roll < 70) {
                addRequest(v, Kind::Read, GetAllocation{m});
            } else if (roll < 75) {
                addRequest(v, Kind::Stats, GetStats{});
            } else if (roll < 90) {
                addRequest(v, Kind::Tick, TickNow{});
            } else if (roll < 95) {
                addFrame(v, Kind::Bad, {0x7f}); // unknown opcode
            } else {
                // A demand cut short: routed raw, rejected by decode.
                std::vector<std::uint8_t> payload;
                encodeRequestPayload(SubmitDemand{m, 0, 1.0}, payload);
                payload.resize(12);
                addFrame(v, Kind::Write, std::move(payload));
            }
        }
        const std::uint64_t roll = pick(100);
        if (shutdown) {
            addRequest(v, Kind::Shutdown, Shutdown{});
        } else if (roll < profile.framing) {
            // A declared length over the cap: the reader's first 4
            // bytes past the previous frame.
            const std::uint32_t len = kMaxFramePayload + 1 +
                                      static_cast<std::uint32_t>(pick(99));
            std::vector<std::uint8_t> prefix;
            for (int b = 0; b < 4; ++b)
                prefix.push_back(static_cast<std::uint8_t>(len >> (8 * b)));
            v.bytes.insert(v.bytes.end(), prefix.begin(), prefix.end());
            v.ends.push_back(v.bytes.size());
            v.kinds.push_back(Kind::Framing);
            v.payloads.emplace_back();
            v.bytes.push_back(0x01); // trailing garbage is never read
        }
        v.cut = v.bytes.size();
        if (roll >= profile.framing && !shutdown) {
            const std::uint64_t end = roll - profile.framing;
            if (end < profile.halfClose) {
                v.halfCloses = true;
                if (pick(3) == 0) // sometimes mid-frame
                    v.cut = pick(v.bytes.size() + 1);
            } else if (end < profile.halfClose + profile.die) {
                v.dies = true;
                v.cut = pick(v.bytes.size() + 1);
            }
        }
        v.expected.resize(v.ends.size());
        v.ticksBefore.resize(v.ends.size());
        v.writesBefore.resize(v.ends.size());
        v.id = transport_.open();
    }

    /** Expected reply of request @p k of @p v where it does not come
     * from the replica. */
    void noteArrival(VConn &v, std::size_t k, std::uint64_t writesBefore,
                     std::size_t ticksBefore)
    {
        v.writesBefore[k] = writesBefore;
        v.ticksBefore[k] = ticksBefore;
        const std::vector<std::uint8_t> &payload = v.payloads[k];
        if (v.kinds[k] == Kind::Tick || v.kinds[k] == Kind::Shutdown) {
            v.expected[k] = frameOf(AckReply{});
        } else if (v.kinds[k] == Kind::Bad) {
            const auto req = decodeRequest(payload.data(), payload.size());
            v.expected[k] = frameOf(
                ErrorReply{req.status().code(), req.status().message()});
        } else if (v.kinds[k] == Kind::Framing) {
            FrameReader probe;
            std::vector<std::uint8_t> unused;
            probe.feed(v.bytes.data() + v.ends[k] - 4, 4);
            (void)probe.next(unused);
            v.expected[k] = frameOf(
                ErrorReply{util::StatusCode::InvalidArgument, probe.error()});
        }
    }

    void feed(VConn &v)
    {
        const std::size_t left = v.cut - v.fed;
        const std::size_t n =
            pick(8) == 0 ? left : 1 + pick(std::min<std::size_t>(left, 48));
        // Only the first TickNow of a chunk can start a tick (the rest
        // find it in flight).
        std::uint64_t writes = core_.submitted;
        const std::size_t ticks = core_.tickEnded.size();
        std::vector<std::size_t> tickNows;
        std::size_t k = v.complete;
        for (; k < v.ends.size() && v.ends[k] <= v.fed + n; ++k) {
            noteArrival(v, k, writes, ticks);
            if (v.kinds[k] == Kind::Write)
                writes += 1;
            if (v.kinds[k] == Kind::Tick)
                tickNows.push_back(k);
        }
        core_.inlineAnswers.clear();
        transport_.received(v.id, v.bytes.data() + v.fed, n);
        if (core_.tickEnded.size() > ticks) {
            for (std::size_t i = 1; i < tickNows.size(); ++i)
                v.ticksBefore[tickNows[i]] = core_.tickEnded.size();
        }
        // The transport asks the replica once per read and stats frame,
        // in frame order, while it handles them.
        std::size_t asked = 0;
        for (std::size_t j = v.complete; j < k; ++j) {
            if (v.kinds[j] != Kind::Read && v.kinds[j] != Kind::Stats)
                continue;
            if (asked == core_.inlineAnswers.size()) {
                fail("conn " + std::to_string(v.id) + " request " +
                     std::to_string(j) + " never reached the replica");
                return;
            }
            auto &[market, frame] = core_.inlineAnswers[asked++];
            const std::uint64_t want =
                v.kinds[j] == Kind::Stats
                    ? FakeCore::kStats
                    : std::get<GetAllocation>(
                          decodeRequest(v.payloads[j].data(),
                                        v.payloads[j].size())
                              .value())
                          .market;
            if (market != want)
                fail("conn " + std::to_string(v.id) + " request " +
                     std::to_string(j) + " read the wrong thing");
            v.expected[j] = std::move(frame);
        }
        if (asked != core_.inlineAnswers.size())
            fail("conn " + std::to_string(v.id) +
                 ": the replica was asked more than was sent");
        v.fed += n;
        v.complete = k;
    }

    void checkReply(VConn &v, const std::vector<std::uint8_t> &payload)
    {
        const std::size_t k = v.replies++;
        const std::string where =
            "conn " + std::to_string(v.id) + " reply " + std::to_string(k) +
            " (kind " + std::to_string(static_cast<int>(v.kinds[k])) + ")";
        if (k >= v.complete) {
            fail(where + ": no request of that index was received");
            return;
        }
        std::vector<std::uint8_t> want = v.expected[k];
        if (v.kinds[k] == Kind::Write) {
            const auto it = core_.answers.find({v.id, k});
            if (it == core_.answers.end() ||
                it->second.payload != v.payloads[k]) {
                fail(where + ": the replica never applied this write");
                return;
            }
            want = it->second.frame;
        }
        if (!std::equal(payload.begin(), payload.end(), want.begin() + 4,
                        want.end())) {
            fail(where + ": bytes differ from the replica's answer");
            return;
        }
        if (v.kinds[k] == Kind::Tick) {
            bool ended = false;
            for (std::size_t i = v.ticksBefore[k]; i < core_.tickEnded.size();
                 ++i)
                ended = ended || core_.tickEnded[i];
            if (!ended)
                fail(where + ": TickNow acked before a tick it waited for "
                             "ended");
            if (!core_.unapplied.empty() &&
                *core_.unapplied.begin() < v.writesBefore[k])
                fail(where + ": TickNow acked with an earlier write "
                             "unapplied");
        }
    }

    void write(VConn &v)
    {
        std::span<const std::uint8_t> chunks[8];
        const std::size_t count = transport_.outbox(v.id, chunks, 1 + pick(8));
        std::size_t total = 0;
        for (std::size_t i = 0; i < count; ++i)
            total += chunks[i].size();
        const std::size_t n = pick(3) == 0 ? total : 1 + pick(total);
        for (std::size_t i = 0, left = n; i < count && left > 0; ++i) {
            const std::size_t take = std::min(left, chunks[i].size());
            v.in.feed(chunks[i].data(), take);
            left -= take;
        }
        transport_.wrote(v.id, n);
        std::vector<std::uint8_t> payload;
        while (v.in.next(payload) == FrameReader::Result::Frame)
            checkReply(v, payload);
    }

    void deliver()
    {
        Completion c = std::move(core_.completions.front());
        core_.completions.pop_front();
        if (!c.tickDone) {
            transport_.complete(c.conn, c.seq, std::move(c.frame));
            return;
        }
        core_.tickInFlight = false;
        core_.tickEnded.back() = true;
        transport_.tickDone();
    }

    /** Take one random enabled step. @return false when none is. */
    bool stepOnce()
    {
        std::vector<std::pair<int, std::size_t>> moves;
        for (std::size_t c = 0; c < conns_.size(); ++c) {
            const VConn &v = conns_[c];
            if (v.dead || v.retired)
                continue;
            if (v.fed < v.cut && !v.eofSent)
                moves.push_back({0, c});
            if (v.fed == v.cut && v.halfCloses && !v.eofSent)
                moves.push_back({1, c});
            if (v.fed == v.cut && v.dies)
                moves.push_back({2, c});
            if (transport_.wantsWrite(v.id))
                moves.push_back({3, c});
        }
        for (std::size_t s = 0; s < core_.queues.size(); ++s) {
            if (!core_.queues[s].empty())
                moves.push_back({4, s});
        }
        if (!core_.completions.empty())
            moves.push_back({5, 0});
        if (core_.tickInFlight && !core_.tickRan)
            moves.push_back({6, 0});
        if (moves.empty())
            return false;
        if (tickMs_ > 0)
            moves.push_back({7, 0});

        const auto [move, i] = moves[pick(moves.size())];
        VConn *v = move <= 3 ? &conns_[i] : nullptr;
        switch (move) {
        case 0:
            feed(*v);
            break;
        case 1: {
            const std::size_t whole =
                v->complete == 0 ? 0 : v->ends[v->complete - 1];
            if (transport_.eof(v->id) != (v->fed > whole))
                fail("eof() misreported a partial frame");
            v->eofSent = true;
            if (transport_.wantsRead(v->id))
                fail("the transport still reads after EOF");
            break;
        }
        case 2:
            transport_.closed(v->id);
            v->dead = true;
            break;
        case 3:
            write(*v);
            break;
        case 4:
            core_.apply(i);
            break;
        case 5:
            deliver();
            break;
        case 6:
            core_.runTick();
            break;
        default:
            now_ += static_cast<std::int64_t>(pick(15));
            core_.inTimer = true;
            transport_.timer(now_);
            core_.inTimer = false;
            break;
        }
        for (VConn &c : conns_) {
            if (!c.dead && !c.retired && !transport_.alive(c.id)) {
                c.retired = true;
                checkRetired(c);
            }
        }
        return true;
    }

    /** The transport closed @p v: it must have been owed that. */
    void checkRetired(const VConn &v)
    {
        const std::string where = "conn " + std::to_string(v.id);
        const bool ending = !v.kinds.empty() &&
                            (v.kinds.back() == Kind::Framing ||
                             v.kinds.back() == Kind::Shutdown) &&
                            v.complete == v.kinds.size();
        if (!v.eofSent && !ending)
            fail(where + " closed without EOF, framing error or Shutdown");
        if (v.replies != v.complete)
            fail(where + " closed after " + std::to_string(v.replies) +
                 " of " + std::to_string(v.complete) + " replies");
        if (v.in.midFrame())
            fail(where + " closed mid-reply");
    }

    std::string finalChecks()
    {
        for (const VConn &v : conns_) {
            if (v.dead)
                continue;
            const std::string where = "conn " + std::to_string(v.id);
            if (v.replies != v.complete)
                fail(where + " got " + std::to_string(v.replies) +
                     " replies for " + std::to_string(v.complete) +
                     " requests");
            const bool closes = v.halfCloses ||
                                (!v.kinds.empty() &&
                                 (v.kinds.back() == Kind::Framing ||
                                  v.kinds.back() == Kind::Shutdown));
            if (closes != v.retired)
                fail(where + (closes ? " was never closed"
                                     : " was closed while open"));
        }
        if (!transport_.accepting() && !transport_.done(now_))
            fail("a drained transport is not done");
        if (!core_.failure.empty())
            return core_.failure;
        return error_;
    }

    std::mt19937_64 gen_;
    ServerCore replica_;
    FakeCore core_;
    std::int64_t now_ = 0;
    std::uint32_t tickMs_;
    Transport transport_;
    std::vector<VConn> conns_;
    std::string error_;
};

void
runSeeds(std::uint64_t first, std::uint64_t count, const Profile &profile)
{
    for (std::uint64_t seed = first; seed < first + count; ++seed) {
        Sim sim(seed, profile);
        const std::string failure = sim.run();
        EXPECT_EQ(failure, "") << "seed " << seed;
    }
}

} // namespace

TEST(TransportSim, PipelinedOrderAndTickBarrier)
{
    runSeeds(1, 60, Profile{});
}

TEST(TransportSim, HalfCloseFramingErrorsAndDeadConnections)
{
    runSeeds(1001, 60, Profile{30, 20, 25, false});
}

TEST(TransportSim, ShutdownDrainsEveryConnection)
{
    runSeeds(2001, 30, Profile{20, 10, 10, true});
}
