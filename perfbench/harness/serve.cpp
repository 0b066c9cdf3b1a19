/**
 * @file
 * Serving workloads: the real rebudgetd over its Unix socket, driven by
 * one pipelined client whose every request comes from (seed, op index),
 * then checked against an in-process serve::ServerCore replica that
 * replays the same schedule.
 *
 * Determinism: the daemon runs with --tick-ms 0, so epochs advance only
 * on the schedule's TickNow requests.  serve_write sends nothing past a
 * TickNow until its ack, so every write lands in the epoch the schedule
 * assigns it; serve_read pipelines reads across a TickNow on purpose
 * (reads overlap the solve through the seqlock), so a read may see the
 * epoch before or after the tick it follows.
 */

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/statfs.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "rebudget/app/catalog.h"
#include "rebudget/serve/persist.h"
#include "rebudget/serve/protocol.h"
#include "rebudget/serve/server_core.h"
#include "rebudget/util/durable_file.h"
#include "workloads.h"

extern char **environ;

using namespace rebudget;

namespace perfbench {

namespace {

// --- schedule ----------------------------------------------------------------

/** Daemon shape shared by the daemon flags and the replica config. */
constexpr std::size_t kShards = 4;
constexpr unsigned kJobs = 2;
constexpr std::size_t kWindow = 4;
constexpr std::size_t kTenants = 8;
/** Resources per allocation row: cache regions and power. */
constexpr std::size_t kResources = 2;
/**
 * Snapshot period in epochs.  With --tick-ms 0 the schedule ticks about
 * a thousand times a second, so the daemon's default of 32 epochs
 * (3.2 s at its default 100 ms tick) would snapshot some thirty times a
 * second; 1024 keeps roughly the default cadence.  At 32, the rename
 * and unlink churn of rotating snapshots and journals swung serve_write
 * p50 by up to 40% between runs on ext4.
 */
constexpr std::uint64_t kSnapshotTicks = 1024;

enum class OpKind : std::uint8_t { Read, Demand, Join, Leave, Tick, Stats };

/** Op classes reported per class: read, write (demand/join/leave),
 * tick, stats. */
const char *
opClass(OpKind k)
{
    switch (k) {
    case OpKind::Read:
        return "read";
    case OpKind::Demand:
    case OpKind::Join:
    case OpKind::Leave:
        return "write";
    case OpKind::Tick:
        return "tick";
    case OpKind::Stats:
        return "stats";
    }
    return "?";
}
constexpr const char *kClasses[] = {"read", "write", "tick", "stats"};

std::size_t
classIndex(OpKind k)
{
    const char *c = opClass(k);
    for (std::size_t i = 0; i < std::size(kClasses); ++i) {
        if (kClasses[i] == c)
            return i;
    }
    return 0;
}

struct Op
{
    OpKind kind = OpKind::Read;
    std::uint64_t market = 0;
    std::uint64_t tenant = 0;
    double weight = 1.0;
    std::size_t app = 0;
};

/**
 * The request stream of one run, a pure function of (seed, workload,
 * op index) plus the roster state it evolves itself.  The replica
 * replays the same Schedule to reproduce every request.
 */
class Schedule
{
  public:
    Schedule(std::uint64_t seed, bool write,
             const std::vector<std::string> &apps)
        : seed_(seed), write_(write), apps_(apps),
          markets_(write ? 64 : 512)
    {
        rosters_.resize(markets_);
        nextTenant_.assign(markets_, kTenants);
        for (std::size_t m = 0; m < markets_; ++m) {
            InputRng rng(seed_, 0xc0ffee, m);
            for (std::size_t t = 0; t < kTenants; ++t)
                rosters_[m].push_back({t, rng.below(apps_.size())});
        }
    }

    std::size_t markets() const { return markets_; }
    static std::uint64_t marketId(std::size_t m) { return m + 1; }

    /** Founding CreateMarket request of market index @p m. */
    serve::CreateMarket create(std::size_t m) const
    {
        serve::CreateMarket c;
        c.market = marketId(m);
        for (const auto &t : rosters_[m])
            c.tenants.push_back({t.first, apps_[t.second]});
        return c;
    }

    /** Current roster size of market index @p m. */
    std::size_t rosterSize(std::size_t m) const { return rosters_[m].size(); }

    Op next()
    {
        if (!queued_.empty()) {
            const Op op = queued_.front();
            queued_.pop_front();
            return op;
        }
        const std::uint64_t i = index_++;
        InputRng rng(seed_, write_ ? 0x3717e : 0x5ead, i);
        Op op;
        op.market = rng.below(markets_);
        const double u = rng.unit();
        if (!write_ || u < 0.05) {
            op.kind = OpKind::Read;
        } else if (u < 0.06) {
            auto &roster = rosters_[op.market];
            const bool join = roster.size() <= kTenants - 2
                                  ? true
                                  : roster.size() >= kTenants + 2
                                        ? false
                                        : rng.below(2) == 0;
            if (join) {
                op.kind = OpKind::Join;
                op.tenant = nextTenant_[op.market]++;
                op.app = rng.below(apps_.size());
                roster.push_back({op.tenant, op.app});
            } else {
                op.kind = OpKind::Leave;
                const std::size_t k = rng.below(roster.size());
                op.tenant = roster[k].first;
                roster.erase(roster.begin() +
                             static_cast<std::ptrdiff_t>(k));
            }
        } else {
            op.kind = OpKind::Demand;
            const auto &roster = rosters_[op.market];
            op.tenant = roster[rng.below(roster.size())].first;
            op.weight = 0.25 + 1.75 * rng.unit();
        }
        // Reads: a TickNow after every 1024 reads, a GetStats after
        // every 4096 (half way between two ticks, so it does not queue
        // behind one).  Writes: a TickNow after every 64 mutating ops,
        // a GetStats after every 4096 ops.
        if (write_) {
            if (op.kind != OpKind::Read && ++mutating_ % 64 == 0)
                queued_.push_back(Op{OpKind::Tick, 0, 0, 1.0, 0});
            if (i % 4096 == 4095)
                queued_.push_back(Op{OpKind::Stats, 0, 0, 1.0, 0});
        } else {
            if (++reads_ % 1024 == 0)
                queued_.push_back(Op{OpKind::Tick, 0, 0, 1.0, 0});
            if (reads_ % 4096 == 512)
                queued_.push_back(Op{OpKind::Stats, 0, 0, 1.0, 0});
        }
        return op;
    }

    serve::Request request(const Op &op) const
    {
        const std::uint64_t id = marketId(op.market);
        switch (op.kind) {
        case OpKind::Read:
            return serve::GetAllocation{id};
        case OpKind::Demand:
            return serve::SubmitDemand{id, op.tenant, op.weight};
        case OpKind::Join:
            return serve::JoinTenant{id, op.tenant, apps_[op.app]};
        case OpKind::Leave:
            return serve::LeaveTenant{id, op.tenant};
        case OpKind::Tick:
            return serve::TickNow{};
        case OpKind::Stats:
            return serve::GetStats{};
        }
        return serve::GetStats{};
    }

  private:
    std::uint64_t seed_;
    bool write_;
    const std::vector<std::string> &apps_;
    std::size_t markets_;
    /** (tenant id, app index) per market, in roster order. */
    std::vector<std::vector<std::pair<std::uint64_t, std::size_t>>> rosters_;
    std::vector<std::uint64_t> nextTenant_;
    std::deque<Op> queued_;
    std::uint64_t index_ = 0;
    std::uint64_t mutating_ = 0;
    std::uint64_t reads_ = 0;
};

std::vector<std::string>
catalogNames()
{
    std::vector<std::string> names;
    for (const auto &p : app::spec24Catalog())
        names.push_back(p.name);
    return names;
}

// --- daemon process ----------------------------------------------------------

struct DaemonFlags
{
    bool durable = false;
    std::string stateDir;
    std::vector<std::string> args() const
    {
        std::vector<std::string> a = {"--socket",  "d.sock",
                                      "--tick-ms", "0",
                                      "--jobs",    std::to_string(kJobs),
                                      "--shards",  std::to_string(kShards)};
        if (durable) {
            a.insert(a.end(), {"--state-dir", stateDir, "--snapshot-ticks",
                               std::to_string(kSnapshotTicks),
                               "--no-fsync"});
        }
        return a;
    }
};

/** Spawn @p argv with stdout/stderr to @p log; returns the pid or -1. */
pid_t
spawnLogged(const std::vector<std::string> &argv, const std::string &log)
{
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    std::vector<char *> cargv;
    for (const auto &a : argv)
        cargv.push_back(const_cast<char *>(a.c_str()));
    cargv.push_back(nullptr);
    pid_t pid = -1;
    unpinSelf();
    const int rc = ::posix_spawn(&pid, cargv[0], &fa, nullptr, cargv.data(),
                                 environ);
    posix_spawn_file_actions_destroy(&fa);
    return rc == 0 ? pid : -1;
}

/** Wait up to @p seconds for @p pid; returns the exit code, or -1 after
 * killing it on timeout or abnormal exit. */
int
waitExit(pid_t pid, double seconds)
{
    const std::uint64_t deadline =
        nowNs() + static_cast<std::uint64_t>(seconds * 1e9);
    int status = 0;
    for (;;) {
        const pid_t got = ::waitpid(pid, &status, WNOHANG);
        if (got == pid)
            return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
        if (got < 0 && errno != EINTR)
            return -1;
        if (nowNs() > deadline) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, &status, 0);
            return -1;
        }
        ::usleep(2000);
    }
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** One rebudgetd process plus the client connection to it.  The
 * destructor kills and reaps a daemon that is still running. */
class Daemon
{
  public:
    Daemon(const RunConfig &cfg, const DaemonFlags &flags, int index)
        : log_("daemon-" + std::to_string(index) + ".log")
    {
        std::vector<std::string> argv = {cfg.daemon};
        for (const auto &a : flags.args())
            argv.push_back(a);
        spawnNs_ = nowNs();
        pid_ = spawnLogged(argv, log_);
    }
    ~Daemon()
    {
        if (fd_ >= 0)
            ::close(fd_);
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            int status = 0;
            ::waitpid(pid_, &status, 0);
        }
    }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    pid_t pid() const { return pid_; }
    std::uint64_t spawnNs() const { return spawnNs_; }
    int fd() const { return fd_; }
    const std::string &log() const { return log_; }

    /** Connect (retrying until the daemon listens) and pin threads:
     * the client to the first CPU, the daemon's I/O thread and tick
     * workers one per following CPU. */
    bool connect(std::string &why)
    {
        if (pid_ <= 0) {
            why = "spawn failed";
            return false;
        }
        const std::uint64_t deadline = nowNs() + 60'000'000'000ull;
        while (nowNs() < deadline) {
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                why = "daemon exited during startup: " + slurp(log_);
                return false;
            }
            const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
            sockaddr_un addr{};
            addr.sun_family = AF_UNIX;
            std::strcpy(addr.sun_path, "d.sock");
            if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                          sizeof(addr)) == 0) {
                fd_ = fd;
                pin();
                return true;
            }
            ::close(fd);
            ::usleep(500);
        }
        why = "daemon did not listen within 60 s";
        return false;
    }

    /** Wait for a graceful exit after Shutdown; returns the exit code. */
    int reap()
    {
        if (fd_ >= 0) {
            ::close(fd_);
            fd_ = -1;
        }
        const int rc = waitExit(pid_, 60.0);
        pid_ = -1;
        return rc;
    }

  private:
    void pin()
    {
        const std::vector<int> cpus = allowedCpus();
        if (cpus.empty())
            return;
        pinThread(0, cpus[0]);
        std::size_t next = 1;
        for (const pid_t tid : threadsOf(pid_))
            pinThread(tid, cpus[next++ % cpus.size()]);
    }

    std::string log_;
    pid_t pid_ = -1;
    int fd_ = -1;
    std::uint64_t spawnNs_ = 0;
};

// --- client ------------------------------------------------------------------

/** What a read reply claimed, for the replica's bit-for-bit check. */
struct ReadRecord
{
    std::uint64_t market = 0;
    std::uint64_t tick = 0;
    std::uint64_t hash = 0;
};

/** Totals parsed from a GetStats JSON reply. */
struct StatsTotals
{
    std::uint64_t solves = 0;
    std::uint64_t failSafe = 0;
    std::uint64_t failed = 0;
    std::uint64_t epoch = 0;
};

std::uint64_t
sumField(const std::string &json, const std::string &key)
{
    std::uint64_t total = 0;
    const std::string pat = "\"" + key + "\": ";
    for (std::size_t at = json.find(pat); at != std::string::npos;
         at = json.find(pat, at + 1))
        total += std::strtoull(json.c_str() + at + pat.size(), nullptr, 10);
    return total;
}

StatsTotals
parseStats(const std::string &json)
{
    StatsTotals t;
    t.solves = sumField(json, "equilibrium_solves");
    t.failSafe = sumField(json, "fail_safe_trips");
    t.failed = sumField(json, "failed_solves");
    t.epoch = sumField(json, "epoch");
    return t;
}

/**
 * Pipelined client over one connection.  Sends ops from a Schedule,
 * keeps at most kWindow in flight, times each op from send to reply,
 * and validates every reply as it arrives.
 */
class Client
{
  public:
    Client(const Daemon &d, Result &r, std::size_t markets)
        : d_(d), r_(r), lastTick_(markets, 0),
          publishedSize_(markets, kTenants)
    {
        rbuf_.resize(1 << 16);
        for (const char *c : kClasses)
            spanIds_.push_back(Tracer::nameId(std::string("client.") + c));
    }

    struct Pending
    {
        std::uint64_t sendNs = 0;
        OpKind kind = OpKind::Read;
        std::size_t market = 0;
        /** Roster size the reply's publication must have. */
        std::size_t rosterSize = 0;
        bool measured = true;
    };

    /** Send one encoded request frame. */
    bool send(const serve::Request &req, const Pending &p)
    {
        frame_.clear();
        serve::encodeRequest(req, frame_);
        Pending q = p;
        q.rosterSize = publishedSize_[p.market];
        q.sendNs = nowNs();
        std::size_t off = 0;
        while (off < frame_.size()) {
            const ssize_t n = ::send(d_.fd(), frame_.data() + off,
                                     frame_.size() - off, MSG_NOSIGNAL);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                r_.fail(std::string("send: ") + std::strerror(errno));
                return false;
            }
            off += static_cast<std::size_t>(n);
        }
        inflight_.push_back(q);
        return true;
    }

    /** Receive and handle at least one reply, busy-polling the socket
     * (the client has a CPU of its own); false when the connection
     * died.  Replies that arrive together share one receive time. */
    bool receive()
    {
        for (;;) {
            const ssize_t n = ::recv(d_.fd(), rbuf_.data(), rbuf_.size(),
                                     MSG_DONTWAIT);
            if (n == 0) {
                r_.fail("daemon closed the connection");
                return false;
            }
            if (n < 0) {
                if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
                    continue;
                r_.fail(std::string("recv: ") + std::strerror(errno));
                return false;
            }
            const std::uint64_t recv_ns = nowNs();
            reader_.feed(rbuf_.data(), static_cast<std::size_t>(n));
            bool handled = false;
            for (;;) {
                const auto got = reader_.next(payload_);
                if (got == serve::FrameReader::Result::NeedMore)
                    break;
                if (got == serve::FrameReader::Result::Error) {
                    r_.fail("reply framing: " + reader_.error());
                    return false;
                }
                if (inflight_.empty()) {
                    r_.fail("reply with no request in flight");
                    return false;
                }
                const Pending p = inflight_.front();
                inflight_.pop_front();
                handle(p, recv_ns);
                handled = true;
            }
            if (handled)
                return true;
        }
    }

    std::size_t inflight() const { return inflight_.size(); }
    bool tickInFlight() const
    {
        for (const Pending &p : inflight_) {
            if (p.kind == OpKind::Tick)
                return true;
        }
        return false;
    }

    /** After a TickNow is sent: markets' next publications carry the
     * schedule's current roster sizes. */
    void notePublished(const Schedule &s)
    {
        for (std::size_t m = 0; m < s.markets(); ++m)
            publishedSize_[m] = s.rosterSize(m);
    }

    Samples latency;
    /** Latency per op class, indexed like kClasses. */
    Samples byClass[std::size(kClasses)];
    std::uint64_t measuredOps = 0;
    std::uint64_t failed = 0;
    std::vector<ReadRecord> reads;
    std::string lastStats;
    Tracer *tracer = nullptr;

  private:
    void bad(const std::string &why)
    {
        failed += 1;
        r_.fail(why);
    }

    /** Time and check the reply in payload_ to request @p p. */
    void handle(const Pending &p, std::uint64_t recv_ns)
    {
        if (p.measured) {
            measuredOps += 1;
            latency.add(recv_ns - p.sendNs);
            const std::size_t cls = classIndex(p.kind);
            byClass[cls].add(recv_ns - p.sendNs);
            if (tracer)
                tracer->add(spanIds_[cls], measuredOps, p.sendNs, recv_ns);
        }
        const auto decoded =
            serve::decodeResponse(payload_.data(), payload_.size());
        if (!decoded.ok()) {
            bad(std::string("undecodable reply to ") + opClass(p.kind) +
                ": " + decoded.status().toString());
            return;
        }
        const serve::Response &resp = decoded.value();
        if (const auto *e = std::get_if<serve::ErrorReply>(&resp)) {
            bad(std::string("error reply to ") + opClass(p.kind) + ": " +
                e->message);
            return;
        }
        switch (p.kind) {
        case OpKind::Read:
            if (const auto *a = std::get_if<serve::AllocationReply>(&resp))
                checkAllocation(p, *a);
            else
                bad("GetAllocation got a non-Allocation reply");
            return;
        case OpKind::Stats:
            if (const auto *s = std::get_if<serve::StatsReply>(&resp))
                lastStats = s->json;
            else
                bad("GetStats got a non-Stats reply");
            return;
        default:
            if (!std::holds_alternative<serve::AckReply>(resp))
                bad(std::string(opClass(p.kind)) + " got a non-Ack reply");
            return;
        }
    }

    void checkAllocation(const Pending &p, const serve::AllocationReply &a)
    {
        if (a.market != Schedule::marketId(p.market)) {
            bad("Allocation reply for the wrong market");
            return;
        }
        if (a.players.size() != p.rosterSize) {
            bad("Allocation roster size " + std::to_string(a.players.size()) +
                " != " + std::to_string(p.rosterSize));
            return;
        }
        bool widths = a.prices.size() == kResources;
        double mass = 0.0;
        for (const serve::TenantAllocation &t : a.players) {
            widths = widths && t.alloc.size() == kResources;
            mass += t.budget;
        }
        if (!widths) {
            bad("Allocation reply has wrong row widths");
            return;
        }
        const auto n = static_cast<double>(a.players.size());
        if (std::fabs(mass - n) > 1e-6 * n) {
            bad("Allocation budget mass " + std::to_string(mass));
            return;
        }
        if (a.tick < lastTick_[p.market]) {
            bad("Allocation tick went backwards");
            return;
        }
        lastTick_[p.market] = a.tick;
        // The raw payload's hash, for the replica's bit-for-bit check.
        reads.push_back(
            {p.market, a.tick, fnv1a(payload_.data(), payload_.size())});
    }

    const Daemon &d_;
    Result &r_;
    std::vector<std::uint32_t> spanIds_;
    std::vector<std::uint64_t> lastTick_;
    std::vector<std::size_t> publishedSize_;
    std::deque<Pending> inflight_;
    std::vector<std::uint8_t> frame_;
    std::vector<std::uint8_t> rbuf_;
    serve::FrameReader reader_;
    /** Payload of the reply being handled. */
    std::vector<std::uint8_t> payload_;
};

/** Send one unmeasured control request and wait for its reply. */
bool
control(Client &c, const serve::Request &req, OpKind kind,
        std::size_t market = 0)
{
    Client::Pending p;
    p.kind = kind;
    p.market = market;
    p.measured = false;
    if (!c.send(req, p))
        return false;
    while (c.inflight() != 0) {
        if (!c.receive())
            return false;
    }
    return true;
}

/** Cold start: markets created, first epoch solved, first allocation
 * served.  Returns seconds since spawn, or -1 on failure. */
double
setupDaemon(Daemon &d, Client &c, const Schedule &s, Result &r)
{
    std::string why;
    if (!d.connect(why)) {
        r.fail(why);
        return -1.0;
    }
    for (std::size_t m = 0; m < s.markets(); ++m) {
        Client::Pending p;
        p.kind = OpKind::Demand; // expects an Ack
        p.measured = false;
        if (!c.send(s.create(m), p))
            return -1.0;
        while (c.inflight() >= 32) {
            if (!c.receive())
                return -1.0;
        }
    }
    while (c.inflight() != 0) {
        if (!c.receive())
            return -1.0;
    }
    if (!control(c, serve::TickNow{}, OpKind::Tick) ||
        !control(c, serve::GetAllocation{Schedule::marketId(0)},
                 OpKind::Read, 0))
        return -1.0;
    return static_cast<double>(nowNs() - d.spawnNs()) * 1e-9;
}

bool
shutdownDaemon(Daemon &d, Client &c, Result &r)
{
    if (!control(c, serve::Shutdown{}, OpKind::Demand))
        return false;
    const int rc = d.reap();
    if (rc != 0) {
        r.fail("daemon exited with " + std::to_string(rc) + ": " +
               slurp(d.log()));
        return false;
    }
    return true;
}

/** Drive the schedule for @p seconds; returns ops sent. */
std::uint64_t
drive(Client &c, Schedule &s, bool write, double seconds)
{
    const std::uint64_t t0 = nowNs();
    const auto limit = static_cast<std::uint64_t>(seconds * 1e9);
    std::uint64_t sent = 0;
    for (;;) {
        const bool sending = nowNs() - t0 < limit;
        while (sending && c.inflight() < kWindow &&
               !(write && c.tickInFlight())) {
            const Op op = s.next();
            Client::Pending p;
            p.kind = op.kind;
            p.market = op.market;
            if (!c.send(s.request(op), p))
                return sent;
            sent += 1;
            if (op.kind == OpKind::Tick)
                c.notePublished(s);
        }
        if (!sending && c.inflight() == 0)
            return sent;
        if (!c.receive())
            return sent;
    }
}

// --- replica -----------------------------------------------------------------

/** Journal sink that forwards to a PersistManager and times the call
 * (plus a CRC32C of the same payload) from outside. */
class TimedJournal final : public serve::JournalSink
{
  public:
    explicit TimedJournal(serve::PersistManager &pm) : pm_(pm) {}
    void journalOp(std::size_t shard, const std::uint8_t *payload,
                   std::size_t size) override
    {
        const std::uint64_t a = nowNs();
        pm_.journalOp(shard, payload, size);
        const std::uint64_t b = nowNs();
        (void)util::crc32c(payload, size);
        const std::uint64_t c = nowNs();
        const std::lock_guard<std::mutex> lock(mutex_);
        journal.add(b - a);
        crcNs += c - b;
        crcBytes += size;
    }
    void opApplied(std::size_t shard) override { pm_.opApplied(shard); }

    Samples journal;
    std::uint64_t crcNs = 0;
    std::uint64_t crcBytes = 0;

  private:
    serve::PersistManager &pm_;
    std::mutex mutex_;
};

std::uint64_t
fileBytes(const std::string &dir, const char *suffix)
{
    std::uint64_t total = 0;
    for (std::size_t s = 0; s < kShards; ++s) {
        struct stat st{};
        const std::string p =
            dir + "/shard-" + std::to_string(s) + suffix;
        if (::stat(p.c_str(), &st) == 0)
            total += static_cast<std::uint64_t>(st.st_size);
    }
    return total;
}

serve::ServeConfig
replicaConfig()
{
    serve::ServeConfig c;
    c.shards = kShards;
    c.jobs = kJobs;
    return c;
}

/** Encoded Allocation payload hash of every market's publication. */
void
publicationHashes(const serve::ServerCore &core, std::size_t markets,
                  std::vector<std::uint64_t> &out)
{
    serve::AllocationReply reply;
    serve::ErrorReply err;
    std::vector<std::uint8_t> buf;
    out.assign(markets, 0);
    for (std::size_t m = 0; m < markets; ++m) {
        if (!core.readAllocation({Schedule::marketId(m)}, reply, err))
            continue;
        buf.clear();
        serve::encodeResponse(reply, buf);
        out[m] = fnv1a(buf.data() + 4, buf.size() - 4);
    }
}

/** Epochs after setup whose solver counters every run of one seed
 * must reproduce exactly (all runs reach it well within a second). */
constexpr std::uint64_t kPrefixTicks = 64;

/** Record the replica's deterministic counters at the prefix epoch. */
void
notePrefix(Result &r, const serve::ServerCore &core,
           std::pair<std::uint64_t, std::uint64_t> solves_sweeps)
{
    std::uint64_t fail_safe = 0;
    for (std::size_t i = 0; i < core.shardCount(); ++i)
        fail_safe += static_cast<std::uint64_t>(
            core.shard(i).solverStats().failSafeTrips);
    r.counters["serve.prefix_solves"] = solves_sweeps.first;
    r.counters["serve.prefix_sweeps"] = solves_sweeps.second;
    r.counters["serve.prefix_fail_safe_trips"] = fail_safe;
    r.counters["serve.prefix_digest_low32"] = core.digest() & 0xffffffffu;
}

struct ReplayOutcome
{
    std::uint64_t digest = 0;
    std::uint64_t epoch = 0;
};

/**
 * Replay @p ops requests of the schedule on an in-process core (the
 * daemon's config, synchronous apply) and check every recorded read
 * against the replica's publication at the read's tick.  With
 * @p traced, also time each call into serve from outside and run a
 * second core through the async write plane with a timed journal.
 */
ReplayOutcome
replay(const RunConfig &cfg, bool write, std::uint64_t ops,
       const std::vector<ReadRecord> &reads, Result &r, bool traced,
       const std::string &span_prefix, std::uint64_t &failed)
{
    // The client pinned this thread to one CPU, and the replica's pool
    // workers inherit its affinity.  The daemon is gone by now, so let
    // them run on every allowed CPU, as the daemon's workers did.
    unpinSelf();
    const std::vector<std::string> apps = catalogNames();
    Schedule s(cfg.seed, write, apps);
    serve::ServerCore core(replicaConfig());
    for (std::size_t m = 0; m < s.markets(); ++m)
        core.apply(s.create(m));
    core.tick();

    // Timed twin on the async write plane (traced serve_write only).
    // Declared after everything its workers touch, so it is destroyed
    // (its pool joined) first.
    const bool async = traced && write;
    std::vector<std::uint64_t> sinkNs;
    std::atomic<std::uint64_t> sunk{0};
    std::unique_ptr<serve::PersistManager> pm;
    std::unique_ptr<TimedJournal> journal;
    std::unique_ptr<serve::ServerCore> twin;
    const std::string dir = "replica-state";
    if (async) {
        twin = std::make_unique<serve::ServerCore>(replicaConfig());
        for (std::size_t m = 0; m < s.markets(); ++m)
            twin->apply(s.create(m));
        twin->tick();
        serve::PersistConfig pc;
        pc.dir = dir;
        pc.fsyncData = false;
        pc.fsyncJournal = false;
        pm = std::make_unique<serve::PersistManager>(pc, kShards);
        if (!pm->init().ok() || !pm->snapshotAll(*twin).ok())
            r.fail("replica state dir setup failed");
        journal = std::make_unique<TimedJournal>(*pm);
        twin->setJournal(journal.get());
        sinkNs.assign(ops + 1, 0);
        twin->setReplySink([&](std::uint64_t, std::uint64_t seq,
                               std::vector<std::uint8_t> &&) {
            sinkNs[seq] = nowNs();
            sunk.fetch_add(1, std::memory_order_release);
        });
    }

    Tracer tr;
    Tracer *t = traced ? &tr : nullptr;
    const std::uint32_t kRead = Tracer::nameId("serve.read");
    const std::uint32_t kStats = Tracer::nameId("serve.stats");
    const std::uint32_t kTick = Tracer::nameId("serve.tick");
    const std::uint32_t kApply = Tracer::nameId("serve.apply");
    const std::uint32_t kSnap = Tracer::nameId("serve.snapshot");
    const std::uint32_t kWrite = Tracer::nameId("serve.write");
    std::map<std::string, std::uint32_t> kOp;
    for (const char *c : kClasses)
        kOp[c] = Tracer::nameId(std::string("serve.op.") + c);

    std::vector<std::uint64_t> cur;
    std::vector<std::uint64_t> prev;
    publicationHashes(core, s.markets(), cur);
    prev = cur;
    std::size_t next_read = 0;
    std::uint64_t submitted = 0;
    Samples codec_ns;
    Samples write_us;
    Samples queue_wait;
    Samples depth;
    Samples snap_bytes;
    std::uint64_t ticks = 0;
    std::uint64_t journal_bytes = 0;
    std::uint64_t journal_ops = 0;
    std::vector<std::uint64_t> submitNs;
    std::vector<std::uint64_t> applyNs;
    serve::AllocationReply reply;
    serve::ErrorReply err;
    std::vector<std::uint8_t> buf;

    auto solverTotals = [&] {
        std::uint64_t solves = 0;
        std::uint64_t sweeps = 0;
        for (std::size_t i = 0; i < core.shardCount(); ++i) {
            const auto st = core.shard(i).solverStats();
            solves += static_cast<std::uint64_t>(st.equilibriumSolves);
            sweeps += static_cast<std::uint64_t>(st.sweepIterations);
        }
        return std::make_pair(solves, sweeps);
    };
    auto shardTicks = [&] {
        std::int64_t run = 0;
        std::int64_t steady = 0;
        for (std::size_t i = 0; i < core.shardCount(); ++i) {
            run += core.shard(i).counters().ticksRun;
            steady += core.shard(i).counters().steadyTicks;
        }
        return std::make_pair(run, steady);
    };
    const auto solver0 = solverTotals();
    const auto ticks0 = shardTicks();
    std::uint64_t journal_mark = async ? fileBytes(dir, ".journal") : 0;

    auto waitSunk = [&](std::uint64_t target) {
        while (sunk.load(std::memory_order_acquire) < target)
            std::this_thread::yield();
    };

    for (std::uint64_t i = 0; i < ops; ++i) {
        const Op op = s.next();
        const serve::Request req = s.request(op);
        const char *cls = opClass(op.kind);
        // Codec: encode + decode of the request and of its response,
        // summed per op (the daemon encodes replies on the op's path;
        // the decodes are the client's side of the same bytes).
        std::uint64_t codec = 0;
        auto timeCodec = [&](auto &&fn) {
            const std::uint64_t a = nowNs();
            fn();
            codec += nowNs() - a;
        };
        if (t) {
            timeCodec([&] {
                buf.clear();
                serve::encodeRequestPayload(req, buf);
                (void)serve::decodeRequest(buf.data(), buf.size());
            });
        }
        switch (op.kind) {
        case OpKind::Read: {
            const std::uint64_t id = Schedule::marketId(op.market);
            bool ok = false;
            {
                ScopedSpan os(t, kOp[cls], i);
                {
                    ScopedSpan rs(t, kRead, i);
                    ok = core.readAllocation({id}, reply, err);
                }
                if (t) {
                    timeCodec([&] {
                        buf.clear();
                        serve::encodeResponse(reply, buf);
                    });
                }
            }
            if (t) {
                timeCodec([&] {
                    (void)serve::decodeResponse(buf.data() + 4,
                                                buf.size() - 4);
                });
            }
            if (!ok) {
                failed += 1;
                r.fail("replica read failed: " + err.message);
            }
            if (next_read >= reads.size())
                break;
            // serve_write sends nothing past a TickNow before its ack,
            // so its reads see exactly the replica's epoch; serve_read
            // reads may also see the epoch before the last TickNow.
            const ReadRecord &rec = reads[next_read++];
            std::uint64_t want = 0;
            if (rec.tick == core.epoch())
                want = cur[op.market];
            else if (!write && rec.tick + 1 == core.epoch())
                want = prev[op.market];
            if (rec.market != op.market || want == 0 || want != rec.hash) {
                failed += 1;
                r.fail("read of market " +
                       std::to_string(Schedule::marketId(op.market)) +
                       " at tick " + std::to_string(rec.tick) +
                       " differs from the replica (epoch " +
                       std::to_string(core.epoch()) + ")");
            }
            break;
        }
        case OpKind::Demand:
        case OpKind::Join:
        case OpKind::Leave: {
            const std::uint64_t a = nowNs();
            const serve::Response resp = core.apply(req);
            const std::uint64_t b = nowNs();
            if (!std::holds_alternative<serve::AckReply>(resp)) {
                failed += 1;
                r.fail("replica rejected a write");
            }
            if (t) {
                timeCodec([&] {
                    buf.clear();
                    serve::encodeResponse(resp, buf);
                    (void)serve::decodeResponse(buf.data() + 4,
                                                buf.size() - 4);
                });
            }
            if (!async)
                break;
            t->add(kApply, i, a, b);
            applyNs.push_back(b - a);
            // Same op through the async plane, at most kWindow queued.
            waitSunk(submitted + 1 > kWindow ? submitted + 1 - kWindow : 0);
            buf.clear();
            serve::encodeRequestPayload(req, buf);
            submitNs.push_back(nowNs());
            twin->submitFrame(Schedule::marketId(op.market), std::move(buf),
                              1, submitted++);
            buf = {};
            break;
        }
        case OpKind::Tick: {
            if (async) {
                depth.add(twin->pendingOps());
                waitSunk(submitted);
                twin->tick();
                if (twin->epoch() % kSnapshotTicks == 0) {
                    journal_bytes += fileBytes(dir, ".journal") - journal_mark;
                    const std::uint64_t a = nowNs();
                    if (!pm->snapshotAll(*twin).ok())
                        r.fail("replica snapshot failed");
                    t->add(kSnap, i, a, nowNs());
                    snap_bytes.add(fileBytes(dir, ".snap"));
                    journal_mark = fileBytes(dir, ".journal");
                }
            }
            {
                // What the daemon does for a TickNow: one epoch.
                ScopedSpan os(t, kOp[cls], i);
                ScopedSpan ts(t, kTick, i);
                core.tick();
            }
            ticks += 1;
            prev.swap(cur);
            publicationHashes(core, s.markets(), cur);
            if (core.epoch() == kPrefixTicks + 1)
                notePrefix(r, core, solverTotals());
            if (t) {
                timeCodec([&] {
                    buf.clear();
                    serve::encodeResponse(serve::AckReply{}, buf);
                    (void)serve::decodeResponse(buf.data() + 4,
                                                buf.size() - 4);
                });
            }
            break;
        }
        case OpKind::Stats: {
            {
                ScopedSpan os(t, kOp[cls], i);
                std::string json;
                {
                    ScopedSpan ss(t, kStats, i);
                    json = core.statsJson();
                }
                if (t) {
                    timeCodec([&] {
                        buf.clear();
                        serve::encodeResponse(
                            serve::StatsReply{std::move(json)}, buf);
                    });
                }
            }
            if (t) {
                timeCodec([&] {
                    (void)serve::decodeResponse(buf.data() + 4,
                                                buf.size() - 4);
                });
            }
            break;
        }
        }
        if (t)
            codec_ns.add(codec);
    }
    if (next_read != reads.size()) {
        failed += 1;
        r.fail("replica replayed " + std::to_string(next_read) + " of " +
               std::to_string(reads.size()) + " reads");
    }

    ReplayOutcome out;
    out.digest = core.digest();
    out.epoch = core.epoch();
    if (!traced)
        return out;

    const auto spans = summarizeSpans({&tr});
    addSpanTable(r, spans);
    addSpanP50(r, "serve.read_ns", spans, "serve.read", 1.0, "ns");
    r.set("serve.codec_ns", codec_ns.quantileNs(0.5), "ns", codec_ns.size());
    addSpanP50(r, "serve.stats_us", spans, "serve.stats", 1e-3, "us");
    addSpanP50(r, "serve.tick_us", spans, "serve.tick", 1e-3, "us");
    for (const char *c : kClasses)
        addSpanP50(r, std::string("serve.inproc_us.") + c, spans,
                   std::string("serve.op.") + c, 1e-3, "us");
    const auto solver1 = solverTotals();
    if (ticks != 0) {
        r.set("serve.solves_per_tick",
              static_cast<double>(solver1.first - solver0.first) /
                  static_cast<double>(ticks),
              "count", ticks);
        r.set("serve.sweeps_per_tick",
              static_cast<double>(solver1.second - solver0.second) /
                  static_cast<double>(ticks),
              "count", ticks);
        const auto ticks1 = shardTicks();
        const std::int64_t shard_ticks = ticks1.first - ticks0.first;
        r.set("serve.steady_tick_share",
              static_cast<double>(ticks1.second - ticks0.second) /
                  static_cast<double>(std::max<std::int64_t>(shard_ticks, 1)),
              "ratio", static_cast<std::uint64_t>(shard_ticks));
    }
    // Market layer seen through the shards' SolverStats.
    SolverTotals mt;
    for (std::size_t i = 0; i < core.shardCount(); ++i) {
        const auto st = core.shard(i).solverStats();
        mt.solves += static_cast<std::uint64_t>(st.equilibriumSolves);
        mt.sweeps += static_cast<std::uint64_t>(st.sweepIterations);
        mt.steps += static_cast<std::uint64_t>(st.hillClimbSteps);
        mt.warm += static_cast<std::uint64_t>(st.warmStartedSolves);
        mt.failSafe += static_cast<std::uint64_t>(st.failSafeTrips);
        mt.solveSeconds += st.solveSeconds;
    }
    mt.ops = ops;
    addMarketMetrics(r, mt);

    if (async) {
        waitSunk(submitted);
        if (twin->digest() != out.digest)
            r.fail("async-plane replica digest differs from the sync one");
        for (std::size_t k = 0; k < submitNs.size(); ++k) {
            const std::uint64_t w = sinkNs[k] - submitNs[k];
            write_us.add(w);
            queue_wait.add(w > applyNs[k] ? w - applyNs[k] : 0);
            t->add(kWrite, k, submitNs[k], sinkNs[k]);
        }
        journal_bytes += fileBytes(dir, ".journal") - journal_mark;
        journal_ops = journal->journal.size();
        r.set("serve.write_us", write_us.quantileNs(0.5) * 1e-3, "us",
              write_us.size());
        r.set("serve.queue_wait_us", queue_wait.quantileNs(0.5) * 1e-3, "us",
              queue_wait.size());
        r.set("serve.queue_depth",
              depth.size() ? depth.sumNs() / static_cast<double>(depth.size())
                           : 0.0,
              "count", depth.size());
        r.set("serve.journal_us", journal->journal.quantileNs(0.5) * 1e-3,
              "us", journal_ops);
        // Journal growth excludes each rotated file's 12-byte header.
        r.set("serve.journal_bytes_per_op",
              journal_ops ? static_cast<double>(journal_bytes) /
                                static_cast<double>(journal_ops)
                          : 0.0,
              "B", journal_ops);
        r.set("util.crc32c_ns_per_kib",
              journal->crcBytes ? static_cast<double>(journal->crcNs) *
                                      1024.0 /
                                      static_cast<double>(journal->crcBytes)
                                : 0.0,
              "ns", journal_ops);
        const std::uint64_t a = nowNs();
        if (!pm->snapshotAll(*twin).ok())
            r.fail("replica snapshot failed");
        t->add(kSnap, ops, a, nowNs());
        snap_bytes.add(fileBytes(dir, ".snap"));
        const auto spans2 = summarizeSpans({&tr});
        addSpanTable(r, spans2);
        addSpanP50(r, "serve.snapshot_ms", spans2, "serve.snapshot", 1e-6,
                   "ms");
        r.set("serve.snapshot_bytes", snap_bytes.quantileNs(0.5), "B",
              snap_bytes.size());
        twin->setJournal(nullptr);
    }
    writeSpans({&tr}, span_prefix + "replica.tsv", 200000);
    return out;
}

/** Filesystem holding @p path, for the flush-policy provenance line. */
std::string
fsType(const std::string &path)
{
    struct statfs st{};
    if (::statfs(path.c_str(), &st) != 0)
        return "unknown";
    const auto magic = static_cast<unsigned long>(st.f_type);
    if (magic == 0x01021994ul)
        return "tmpfs";
    if (magic == 0xEF53ul)
        return "ext4";
    char b[32];
    std::snprintf(b, sizeof(b), "fs 0x%lx", magic);
    return b;
}

/** One measured daemon session; fills end-to-end or per-layer metrics
 * and checks correctness against the replica. */
void
session(const RunConfig &cfg, bool write, bool probe, Result &r,
        std::vector<double> &setups)
{
    const std::string span_prefix = probe ? "spans-probe-" : "spans-";
    const std::vector<std::string> apps = catalogNames();
    Schedule s(cfg.seed, write, apps);
    const DaemonFlags flags{write, "state"};
    Daemon d(cfg, flags, 0);
    Client client(d, r, s.markets());
    const double setup = setupDaemon(d, client, s, r);
    if (setup < 0) {
        r.failed += 1;
        r.attempted += 1;
        return;
    }
    setups.push_back(setup);
    client.reads.clear(); // the setup probe read is not part of the schedule
    if (!control(client, serve::GetStats{}, OpKind::Stats))
        return;
    const StatsTotals st0 = parseStats(client.lastStats);
    const std::uint64_t t0 = nowNs();
    std::uint64_t sent = 0;
    Samples plain;
    double plain_wall = 0.0;
    if (cfg.trace && !probe) {
        sent += drive(client, s, write, cfg.seconds / 2);
        plain_wall = static_cast<double>(nowNs() - t0) * 1e-9;
        plain = client.latency;
        client.latency = Samples();
        for (Samples &c : client.byClass)
            c = Samples();
    }
    Tracer client_tr;
    Windows windows;
    if (cfg.trace) {
        client.tracer = &client_tr;
        sent += drive(client, s, write, probe ? cfg.seconds : cfg.seconds / 2);
        client.tracer = nullptr;
    } else {
        Samples all;
        for (int w = 0; w < kWindows; ++w) {
            const std::uint64_t c0 = procCpuNs(d.pid());
            const std::uint64_t ops0 = client.measuredOps;
            client.latency = Samples();
            sent += drive(client, s, write, cfg.seconds / kWindows);
            windows.add(client.latency, client.measuredOps - ops0,
                        procCpuNs(d.pid()) - c0);
            all.append(client.latency);
        }
        client.latency = all;
    }
    const double wall = static_cast<double>(nowNs() - t0) * 1e-9;
    const double rss = peakRssMb(d.pid());
    control(client, serve::GetStats{}, OpKind::Stats);
    const StatsTotals st1 = parseStats(client.lastStats);
    const std::uint64_t solves = st1.solves - st0.solves;
    const std::uint64_t bad_solves =
        (st1.failSafe - st0.failSafe) + (st1.failed - st0.failed);
    r.attempted += sent;
    r.failed += client.failed;
    r.info["measured_solves"] = std::to_string(solves);
    r.info["measured_fail_safe_trips"] =
        std::to_string(st1.failSafe - st0.failSafe);
    const bool ok_shutdown = shutdownDaemon(d, client, r);
    if (!ok_shutdown)
        r.failed += 1;

    if (!cfg.trace) {
        const std::uint64_t ops = client.measuredOps;
        r.set("latency_p50_us", median(windows.p50Us), "us",
              client.latency.size());
        r.set("latency_p99_us", client.latency.quantileNs(0.99) * 1e-3,
              "us", client.latency.size());
        r.set("ops_per_s", static_cast<double>(ops) / wall, "1/s", ops);
        r.set("cpu_us_per_op", median(windows.cpuUsPerOp), "us", ops);
        r.set("peak_rss_mb", rss, "MiB", 1);
        r.set("converged_share",
              solves ? static_cast<double>(solves - bad_solves) /
                           static_cast<double>(solves)
                     : 1.0,
              "ratio", solves);
    } else {
        for (std::size_t k = 0; k < std::size(kClasses); ++k) {
            const Samples &c = client.byClass[k];
            if (c.size() != 0)
                r.set(std::string("client.rtt_us.") + kClasses[k],
                      c.quantileNs(0.5) * 1e-3, "us", c.size());
        }
        if (!probe) {
            r.set("trace.overhead_us",
                  (client.latency.quantileNs(0.5) - plain.quantileNs(0.5)) *
                      1e-3,
                  "us", client.latency.size());
            // Throughput and tail of the untraced half: over the socket
            // they vary too much between runs to gate, so they are
            // reported here rather than by the untraced run.
            r.set("ops_per_s", static_cast<double>(plain.size()) / plain_wall,
                  "1/s", plain.size());
            r.set("latency_p99_us", plain.quantileNs(0.99) * 1e-3, "us",
                  plain.size());
        }
        addSpanTable(r, summarizeSpans({&client_tr}));
        writeSpans({&client_tr}, span_prefix + "client.tsv", 200000);
    }

    // Correctness: replay the same schedule in process.
    std::uint64_t failed = 0;
    const ReplayOutcome rep = replay(cfg, write, sent, client.reads, r,
                                     cfg.trace, span_prefix, failed);
    r.failed += failed;
    if (rep.epoch != st1.epoch) {
        r.failed += 1;
        r.fail("replica epoch " + std::to_string(rep.epoch) +
               " != daemon epoch " + std::to_string(st1.epoch));
    }
    if (cfg.trace) {
        // Transport = client round trip minus in-process handling of
        // the same class (a write's in-process time is serve.write_us).
        for (const char *cls : kClasses) {
            const std::string rtt = std::string("client.rtt_us.") + cls;
            const std::string in = std::string(cls) == "write"
                                       ? std::string("serve.write_us")
                                       : std::string("serve.inproc_us.") + cls;
            if (r.metrics.count(rtt) && r.metrics.count(in)) {
                r.set(std::string("serve.transport_us.") + cls,
                      r.metrics[rtt].value - r.metrics[in].value, "us",
                      r.metrics[rtt].samples);
            }
        }
    }
    if (write && ok_shutdown) {
        // The daemon's durable state must recover to the replica's.
        const std::vector<std::string> argv = {
            cfg.daemon, "--verify-state", flags.stateDir, "--shards",
            std::to_string(kShards)};
        const pid_t pid = spawnLogged(argv, "verify.log");
        const int rc = pid > 0 ? waitExit(pid, 120.0) : -1;
        const std::string out = slurp("verify.log");
        char want[32];
        std::snprintf(want, sizeof(want), "digest %016llx",
                      static_cast<unsigned long long>(rep.digest));
        if (rc != 0 || out.find(want) == std::string::npos) {
            r.failed += 1;
            r.fail(std::string("verify-state does not recover the replica ")
                       .append(want)
                       .append(": ")
                       .append(out.substr(0, 300)));
        }
        r.info["flush_policy"] =
            "daemon --state-dir on " + fsType(".") +
            " with --no-fsync (one journal write(2) per op, no fsync); "
            "traced replica the same";
    }
    std::string a;
    for (const auto &x : flags.args())
        a += (a.empty() ? "" : " ") + x;
    r.info["daemon_flags"] = a;
}

} // namespace

Result
runServe(const RunConfig &cfg, bool write)
{
    Result r;
    std::vector<double> setups;
    if (cfg.trace) {
        // This process's cold profile and model builds: the replica
        // needs them, and they are the app and eval setup layers.
        Tracer tr;
        warmCatalog(&tr);
        setupLayerMetrics(r, tr);
    }
    // Extra cold starts first: each spawns a daemon, waits for its
    // first published allocation, and shuts it down.
    for (int i = 1; i < (cfg.trace ? 1 : kSetups); ++i) {
        const std::vector<std::string> apps = catalogNames();
        Schedule s(cfg.seed, write, apps);
        const DaemonFlags flags{write, "state-" + std::to_string(i)};
        Daemon d(cfg, flags, i);
        Client c(d, r, s.markets());
        const double setup = setupDaemon(d, c, s, r);
        if (setup < 0 || !shutdownDaemon(d, c, r)) {
            r.failed += 1;
            continue;
        }
        setups.push_back(setup);
    }
    session(cfg, write, false, r, setups);
    if (!cfg.trace)
        r.set("setup_s", median(setups), "s", setups.size());
    return r;
}

Result
probeServeWrite(const RunConfig &cfg)
{
    Result r;
    std::vector<double> setups;
    RunConfig pc = cfg;
    pc.trace = true;
    session(pc, true, true, r, setups);
    return r;
}

} // namespace perfbench
