/**
 * rebudgetload -- closed/open-loop load generator for rebudgetd.
 *
 * Drives a running daemon over its Unix-domain socket (--socket) or
 * loopback TCP port (--port) with a seeded, deterministic schedule of
 * GetAllocation reads, SubmitDemand writes and Join/Leave churn, then
 * prints per-class throughput and latency percentiles as
 * "rebudget.serve_load.v1" JSON.  Exit status is 0 only when every
 * reply decoded cleanly and no request drew a typed Error, so smoke
 * scripts (tools/serve_load_smoke.sh) can gate on it directly.
 *
 * Modes:
 *   closed (default)  each connection keeps --inflight requests
 *                     pipelined; throughput is whatever the daemon
 *                     sustains (classic closed loop).
 *   open              requests are released against a wall-clock
 *                     schedule of --rate ops/sec total, regardless of
 *                     completions (bounded by a safety cap so a stalled
 *                     daemon cannot queue unbounded memory).
 *
 * Determinism: every choice -- op class, target market, demand weight,
 * churn toggle -- derives from util::mix64 over (--seed, connection,
 * op index).  Two runs with the same flags issue the same request
 * sequence per connection; only the socket interleaving varies.  With
 * --emit-trace FILE the same schedule is serialized as a replay trace
 * (tools/serve_smoke.sh grammar) and the tool exits without
 * connecting, which is how serve_load_smoke cross-checks the schedule
 * against `rebudgetd --replay` digest invariance across --jobs.
 *
 * One thread owns all connections through a nonblocking poll loop;
 * replies arrive in per-connection request order (the daemon
 * sequences them), so latency matching is a FIFO per connection.
 */

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <algorithm>
#include <deque>
#include <string>
#include <vector>

#include <poll.h>

#include "rebudget/eval/bundle_runner.h"
#include "rebudget/serve/client.h"
#include "rebudget/serve/protocol.h"
#include "rebudget/util/arg_parse.h"
#include "rebudget/util/logging.h"
#include "rebudget/util/rng.h"
#include "rebudget/util/solver_stats.h"

using namespace rebudget;

namespace {

/** Per-class latency samples are capped; reads beyond the cap still
 * count toward throughput but stop recording. */
constexpr std::size_t kSampleCap = std::size_t{1} << 16;

/** Open mode: max replies outstanding per connection before the
 * schedule throttles (a stalled daemon must not queue unbounded). */
constexpr std::size_t kOpenInflightCap = 1024;

enum OpClass : std::uint8_t { kRead = 0, kWrite = 1, kChurn = 2 };

const char *const kClassNames[3] = {"read", "write", "churn"};

struct LoadOptions
{
    std::string socketPath;
    std::uint16_t port = 0;
    bool open = false;
    std::size_t connections = 2;
    std::size_t inflight = 8;
    double rate = 0.0;
    double seconds = 5.0;
    std::uint64_t opsPerConn = 0; // 0 = run on the clock
    std::size_t markets = 16;
    std::size_t players = 4;
    std::uint64_t mixRead = 90, mixWrite = 9, mixChurn = 1;
    std::uint64_t seed = 42;
    bool setup = true;
    std::string emitTrace;
    std::string outPath;
};

struct ClassStats
{
    std::uint64_t ops = 0;
    std::vector<double> samplesNs;
};

/** One scheduled request, fully determined by (seed, conn, index) and
 * the connection's churn toggle state. */
struct ScheduledOp
{
    OpClass cls = kRead;
    std::uint64_t market = 0;
    std::uint64_t tenant = 0;
    double weight = 0.0;
    bool join = false; // churn direction
};

struct Connection
{
    serve::Client client;
    std::size_t idx = 0;
    std::uint64_t key = 0;
    std::uint64_t opIndex = 0;
    /** (class, send timestamp) FIFO; the daemon keeps per-connection
     * reply order, so the head always matches the next frame. */
    std::deque<std::pair<std::uint8_t, double>> pending;
    /** Churn toggle per market for this connection's churn tenant. */
    std::vector<std::uint8_t> joined;
};

void
usage()
{
    std::fputs(
        "usage: rebudgetload (--socket PATH | --port N) [options]\n"
        "  --mode closed|open     loop discipline (default closed)\n"
        "  --connections N        parallel connections (default 2)\n"
        "  --inflight N           pipelined ops per connection, closed"
        " mode (default 8)\n"
        "  --rate R               total ops/sec, open mode\n"
        "  --seconds S            run duration (default 5)\n"
        "  --ops N                stop after N ops per connection"
        " instead of the clock\n"
        "  --markets M            markets to drive (default 16)\n"
        "  --players P            founding tenants per market"
        " (default 4)\n"
        "  --mix R:W:C            read:write:churn weights"
        " (default 90:9:1)\n"
        "  --seed N               schedule seed (default 42)\n"
        "  --no-setup             skip market creation + first tick\n"
        "  --emit-trace FILE      write the schedule as a replay trace"
        " and exit\n"
        "  --out FILE             write the JSON report to FILE\n",
        stderr);
}

/** The deterministic schedule: op @p i on connection @p key.  Churn
 * direction comes from @p joined, which the caller owns. */
ScheduledOp
scheduleOp(const LoadOptions &opt, std::uint64_t key, std::uint64_t i,
           std::vector<std::uint8_t> &joined, std::uint64_t churnTenant)
{
    ScheduledOp op;
    const std::uint64_t mixTotal =
        opt.mixRead + opt.mixWrite + opt.mixChurn;
    const std::uint64_t roll =
        util::mix64(key ^ (i * 0x9e3779b97f4a7c15ull)) % mixTotal;
    op.market =
        util::mix64(key ^ 0x51edull ^ (i * 0x2545f4914f6cdd1dull)) %
        opt.markets;
    if (roll < opt.mixRead) {
        op.cls = kRead;
    } else if (roll < opt.mixRead + opt.mixWrite) {
        op.cls = kWrite;
        op.tenant = util::mix64(key ^ 0xbeef ^ i) % opt.players;
        op.weight =
            0.25 +
            static_cast<double>(
                util::mix64(key ^ 0xfeed ^ (i * 0x9e3779b97f4a7c15ull)) %
                64) /
                16.0;
    } else {
        op.cls = kChurn;
        op.tenant = churnTenant;
        op.join = joined[op.market] == 0;
        joined[op.market] ^= 1;
    }
    return op;
}

serve::Request
toRequest(const ScheduledOp &op, const std::string &churnApp)
{
    switch (op.cls) {
    case kRead:
        return serve::GetAllocation{op.market};
    case kWrite:
        return serve::SubmitDemand{op.market, op.tenant, op.weight};
    case kChurn:
    default:
        if (op.join)
            return serve::JoinTenant{op.market, op.tenant, churnApp};
        return serve::LeaveTenant{op.market, op.tenant};
    }
}

/** Blocking request/reply round trip (setup phase only). */
void
expectAck(serve::Client &client, const serve::Request &req,
          const char *what)
{
    const auto resp = client.call(req);
    if (!resp.ok())
        util::fatal("%s: %s", what, resp.status().message().c_str());
    if (const auto *err = std::get_if<serve::ErrorReply>(&resp.value()))
        util::fatal("%s rejected: %s", what, err->message.c_str());
}

/** Create the market roster and run one tick so reads can't race the
 * first publication. */
void
setupMarkets(serve::Client &client, const LoadOptions &opt)
{
    for (std::uint64_t m = 0; m < opt.markets; ++m) {
        serve::CreateMarket create;
        create.market = m;
        const std::vector<std::string> apps =
            eval::syntheticAppNames(opt.players, opt.seed ^ m);
        for (std::uint64_t t = 0; t < opt.players; ++t)
            create.tenants.push_back({t, apps[t]});
        expectAck(client, create, "create");
    }
    expectAck(client, serve::TickNow{}, "tick");
}

/** Serialize the schedule as a replay trace: the same create/demand/
 * join/leave sequence the live run would issue (reads are not part of
 * the replay grammar), round-robin across connections with a tick
 * every 64 mutating lines.  Deterministic by construction, so the
 * emitted file replays to the same digest at any --jobs value. */
void
emitTrace(const LoadOptions &opt)
{
    std::FILE *f = std::fopen(opt.emitTrace.c_str(), "w");
    if (f == nullptr)
        util::fatal("open %s: %s", opt.emitTrace.c_str(),
                    std::strerror(errno));
    const std::uint64_t ops = opt.opsPerConn != 0 ? opt.opsPerConn : 256;
    std::fprintf(f,
                 "# rebudgetload --emit-trace: seed=%llu connections=%zu"
                 " ops=%llu markets=%zu players=%zu mix=%llu:%llu:%llu\n",
                 static_cast<unsigned long long>(opt.seed),
                 opt.connections, static_cast<unsigned long long>(ops),
                 opt.markets, opt.players,
                 static_cast<unsigned long long>(opt.mixRead),
                 static_cast<unsigned long long>(opt.mixWrite),
                 static_cast<unsigned long long>(opt.mixChurn));
    for (std::uint64_t m = 0; m < opt.markets; ++m) {
        const std::vector<std::string> apps =
            eval::syntheticAppNames(opt.players, opt.seed ^ m);
        std::fprintf(f, "create %llu ",
                     static_cast<unsigned long long>(m));
        for (std::size_t t = 0; t < apps.size(); ++t)
            std::fprintf(f, "%s%s", t == 0 ? "" : ",",
                         apps[t].c_str());
        std::fprintf(f, "\n");
    }
    std::fprintf(f, "tick\n");
    std::vector<std::vector<std::uint8_t>> joined(
        opt.connections, std::vector<std::uint8_t>(opt.markets, 0));
    const std::string churnApp =
        eval::syntheticAppNames(1, opt.seed ^ 0xc4u)[0];
    std::uint64_t mutations = 0;
    for (std::uint64_t i = 0; i < ops; ++i) {
        for (std::size_t c = 0; c < opt.connections; ++c) {
            const std::uint64_t key =
                util::mix64(opt.seed ^ (0x10ad ^ (c * 0x9e37ull)));
            const ScheduledOp op = scheduleOp(
                opt, key, i, joined[c], opt.players + c);
            if (op.cls == kRead)
                continue; // not in the replay grammar
            if (op.cls == kWrite) {
                std::fprintf(f, "demand %llu %llu %.6f\n",
                             static_cast<unsigned long long>(op.market),
                             static_cast<unsigned long long>(op.tenant),
                             op.weight);
            } else if (op.join) {
                std::fprintf(f, "join %llu %llu %s\n",
                             static_cast<unsigned long long>(op.market),
                             static_cast<unsigned long long>(op.tenant),
                             churnApp.c_str());
            } else {
                std::fprintf(f, "leave %llu %llu\n",
                             static_cast<unsigned long long>(op.market),
                             static_cast<unsigned long long>(op.tenant));
            }
            if (++mutations % 64 == 0)
                std::fprintf(f, "tick\n");
        }
    }
    std::fprintf(f, "tick 2\n");
    std::fclose(f);
}

struct RunResult
{
    ClassStats classes[3];
    std::uint64_t errors = 0;
    std::uint64_t decodeErrors = 0;
    std::uint64_t throttled = 0;
    double elapsed = 0.0;
    std::string firstError;
};

double
percentile(std::vector<double> &samples, double q)
{
    if (samples.empty())
        return 0.0;
    const std::size_t idx = static_cast<std::size_t>(
        q * static_cast<double>(samples.size() - 1));
    std::nth_element(samples.begin(),
                     samples.begin() + static_cast<std::ptrdiff_t>(idx),
                     samples.end());
    return samples[idx];
}

void
recordReply(Connection &conn, const std::uint8_t *payload,
            std::size_t size, double now, RunResult &out)
{
    if (conn.pending.empty()) {
        ++out.decodeErrors;
        if (out.firstError.empty())
            out.firstError = "reply with no request outstanding";
        return;
    }
    const auto [cls, sentAt] = conn.pending.front();
    conn.pending.pop_front();
    ClassStats &stats = out.classes[cls];
    ++stats.ops;
    if (stats.samplesNs.size() < kSampleCap)
        stats.samplesNs.push_back((now - sentAt) * 1e9);
    const auto resp = serve::decodeResponse(payload, size);
    if (!resp.ok()) {
        ++out.decodeErrors;
        if (out.firstError.empty())
            out.firstError = resp.status().message();
        return;
    }
    if (const auto *err = std::get_if<serve::ErrorReply>(&resp.value())) {
        ++out.errors;
        if (out.firstError.empty())
            out.firstError = err->message;
        return;
    }
    const bool wantAlloc = cls == kRead;
    const bool isAlloc =
        std::holds_alternative<serve::AllocationReply>(resp.value());
    if (wantAlloc != isAlloc) {
        ++out.errors;
        if (out.firstError.empty())
            out.firstError = "reply type does not match request class";
    }
}

RunResult
runLoad(const LoadOptions &opt)
{
    std::vector<Connection> conns(opt.connections);
    for (std::size_t c = 0; c < conns.size(); ++c) {
        const util::SolveStatus st =
            conns[c].client.connect(opt.socketPath, opt.port);
        if (!st.ok())
            util::fatal("%s", st.message().c_str());
        conns[c].idx = c;
        conns[c].key =
            util::mix64(opt.seed ^ (0x10ad ^ (c * 0x9e37ull)));
        conns[c].joined.assign(opt.markets, 0);
    }
    if (opt.setup)
        setupMarkets(conns[0].client, opt);
    for (Connection &conn : conns) {
        if (!serve::setNonBlocking(conn.client.fd()))
            util::fatal("fcntl(O_NONBLOCK): %s", std::strerror(errno));
    }

    const std::string churnApp =
        eval::syntheticAppNames(1, opt.seed ^ 0xc4u)[0];
    RunResult out;
    const double start = util::monotonicSeconds();
    const double deadline = start + opt.seconds;
    std::vector<pollfd> fds(conns.size());
    std::vector<std::uint8_t> payload;
    bool issuing = true;

    auto issueOn = [&](Connection &conn, double now) {
        const ScheduledOp op =
            scheduleOp(opt, conn.key, conn.opIndex, conn.joined,
                       opt.players + conn.idx);
        ++conn.opIndex;
        conn.client.queue(toRequest(op, churnApp));
        conn.pending.emplace_back(op.cls, now);
    };

    for (;;) {
        const double now = util::monotonicSeconds();
        if (issuing) {
            const bool clockDone =
                opt.opsPerConn == 0 && now >= deadline;
            bool opsDone = opt.opsPerConn != 0;
            for (const Connection &conn : conns)
                opsDone = opsDone && conn.opIndex >= opt.opsPerConn;
            if (clockDone || opsDone)
                issuing = false;
        }
        if (issuing) {
            if (!opt.open) {
                for (Connection &conn : conns) {
                    while (conn.pending.size() < opt.inflight &&
                           (opt.opsPerConn == 0 ||
                            conn.opIndex < opt.opsPerConn))
                        issueOn(conn, now);
                }
            } else {
                // Open loop: release against the wall-clock schedule,
                // round-robin, up to the outstanding safety cap.
                std::uint64_t issued = 0;
                for (const Connection &conn : conns)
                    issued += conn.opIndex;
                const auto due = static_cast<std::uint64_t>(
                    (now - start) * opt.rate);
                std::size_t next = 0;
                while (issued < due) {
                    Connection &conn = conns[next];
                    next = (next + 1) % conns.size();
                    if (opt.opsPerConn != 0 &&
                        conn.opIndex >= opt.opsPerConn)
                        break;
                    if (conn.pending.size() >= kOpenInflightCap) {
                        ++out.throttled;
                        break;
                    }
                    issueOn(conn, now);
                    ++issued;
                }
            }
        }
        bool anyPending = false;
        for (std::size_t c = 0; c < conns.size(); ++c) {
            fds[c].fd = conns[c].client.fd();
            fds[c].events = POLLIN;
            if (conns[c].client.wantsWrite())
                fds[c].events |= POLLOUT;
            fds[c].revents = 0;
            anyPending = anyPending || !conns[c].pending.empty();
        }
        if (!issuing && !anyPending)
            break;
        const int rc =
            ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                   opt.open && issuing ? 1 : 20);
        if (rc < 0 && errno != EINTR)
            util::fatal("poll: %s", std::strerror(errno));
        const double recvNow = util::monotonicSeconds();
        for (std::size_t c = 0; c < conns.size(); ++c) {
            Connection &conn = conns[c];
            util::SolveStatus st = conn.client.flush();
            if (!st.ok())
                util::fatal("%s", st.message().c_str());
            if ((fds[c].revents & (POLLIN | POLLHUP)) == 0)
                continue;
            st = conn.client.read();
            if (!st.ok())
                util::fatal("%s with %zu replies outstanding",
                            st.message().c_str(), conn.pending.size());
            for (;;) {
                const auto r = conn.client.reader().next(payload);
                if (r == serve::FrameReader::Result::NeedMore)
                    break;
                if (r == serve::FrameReader::Result::Error)
                    util::fatal("%s", conn.client.reader().error().c_str());
                recordReply(conn, payload.data(), payload.size(), recvNow,
                            out);
            }
        }
        // Drain guard: a dead daemon must not hang the tool forever.
        if (!issuing &&
            util::monotonicSeconds() - recvNow > 30.0)
            util::fatal("timed out draining outstanding replies");
    }
    out.elapsed = util::monotonicSeconds() - start;
    return out;
}

std::string
reportJson(const LoadOptions &opt, RunResult &r)
{
    std::uint64_t total = 0;
    for (const ClassStats &c : r.classes)
        total += c.ops;
    char buf[256];
    std::string out = "{\n";
    out += "  \"schema\": \"rebudget.serve_load.v1\",\n";
    out += std::string("  \"mode\": \"") +
           (opt.open ? "open" : "closed") + "\",\n";
    std::snprintf(buf, sizeof(buf),
                  "  \"connections\": %zu,\n  \"inflight\": %zu,\n"
                  "  \"rate\": %.1f,\n  \"markets\": %zu,\n"
                  "  \"players\": %zu,\n",
                  opt.connections, opt.inflight, opt.rate, opt.markets,
                  opt.players);
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "  \"mix\": \"%llu:%llu:%llu\",\n  \"seed\": %llu,\n",
                  static_cast<unsigned long long>(opt.mixRead),
                  static_cast<unsigned long long>(opt.mixWrite),
                  static_cast<unsigned long long>(opt.mixChurn),
                  static_cast<unsigned long long>(opt.seed));
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "  \"elapsed_seconds\": %.3f,\n  \"ops\": %llu,\n"
                  "  \"ops_per_sec\": %.2f,\n",
                  r.elapsed, static_cast<unsigned long long>(total),
                  r.elapsed > 0.0
                      ? static_cast<double>(total) / r.elapsed
                      : 0.0);
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "  \"errors\": %llu,\n  \"decode_errors\": %llu,\n"
                  "  \"throttled\": %llu,\n",
                  static_cast<unsigned long long>(r.errors),
                  static_cast<unsigned long long>(r.decodeErrors),
                  static_cast<unsigned long long>(r.throttled));
    out += buf;
    out += "  \"classes\": [\n";
    for (std::size_t i = 0; i < 3; ++i) {
        ClassStats &c = r.classes[i];
        const double p50 = percentile(c.samplesNs, 0.50);
        const double p99 = percentile(c.samplesNs, 0.99);
        const double mx =
            c.samplesNs.empty()
                ? 0.0
                : *std::max_element(c.samplesNs.begin(),
                                    c.samplesNs.end());
        std::snprintf(buf, sizeof(buf),
                      "    {\"class\": \"%s\", \"ops\": %llu, "
                      "\"p50_ns\": %.0f, \"p99_ns\": %.0f, "
                      "\"max_ns\": %.0f}%s\n",
                      kClassNames[i],
                      static_cast<unsigned long long>(c.ops), p50, p99,
                      mx, i + 1 < 3 ? "," : "");
        out += buf;
    }
    out += "  ]\n}";
    return out;
}

int
runLoad(int argc, char **argv)
{
    LoadOptions opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                util::fatal("%s requires a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--socket") {
            opt.socketPath = value();
        } else if (arg == "--port") {
            opt.port = static_cast<std::uint16_t>(
                util::unsignedFlag(arg, value(), 0xffff));
        } else if (arg == "--mode") {
            const std::string mode = value();
            if (mode == "open")
                opt.open = true;
            else if (mode == "closed")
                opt.open = false;
            else
                util::fatal("--mode must be closed or open, got '%s'",
                            mode.c_str());
        } else if (arg == "--connections") {
            opt.connections = util::unsignedFlag(arg, value());
        } else if (arg == "--inflight") {
            opt.inflight = util::unsignedFlag(arg, value());
        } else if (arg == "--rate") {
            opt.rate = util::doubleFlag(arg, value());
        } else if (arg == "--seconds") {
            opt.seconds = util::doubleFlag(arg, value());
        } else if (arg == "--ops") {
            opt.opsPerConn = util::unsignedFlag(arg, value());
        } else if (arg == "--markets") {
            opt.markets = util::unsignedFlag(arg, value());
        } else if (arg == "--players") {
            opt.players = util::unsignedFlag(arg, value());
        } else if (arg == "--mix") {
            const std::string mix = value();
            unsigned long long r = 0, w = 0, c = 0;
            if (std::sscanf(mix.c_str(), "%llu:%llu:%llu", &r, &w,
                            &c) != 3 ||
                r + w + c == 0)
                util::fatal("--mix must be R:W:C with R+W+C > 0,"
                            " got '%s'",
                            mix.c_str());
            opt.mixRead = r;
            opt.mixWrite = w;
            opt.mixChurn = c;
        } else if (arg == "--seed") {
            opt.seed = util::unsignedFlag(arg, value());
        } else if (arg == "--no-setup") {
            opt.setup = false;
        } else if (arg == "--emit-trace") {
            opt.emitTrace = value();
        } else if (arg == "--out") {
            opt.outPath = value();
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            usage();
            util::fatal("unknown flag '%s'", arg.c_str());
        }
    }
    if (opt.connections == 0 || opt.markets == 0 || opt.players == 0)
        util::fatal("--connections, --markets and --players must be"
                    " positive");
    if (!opt.emitTrace.empty()) {
        emitTrace(opt);
        return 0;
    }
    if (opt.socketPath.empty() && opt.port == 0) {
        usage();
        util::fatal("pick a transport: --socket PATH or --port N");
    }
    if (opt.open && opt.rate <= 0.0)
        util::fatal("open mode needs --rate > 0");

    RunResult result = runLoad(opt);
    const std::string json = reportJson(opt, result);
    if (opt.outPath.empty()) {
        std::printf("%s\n", json.c_str());
    } else {
        std::FILE *f = std::fopen(opt.outPath.c_str(), "w");
        if (f == nullptr)
            util::fatal("open %s: %s", opt.outPath.c_str(),
                        std::strerror(errno));
        std::fprintf(f, "%s\n", json.c_str());
        std::fclose(f);
    }
    if (result.errors != 0 || result.decodeErrors != 0) {
        util::warn("load run saw %llu errors (%llu decode): %s",
                   static_cast<unsigned long long>(result.errors),
                   static_cast<unsigned long long>(result.decodeErrors),
                   result.firstError.c_str());
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // A reader that stops early must not kill the report with
    // SIGPIPE, and a dead daemon surfaces as a serve::Client error; the
    // catch turns the resulting FatalError into a diagnostic and exit
    // 1, not an abort.
    std::signal(SIGPIPE, SIG_IGN);
    try {
        return runLoad(argc, argv);
    } catch (const util::FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
