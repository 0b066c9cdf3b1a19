/**
 * rebudgetd -- long-running market-allocation daemon.
 *
 * Hosts many concurrent independent proportional-share markets, sharded
 * by market id over a thread pool, and serves the length-prefixed
 * binary protocol of serve/protocol.h over a Unix-domain socket
 * (--socket) or loopback TCP (--port).  Markets re-solve on a
 * configurable epoch tick (--tick-ms), warm-starting every solve from
 * the previous epoch's equilibrium so steady-state serving does no
 * cold solves and no heap allocation (see DESIGN.md section 3.9).
 *
 * Boot: the serving modes profile the 24 catalog applications
 * (app::catalogProfiles) on every CPU the process may use before they
 * build the core and the socket, and log the profile's duration on
 * stderr before the "listening on" line, so a socket that exists means
 * the catalog is ready: ~0.3-0.6 s after launch in a Release build on 4
 * CPUs, 1.7-2.7 s under ThreadSanitizer (DESIGN.md section 3.9).
 * --replay and --verify-state profile on first use.
 *
 * Deterministic mode: --replay FILE applies a request trace (see
 * server_core.h for the grammar) with synchronous ticks and no sockets,
 * then prints the state digest and per-shard stats.  The digest is
 * bit-identical at any --jobs value -- tools/serve_smoke.sh asserts
 * this, and it is the daemon's equivalent of the eval suite's
 * determinism contract.
 *
 * Durability: --state-dir DIR arms the crash-safety layer
 * (serve/persist.h): every mutating op is journaled before it applies,
 * shard snapshots are written every --snapshot-ticks epochs and on
 * graceful shutdown, and startup recovers the newest valid state --
 * torn or corrupted files degrade to the previous snapshot or a cold
 * start with a warning, never a crash.  --verify-state DIR recovers
 * offline and prints the recovered digest (tools/serve_crash_smoke.sh
 * compares it against a restarted daemon's).
 *
 * Usage:
 *   rebudgetd --socket /tmp/rebudget.sock [--tick-ms 100] [--shards 4]
 *   rebudgetd --port 7421 [--max-ticks N]
 *   rebudgetd --socket S --state-dir DIR [--snapshot-ticks N]
 *   rebudgetd --verify-state DIR [--shards 4]
 *   rebudgetd --replay trace.txt [--ticks N] [--jobs J] [--stats json]
 */

#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "rebudget/app/catalog.h"
#include "rebudget/serve/persist.h"
#include "rebudget/serve/server_core.h"
#include "rebudget/serve/socket_server.h"
#include "rebudget/util/arg_parse.h"
#include "rebudget/util/logging.h"

using namespace rebudget;

namespace {

serve::SocketServer *g_server = nullptr;

void
handleSignal(int)
{
    if (g_server != nullptr)
        g_server->requestStop();
}

void
usage()
{
    std::fputs(
        "usage: rebudgetd [options]\n"
        "\n"
        "transport (pick one; --replay needs neither):\n"
        "  --socket PATH      listen on a Unix-domain socket\n"
        "  --port N           listen on loopback TCP port N\n"
        "\n"
        "options:\n"
        "  --shards N         market shards (default 4)\n"
        "  --jobs N           tick worker threads (default: "
        "REBUDGET_JOBS,\n"
        "                     else the CPUs this process may run on)\n"
        "  --tick-ms N        epoch tick period (default 100; 0 = only\n"
        "                     explicit TickNow requests tick)\n"
        "  --max-ticks N      exit after N timer ticks (0 = run until\n"
        "                     Shutdown)\n"
        "  --state-dir DIR    durability: journal every write, snapshot\n"
        "                     periodically, recover on startup\n"
        "  --snapshot-ticks N snapshot every N epochs (default 32)\n"
        "  --no-fsync         skip fsync on snapshots/journals (still\n"
        "                     kill -9 safe; not power-loss safe)\n"
        "  --verify-state DIR recover DIR offline, print the recovered\n"
        "                     digest and counters, exit (use the same\n"
        "                     --shards as the daemon: the digest folds\n"
        "                     markets in shard order)\n"
        "  --replay FILE      deterministic mode: apply a request "
        "trace\n"
        "                     with synchronous ticks, print the state\n"
        "                     digest, exit\n"
        "  --ticks N          extra ticks to run after the replay "
        "trace\n"
        "  --stats json       print per-shard telemetry "
        "(rebudget.serve_stats.v1)\n"
        "\n"
        "boot: --socket and --port profile the catalog apps on every "
        "CPU\n"
        "this process may use before the socket exists (~0.5 s; ~2-3 s\n"
        "under ThreadSanitizer) and log both steps on stderr\n",
        stderr);
}

/** Print the post-recovery state line (the crash smoke greps it) and
 * the graded warnings. */
void
reportRecovery(const serve::RecoveryReport &report,
               const serve::ServerCore &core)
{
    for (const std::string &w : report.warnings)
        util::warn("recovery: %s", w.c_str());
    std::printf("recovered markets %llu epoch %llu digest %016llx\n",
                static_cast<unsigned long long>(
                    report.summary.marketsRestored),
                static_cast<unsigned long long>(report.epoch),
                static_cast<unsigned long long>(core.digest()));
    std::printf("recovery snapshots_loaded %llu snapshots_corrupt %llu "
                "markets_skipped %llu ops_replayed %llu ops_skipped "
                "%llu torn_tails %llu\n",
                static_cast<unsigned long long>(
                    report.summary.snapshotsLoaded),
                static_cast<unsigned long long>(
                    report.summary.snapshotsCorrupt),
                static_cast<unsigned long long>(
                    report.summary.marketsSkipped),
                static_cast<unsigned long long>(
                    report.summary.opsReplayed),
                static_cast<unsigned long long>(
                    report.summary.opsSkipped),
                static_cast<unsigned long long>(
                    report.summary.journalTornTails));
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    serve::ServeConfig config;
    serve::SocketServerOptions options;
    serve::PersistConfig persist_config;
    std::string replay_path;
    std::string verify_dir;
    std::uint64_t extra_ticks = 0;
    bool stats_json = false;
    bool have_transport = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                util::fatal("%s requires a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--socket") {
            options.socketPath = value();
            have_transport = true;
        } else if (arg == "--port") {
            options.port = static_cast<std::uint16_t>(
                util::unsignedFlag(arg, value(), 0xffff));
            have_transport = true;
        } else if (arg == "--shards") {
            config.shards = static_cast<std::size_t>(
                util::unsignedFlag(arg, value(), 1u << 12));
            if (config.shards == 0)
                util::fatal("--shards must be at least 1");
        } else if (arg == "--jobs") {
            config.jobs = static_cast<unsigned>(
                util::unsignedFlag(arg, value(), 1u << 12));
        } else if (arg == "--tick-ms") {
            options.tickMs = static_cast<std::uint32_t>(
                util::unsignedFlag(arg, value(), 3600u * 1000u));
        } else if (arg == "--max-ticks") {
            options.maxTicks = util::unsignedFlag(arg, value(), 1u << 30);
        } else if (arg == "--state-dir") {
            persist_config.dir = value();
        } else if (arg == "--snapshot-ticks") {
            persist_config.snapshotEveryTicks =
                util::unsignedFlag(arg, value(), 1u << 30);
            if (persist_config.snapshotEveryTicks == 0)
                util::fatal("--snapshot-ticks must be at least 1");
        } else if (arg == "--no-fsync") {
            persist_config.fsyncData = false;
            persist_config.fsyncJournal = false;
        } else if (arg == "--verify-state") {
            verify_dir = value();
        } else if (arg == "--replay") {
            replay_path = value();
        } else if (arg == "--ticks") {
            extra_ticks = util::unsignedFlag(arg, value(), 1u << 30);
        } else if (arg == "--stats") {
            const std::string v = value();
            if (v != "json")
                util::fatal("--stats only supports 'json', got '%s'",
                            v.c_str());
            stats_json = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            usage();
            util::fatal("unknown argument '%s'", arg.c_str());
        }
    }

    if (!verify_dir.empty()) {
        // Offline recovery: rebuild a core from the state directory
        // exactly as a restarting daemon would, print what recovery
        // found, and exit.  Deterministic -- running it twice on the
        // same directory prints the same digest -- and read-only: no
        // snapshot or journal is written.
        persist_config.dir = verify_dir;
        serve::ServerCore core(config);
        serve::PersistManager persist(persist_config, config.shards);
        const serve::RecoveryReport report = persist.recover(core);
        reportRecovery(report, core);
        if (stats_json)
            std::printf("%s\n", core.statsJson().c_str());
        return 0;
    }

    if (!replay_path.empty()) {
        std::ifstream trace(replay_path);
        if (!trace) {
            util::fatal("cannot open replay trace '%s'",
                        replay_path.c_str());
        }
        serve::ServerCore core(config);
        const util::SolveStatus status =
            serve::runReplayTrace(core, trace);
        if (!status.ok())
            util::fatal("%s", status.toString().c_str());
        for (std::uint64_t t = 0; t < extra_ticks; ++t)
            core.tick();
        std::printf("digest %016llx\n",
                    static_cast<unsigned long long>(core.digest()));
        std::printf("epochs %llu markets %zu\n",
                    static_cast<unsigned long long>(core.epoch()),
                    core.marketCount());
        if (stats_json)
            std::printf("%s\n", core.statsJson().c_str());
        return 0;
    }

    if (!have_transport) {
        usage();
        util::fatal("pick a transport: --socket PATH, --port N, or "
                    "--replay FILE");
    }

    // A serving daemon reports its boot steps (the profile, the socket,
    // the final snapshot) on stderr.
    util::setLogLevel(util::LogLevel::Info);

    // Profile the catalog before the core starts its tick workers and
    // before the socket exists (DESIGN.md section 3.9, "Boot order"):
    // the profile runs on every CPU this process may use, no client can
    // pin a thread while it runs, and recovery and the first
    // CreateMarket find the catalog already built.
    const auto profile_start = std::chrono::steady_clock::now();
    const std::size_t apps = app::catalogProfiles().size();
    const std::chrono::duration<double> profile_s =
        std::chrono::steady_clock::now() - profile_start;
    util::inform("rebudgetd: profiled %zu catalog apps in %.2f s", apps,
                 profile_s.count());

    serve::ServerCore core(config);

    // Durability: recover whatever the previous run left behind, write
    // a fresh snapshot baseline (also prunes files from a larger
    // --shards run and rotates journals), and only then attach the
    // journal sink -- recovery replay must not re-journal itself.
    std::unique_ptr<serve::PersistManager> persist;
    if (!persist_config.dir.empty()) {
        persist = std::make_unique<serve::PersistManager>(
            persist_config, config.shards);
        util::SolveStatus st = persist->init();
        if (!st.ok())
            util::fatal("--state-dir: %s", st.toString().c_str());
        const serve::RecoveryReport report = persist->recover(core);
        reportRecovery(report, core);
        st = persist->snapshotAll(core);
        if (!st.ok()) {
            util::fatal("--state-dir: baseline snapshot failed: %s",
                        st.toString().c_str());
        }
        core.setJournal(persist.get());
        const std::uint64_t every = persist_config.snapshotEveryTicks;
        options.onTick = [&core, &persist, every](std::uint64_t epoch) {
            if (epoch % every != 0)
                return;
            const util::SolveStatus snap = persist->snapshotAll(core);
            if (!snap.ok()) {
                util::warn("snapshot at epoch %llu failed: %s",
                           static_cast<unsigned long long>(epoch),
                           snap.message().c_str());
            }
        };
    }

    serve::SocketServer server(core, options);
    g_server = &server;
    std::signal(SIGINT, handleSignal);
    std::signal(SIGTERM, handleSignal);
    std::signal(SIGPIPE, SIG_IGN);

    if (!options.socketPath.empty())
        util::inform("rebudgetd: listening on %s (%zu shards)",
                     options.socketPath.c_str(), config.shards);
    const util::SolveStatus status = server.run();
    g_server = nullptr;
    if (persist) {
        // Final snapshot: the drain above flushed the write plane, so
        // this captures everything any client was ever acked for.
        core.setJournal(nullptr);
        const util::SolveStatus snap = persist->snapshotAll(core);
        if (!snap.ok()) {
            util::warn("final snapshot failed: %s",
                       snap.message().c_str());
        } else {
            util::inform("rebudgetd: final snapshot written to %s",
                         persist_config.dir.c_str());
        }
    }
    if (!status.ok())
        util::fatal("%s", status.toString().c_str());
    if (stats_json)
        std::printf("%s\n", core.statsJson().c_str());
    return 0;
}
