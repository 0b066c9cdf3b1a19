/**
 * rebudgetctl -- command-line client for rebudgetd.
 *
 * Connects over the daemon's Unix-domain socket (--socket) or loopback
 * TCP (--port), sends one framed request per command and prints the
 * reply.  Exit status 0 on an accepted request, 1 on a typed Error
 * reply or transport failure, so shell scripts (tools/serve_smoke.sh)
 * can assert both directions.  The commands are serve::parseCommand's
 * grammar (protocol.h), the one a `rebudgetd --replay` trace uses.
 */

#include <csignal>
#include <cstdio>
#include <string>
#include <vector>

#include "rebudget/serve/client.h"
#include "rebudget/serve/protocol.h"
#include "rebudget/util/arg_parse.h"
#include "rebudget/util/logging.h"

using namespace rebudget;

namespace {

void
usage()
{
    std::fputs(
        "usage: rebudgetctl (--socket PATH | --port N)"
        " [--timeout-ms N] <command>\n"
        "  --timeout-ms N   fail if the reply takes longer than N ms\n"
        "                   (default 0 = wait forever)\n"
        "commands:\n"
        "  create <market> <app1,app2,...>\n"
        "  demand <market> <tenant> <weight>\n"
        "  join <market> <tenant> <app>\n"
        "  leave <market> <tenant>\n"
        "  get <market>\n"
        "  stats\n"
        "  tick\n"
        "  shutdown\n",
        stderr);
}

/** @return the process exit status for a reply (1 on Error). */
int
printResponse(const serve::Response &resp)
{
    if (std::holds_alternative<serve::AckReply>(resp)) {
        std::printf("ok\n");
        return 0;
    }
    if (const auto *err = std::get_if<serve::ErrorReply>(&resp)) {
        std::fprintf(stderr, "error: %s (%s)\n", err->message.c_str(),
                     util::statusCodeName(err->code));
        return 1;
    }
    if (const auto *stats = std::get_if<serve::StatsReply>(&resp)) {
        std::printf("%s\n", stats->json.c_str());
        return 0;
    }
    const auto &alloc = std::get<serve::AllocationReply>(resp);
    std::printf("market %llu tick %llu converged %d\n",
                static_cast<unsigned long long>(alloc.market),
                static_cast<unsigned long long>(alloc.tick),
                alloc.converged ? 1 : 0);
    std::printf("prices");
    for (const double p : alloc.prices)
        std::printf(" %.6f", p);
    std::printf("\n");
    for (const auto &t : alloc.players) {
        std::printf("tenant %llu budget %.6f lambda %.6f alloc",
                    static_cast<unsigned long long>(t.tenant),
                    t.budget, t.lambda);
        for (const double a : t.alloc)
            std::printf(" %.6f", a);
        std::printf("\n");
    }
    return 0;
}

int
runCtl(int argc, char **argv)
{
    std::string socket_path;
    std::uint16_t port = 0;
    std::uint64_t timeout_ms = 0;
    std::vector<std::string> args;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                util::fatal("%s requires a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--socket") {
            socket_path = value();
        } else if (arg == "--port") {
            port = static_cast<std::uint16_t>(
                util::unsignedFlag(arg, value(), 0xffff));
        } else if (arg == "--timeout-ms") {
            timeout_ms = util::unsignedFlag(arg, value());
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            args.push_back(arg);
        }
    }
    if (socket_path.empty() && port == 0) {
        usage();
        util::fatal("pick a transport: --socket PATH or --port N");
    }
    const auto req = serve::parseCommand(args);
    if (!req.ok()) {
        usage();
        util::fatal("%s", req.status().message().c_str());
    }
    serve::Client client;
    const util::SolveStatus connected = client.connect(socket_path, port);
    if (!connected.ok())
        util::fatal("%s", connected.message().c_str());
    const auto resp = client.call(req.value(), timeout_ms);
    if (!resp.ok())
        util::fatal("%s", resp.status().message().c_str());
    return printResponse(resp.value());
}

} // namespace

int
main(int argc, char **argv)
{
    // A reader that stops early (`rebudgetctl stats | grep -q ...`)
    // must not kill the client with SIGPIPE, and a dead daemon
    // surfaces as a serve::Client error; the catch turns the resulting
    // FatalError into a diagnostic and exit 1 rather than an abort.
    std::signal(SIGPIPE, SIG_IGN);
    try {
        return runCtl(argc, argv);
    } catch (const util::FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
