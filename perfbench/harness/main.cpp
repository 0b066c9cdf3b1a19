/**
 * @file
 * perfbench_harness: runs one benchmark workload and prints one JSON
 * result line (see perfbench/run.py, which builds and drives it).
 *
 *   perfbench_harness --workload W --seed N --seconds S --trace 0|1
 *                     --daemon PATH --workdir DIR
 *   perfbench_harness --setup-only --workload W --seed N --workdir DIR
 *
 * Workloads: serve_read, serve_write, fig04_sweep, market_scale.
 * --setup-only performs one cold in-process setup and prints
 * "setup_s <seconds>" (the harness repeats in-process setups in fresh
 * processes so every one of them is cold).
 */

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
std::uint64_t g_startNs = 0;
}

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench_harness: %s\nusage: perfbench_harness "
                 "--workload W --seed N --seconds S --trace 0|1 --daemon "
                 "PATH --workdir DIR [--setup-only]\n",
                 why);
    std::exit(2);
}

/** Fold a probe's layers and span table into @p r where @p r has none
 * of its own; the probe's correctness and op counts count too. */
void
absorb(Result &r, const Result &probe)
{
    r.fillFrom(probe);
    r.attempted += probe.attempted;
    r.failed += probe.failed;
    for (const std::string &e : probe.errors)
        r.fail("probe: " + e);
    for (const auto &[k, v] : probe.info) {
        if (k.rfind("span ", 0) == 0)
            r.info.emplace(k, v);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    g_startNs = nowNs();
    allowedCpus(); // capture the startup affinity before any pinning
    RunConfig cfg;
    bool setup_only = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage((arg + " needs a value").c_str());
            return argv[++i];
        };
        if (arg == "--workload")
            cfg.workload = value();
        else if (arg == "--seed")
            cfg.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (arg == "--seconds")
            cfg.seconds = std::atof(value().c_str());
        else if (arg == "--trace")
            cfg.trace = value() == "1";
        else if (arg == "--daemon")
            cfg.daemon = value();
        else if (arg == "--workdir")
            cfg.workdir = value();
        else if (arg == "--setup-only")
            setup_only = true;
        else
            usage(("unknown argument " + arg).c_str());
    }
    if (cfg.workdir.empty() || cfg.seconds <= 0)
        usage("--workdir and a positive --seconds are required");
    ::mkdir(cfg.workdir.c_str(), 0755);
    if (::chdir(cfg.workdir.c_str()) != 0)
        usage("cannot enter --workdir");
    char self[4096] = {0};
    const ssize_t n = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
    cfg.self = n > 0 ? std::string(self, static_cast<std::size_t>(n)) : argv[0];

    try {
        if (setup_only) {
            std::printf("setup_s %.9f\n", inprocSetupOnly(cfg));
            return 0;
        }
        const bool serve = cfg.workload == "serve_read" ||
                           cfg.workload == "serve_write";
        if (serve && cfg.daemon.empty())
            usage("serve workloads need --daemon");
        Result r;
        if (cfg.workload == "fig04_sweep")
            r = runFig04(cfg);
        else if (cfg.workload == "market_scale")
            r = runMarketScale(cfg);
        else if (serve)
            r = runServe(cfg, cfg.workload == "serve_write");
        else
            usage(("unknown workload " + cfg.workload).c_str());

        if (cfg.trace) {
            // Layers the workload itself does not reach come from short
            // traced probes of the workloads that do.  The fig04 probe
            // also gives fig04_sweep its eval layer, timed from outside
            // evaluate().
            RunConfig probe = cfg;
            probe.seconds = 1.0;
            absorb(r, probeFig04(probe));
            if (cfg.workload != "serve_write")
                absorb(r, probeServeWrite(probe));
        }
        r.info["nproc"] = std::to_string(std::thread::hardware_concurrency());
        r.info["allowed_cpus"] = std::to_string(allowedCpus().size());
        r.info["build_type"] = PERFBENCH_BUILD_TYPE;
        r.info["seed"] = std::to_string(cfg.seed);
        r.info["workload"] = cfg.workload;
        std::printf("%s\n", resultJson(r).c_str());
        std::fflush(stdout);
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
        return 1;
    }
}
