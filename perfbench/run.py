#!/usr/bin/env python3
"""Repository benchmark: builds the harness and rebudgetd from source,
runs one workload, and prints one JSON result as the last stdout line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (see WORKLOADS): serve_read, serve_write, fig04_sweep,
market_scale.  With --trace 0 the result carries every end-to-end
metric; with --trace 1 every per-layer metric, measured by a separate
traced run that also reports its tracing overhead.  Lines before the
result record provenance and every metric with its sample count.

Everything it builds or writes stays under .bench_build/ at the root
of the checkout.  Run it from anywhere; it exits non-zero, without a
result, when the repository sources are not beside it.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
HARNESS_BUILD = os.path.join(BUILD, "perfbench")

WORKLOADS = {
    "serve_read": "allocation polling dominates daemon traffic; loads "
                  "socket transport, framing, the lock-free read path and "
                  "stats while the solver idles",
    "serve_write": "demand change, journal, apply, epoch re-solve and "
                   "publish: ReBudget's runtime budget-reassignment loop "
                   "with its journal cost",
    "fig04_sweep": "regenerates the paper's Figure 4 over 240 bundles and "
                   "six mechanisms; the MaxEfficiency oracle in core "
                   "dominates",
    "market_scale": "1024-player ReBudget-40 allocate(): the only workload "
                    "where the market solver does nearly all the work",
}

END_TO_END = [
    ("setup_s", "s"),
    ("latency_p50_us", "us"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MiB"),
    ("converged_share", "ratio"),
]

MECHANISMS = ["EqualShare", "EqualBudget", "Balanced", "ReBudget-20",
              "ReBudget-40", "MaxEfficiency"]
CLASSES = ["read", "write", "tick", "stats"]

PER_LAYER = (
    [("app.profile_s", "s"),
     ("eval.model_build_ms", "ms"),
     ("workloads.suite_ms", "ms"),
     ("eval.problem_us", "us"),
     ("eval.score_us", "us")]
    + [("core.allocate_us." + m, "us") for m in MECHANISMS]
    + [("core.max_efficiency_share", "ratio"),
       ("core.rounds_per_allocate", "count"),
       ("core.elided_share", "ratio"),
       ("market.solves", "count"),
       ("market.sweeps_per_solve", "count"),
       ("market.steps_per_sweep", "count"),
       ("market.ns_per_sweep", "ns"),
       ("market.warm_share", "ratio"),
       ("market.fail_safe_trips", "count"),
       ("serve.read_ns", "ns"),
       ("serve.codec_ns", "ns"),
       ("serve.stats_us", "us"),
       ("serve.write_us", "us"),
       ("serve.queue_wait_us", "us"),
       ("serve.queue_depth", "count"),
       ("serve.journal_us", "us"),
       ("serve.journal_bytes_per_op", "B"),
       ("util.crc32c_ns_per_kib", "ns"),
       ("serve.snapshot_ms", "ms"),
       ("serve.snapshot_bytes", "B"),
       ("serve.tick_us", "us"),
       ("serve.solves_per_tick", "count"),
       ("serve.sweeps_per_tick", "count"),
       ("serve.steady_tick_share", "ratio")]
    + [("client.rtt_us." + c, "us") for c in CLASSES]
    + [("serve.transport_us." + c, "us") for c in CLASSES]
    + [("trace.overhead_us", "us"),
       # Throughput and p99 swing between runs over the socket, so they
       # are reported (from the traced run's untraced half), not gated.
       ("ops_per_s", "1/s"),
       ("latency_p99_us", "us")]
)

# Limit on one harness run (the build before it is not counted: only
# the first run in a checkout builds, and an up-to-date build check
# takes about a second).
RUN_TIMEOUT_S = 165


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure (once) and build the two targets the harness runs."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")) or \
            not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail("repository sources not found beside perfbench/ in " + ROOT, 2)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(log_path, "w") as log:
            if not os.path.isfile(os.path.join(HARNESS_BUILD,
                                               "CMakeCache.txt")):
                cmd = ["cmake", "-S", HERE, "-B", HARNESS_BUILD,
                       "-DCMAKE_BUILD_TYPE=Release"]
                if shutil.which("ninja"):
                    cmd += ["-G", "Ninja"]
                if subprocess.call(cmd, stdout=log, stderr=log) != 0:
                    shutil.rmtree(HARNESS_BUILD, ignore_errors=True)
                    return None, log_path
            jobs = str(max(1, len(os.sched_getaffinity(0))))
            cmd = ["cmake", "--build", HARNESS_BUILD, "--target",
                   "perfbench_harness", "rebudgetd", "-j", jobs]
            if subprocess.call(cmd, stdout=log, stderr=log) != 0:
                return None, log_path
    harness = os.path.join(HARNESS_BUILD, "perfbench_harness")
    daemon = os.path.join(HARNESS_BUILD, "rebudget", "tools", "rebudgetd")
    if not (os.path.isfile(harness) and os.path.isfile(daemon)):
        return None, log_path
    return (harness, daemon), log_path


def run_harness(harness, daemon, args, workdir, timeout):
    """Run the harness in its own session; kill the whole group (the
    daemon included) on timeout.  Returns its parsed result or None."""
    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--daemon", daemon, "--workdir", workdir]
    err_path = os.path.join(workdir, "harness.err")
    with open(err_path, "w") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                start_new_session=True, text=True)
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            print("perfbench: harness timed out", file=sys.stderr)
            return None
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    if proc.returncode != 0:
        with open(err_path) as f:
            tail = f.read()[-2000:]
        print("perfbench: harness exited %d\n%s" % (proc.returncode, tail),
              file=sys.stderr)
        return None
    lines = [l for l in out.splitlines() if l.startswith("{")]
    return json.loads(lines[-1]) if lines else None


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive", 2)

    binaries, log_path = build()
    if binaries is None:
        with open(log_path) as f:
            sys.stderr.write(f.read()[-4000:])
        fail("build failed (log: %s)" % log_path)
    harness, daemon = binaries

    workdir = os.path.join(BUILD, "run", "%s-s%d-t%d-%d" % (
        args.workload, args.seed, args.trace, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        res = run_harness(harness, daemon, args, workdir, RUN_TIMEOUT_S)
        if res is not None and args.trace:
            # Spans are written at exit; keep the latest traced run of
            # each workload beside the build.
            keep = os.path.join(BUILD, "traces", args.workload)
            shutil.rmtree(keep, ignore_errors=True)
            os.makedirs(keep)
            with open(os.path.join(keep, "run.txt"), "w") as f:
                f.write("workload %s seed %d seconds %g\n" % (
                    args.workload, args.seed, args.seconds))
            for name in os.listdir(workdir):
                if name.startswith("spans"):
                    shutil.copy(os.path.join(workdir, name), keep)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if res is None:
        fail("no result")

    wanted = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    missing = []
    for name, unit in wanted:
        m = res["metrics"].get(name)
        if m is None or m["value"] is None:
            missing.append(name)
            continue
        metrics[name] = (m["value"], unit, m["samples"])
    if missing:
        fail("metrics not measured: " + ", ".join(missing))

    info = res["info"]
    print("# workload %s seed %d seconds %g trace %d" % (
        args.workload, args.seed, args.seconds, args.trace))
    print("# nproc %s (allowed %s), build %s" % (
        info.get("nproc"), info.get("allowed_cpus"), info.get("build_type")))
    print("# daemon flags: %s" % info.get("daemon_flags", "none (in process)"))
    print("# flush policy: %s" % info.get(
        "flush_policy", "none (this workload persists nothing)"))
    for name, why in WORKLOADS.items():
        print("# why %s: %s" % (name, why))
    for name, (value, unit, n) in metrics.items():
        print("# metric %-32s %16.6f %-6s n=%d" % (name, value, unit, n))
    for name, m in sorted(res["metrics"].items()):
        if name not in metrics and m["value"] is not None:
            print("# also   %-32s %16.6f %-6s n=%d" % (
                name, m["value"], m["unit"], m["samples"]))
    for key, value in sorted(info.items()):
        if key.startswith("span "):
            print("# %s %s" % (key, value))
    for name, value in sorted(res["counters"].items()):
        print("# counter %s %d" % (name, value))
    for e in res["errors"]:
        print("# error " + e)

    correct = bool(res["correct"]) and res["failed"] == 0
    out = {
        "correct": correct,
        "attempted": max(1, int(res["attempted"])),
        "failed": int(res["failed"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(out))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
