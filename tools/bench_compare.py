#!/usr/bin/env python3
"""Compare a fresh benchmark JSON against a committed baseline.

Two schemas are understood, dispatched on the fresh file's "schema"
field:

  * perf_equilibrium output (no schema field / legacy): solver counter
    and wall-clock comparison against BENCH_market.json -- see below.
  * "rebudget.serve_bench.v1" (perf_serve --sweep output): serving-
    plane capacity rows keyed by (markets, players, readers).  The
    integrity counters (read_errors, torn_reads, steady_tick_allocs,
    cold_solves) are absolute zero gates -- a single torn read or a
    steady tick that allocated fails the comparison outright.
    Throughput and latency fields are banded like any other timing.
    With --prechange BENCH_serve_prepr.json the per-row
    reads_per_sec speedup is printed, and --min-speedup /
    --min-peak-speedup gate the geometric-mean (concurrent-reader
    rows) and peak (any row) speedups.  Both captures are committed
    artifacts measured with identical methodology, so the gate is
    deterministic and machine-independent.

The equilibrium solver is deterministic, so every iteration/sweep
counter in a fresh run must match the committed BENCH_market.json
EXACTLY wherever the two runs share a configuration -- a drifted
counter means the solver's floating-point trajectory changed, which the
perf work must never do.  Wall-clock numbers are machine-dependent and
only checked against a generous tolerance band.

perf_equilibrium keeps Part A (synthetic walk) and Part C (steady
state) configurations identical between --smoke and full runs exactly
so that a cheap smoke run remains comparable against the committed
full-run baseline; the bundle-suite section is compared only when both
runs used the same suite shape.

Usage:
    bench_compare.py FRESH.json [--baseline BENCH_market.json]
                     [--time-band 10.0]
                     [--prechange BENCH_serve_prepr.json
                      [--min-speedup 2.0] [--min-peak-speedup 3.0]]

The timing tolerance band can also be set via the REBUDGET_BENCH_BAND
environment variable so noisy CI machines widen it without forking the
invocation; an explicit --time-band beats the environment.  Counters
are exact regardless of the band.

--prechange applies to serve files only (see above); passing it with
a perf_equilibrium or recovery file is a named FAIL.

Exit status 0 when every comparable counter matches (at least one
section must be comparable), 1 otherwise.
"""

import argparse
import json
import math
import os
import sys

SERVE_SCHEMA = "rebudget.serve_bench.v1"
RECOVERY_SCHEMA = "rebudget.serve_recovery.v1"


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        print(f"FAIL: cannot read {path}: {e.strerror or e}")
        sys.exit(1)
    except json.JSONDecodeError as e:
        print(f"FAIL: {path} is not valid JSON: {e}")
        sys.exit(1)


# Sentinel distinguishing "key absent" from a legitimate None/0 value.
_MISSING = object()


class Comparison:
    def __init__(self, timing_band):
        self.band = timing_band
        self.errors = []
        self.checked_counters = 0
        self.notes = []

    def fetch(self, context, entry, key):
        """Required-key lookup: a missing key becomes a named FAIL
        diagnostic (schema drift between the two files) instead of a
        KeyError traceback.  Returns None when absent; comparisons on
        None are skipped, so one missing key yields one clear error."""
        value = entry.get(key, _MISSING)
        if value is _MISSING:
            self.errors.append(
                f"{context}: required key '{key}' is missing (schema "
                f"drift -- regenerate the file with the current "
                f"perf_equilibrium, or update the baseline)")
            return None
        return value

    def exact(self, context, key, fresh, base):
        if fresh is None or base is None:
            return  # fetch already recorded the missing key
        self.checked_counters += 1
        if fresh != base:
            self.errors.append(
                f"{context}: {key} = {fresh}, baseline {base} (exact "
                f"match required)")

    def timing(self, context, key, fresh, base):
        if fresh is None or base is None:
            return  # fetch already recorded the missing key
        # Timings below a millisecond are noise-dominated: skip the
        # comparison, but say so by name rather than silently -- a
        # zero-valued baseline timing lands here too, and must not
        # read as "checked and passed".
        if base < 1.0 or fresh < 1.0:
            self.notes.append(
                f"{context}: {key} skipped (sub-millisecond, noise-"
                f"dominated: fresh {fresh}, baseline {base})")
            return
        # One symmetric comparison: fold both directions into the
        # slowdown ratio >= 1 and test it against the band once.
        # Testing `ratio < 1.0 / band` separately is NOT equivalent at
        # the boundary -- 1.0/band is rounded, so a run sitting exactly
        # on the band edge would pass in one direction and fail in the
        # other.  The band edge itself is inclusive (PASS).
        worse = fresh / base if fresh >= base else base / fresh
        if worse > self.band:
            self.errors.append(
                f"{context}: {key} = {fresh:.3f}, baseline {base:.3f} "
                f"(slowdown ratio {worse:.2f} outside band "
                f"{self.band}x)")


def index_by(cmp, context, entries, *keys):
    """Index entries by a key tuple; entries lacking one of the keys
    are reported (named) and excluded rather than raising KeyError."""
    out = {}
    for pos, e in enumerate(entries):
        tup = tuple(e.get(k, _MISSING) for k in keys)
        if _MISSING in tup:
            missing = [k for k, v in zip(keys, tup) if v is _MISSING]
            cmp.errors.append(
                f"{context}[{pos}]: required key(s) "
                f"{', '.join(repr(k) for k in missing)} missing from "
                f"baseline entry")
            continue
        out[tup] = e
    return out


def compare_synthetic(cmp, fresh, base):
    base_idx = index_by(cmp, "baseline synthetic_budget_walk",
                        base.get("synthetic_budget_walk", []),
                        "players", "rounds")
    matched = 0
    for pos, entry in enumerate(fresh.get("synthetic_budget_walk", [])):
        ctx0 = f"fresh synthetic_budget_walk[{pos}]"
        key = (cmp.fetch(ctx0, entry, "players"),
               cmp.fetch(ctx0, entry, "rounds"))
        if None in key:
            continue
        ref = base_idx.get(key)
        if ref is None:
            continue
        matched += 1
        ctx = f"synthetic players={key[0]} rounds={key[1]}"
        cmp.exact(ctx, "cold_iterations",
                  cmp.fetch(ctx, entry, "cold_iterations"),
                  cmp.fetch(ctx, ref, "cold_iterations"))
        cmp.exact(ctx, "warm_iterations",
                  cmp.fetch(ctx, entry, "warm_iterations"),
                  cmp.fetch(ctx, ref, "warm_iterations"))
        cmp.timing(ctx, "cold_ms", cmp.fetch(ctx, entry, "cold_ms"),
                   cmp.fetch(ctx, ref, "cold_ms"))
        cmp.timing(ctx, "warm_ms", cmp.fetch(ctx, entry, "warm_ms"),
                   cmp.fetch(ctx, ref, "warm_ms"))
    cmp.notes.append(f"synthetic: {matched} comparable entr"
                     f"{'y' if matched == 1 else 'ies'}")


def compare_steady_state(cmp, fresh, base):
    base_idx = index_by(cmp, "baseline steady_state",
                        base.get("steady_state", []), "players")
    matched = 0
    for pos, entry in enumerate(fresh.get("steady_state", [])):
        ctx0 = f"fresh steady_state[{pos}]"
        players = cmp.fetch(ctx0, entry, "players")
        if players is None:
            continue
        ref = base_idx.get((players,))
        if ref is None:
            continue
        matched += 1
        ctx = f"steady_state players={players}"
        # The zero-allocation contract is absolute, not just
        # baseline-relative.
        allocs = cmp.fetch(ctx, entry, "counted_allocs")
        cmp.exact(ctx, "counted_allocs", allocs, 0)
        cmp.exact(ctx, "counted_allocs(baseline)", allocs,
                  cmp.fetch(ctx, ref, "counted_allocs"))
        cmp.exact(ctx, "solves", cmp.fetch(ctx, entry, "solves"),
                  cmp.fetch(ctx, ref, "solves"))
        cmp.exact(ctx, "sweeps", cmp.fetch(ctx, entry, "sweeps"),
                  cmp.fetch(ctx, ref, "sweeps"))
        cmp.timing(ctx, "ns_per_sweep",
                   cmp.fetch(ctx, entry, "ns_per_sweep"),
                   cmp.fetch(ctx, ref, "ns_per_sweep"))
    cmp.notes.append(f"steady_state: {matched} comparable entr"
                     f"{'y' if matched == 1 else 'ies'}")


def compare_suite(cmp, fresh, base):
    fs = fresh.get("bundle_suite")
    bs = base.get("bundle_suite")
    if not fs or not bs:
        cmp.notes.append("bundle_suite: absent, skipped")
        return
    f_cores = cmp.fetch("fresh bundle_suite", fs, "cores")
    f_bundles = cmp.fetch("fresh bundle_suite", fs, "bundles")
    b_cores = cmp.fetch("baseline bundle_suite", bs, "cores")
    b_bundles = cmp.fetch("baseline bundle_suite", bs, "bundles")
    if None in (f_cores, f_bundles, b_cores, b_bundles):
        return
    if f_cores != b_cores or f_bundles != b_bundles:
        cmp.notes.append(
            f"bundle_suite: shapes differ (fresh {f_cores}c/"
            f"{f_bundles}b vs baseline {b_cores}c/"
            f"{b_bundles}b), skipped")
        return
    base_idx = index_by(cmp, "baseline bundle_suite mechanisms",
                        bs.get("mechanisms", []), "mechanism")
    matched = 0
    for pos, entry in enumerate(fs.get("mechanisms", [])):
        mech = cmp.fetch(f"fresh bundle_suite mechanisms[{pos}]", entry,
                         "mechanism")
        if mech is None:
            continue
        ref = base_idx.get((mech,))
        if ref is None:
            continue
        matched += 1
        ctx = f"bundle_suite mechanism={mech}"
        cmp.exact(ctx, "cold_iterations",
                  cmp.fetch(ctx, entry, "cold_iterations"),
                  cmp.fetch(ctx, ref, "cold_iterations"))
        cmp.exact(ctx, "warm_iterations",
                  cmp.fetch(ctx, entry, "warm_iterations"),
                  cmp.fetch(ctx, ref, "warm_iterations"))
    cmp.timing("bundle_suite", "cold_ms",
               cmp.fetch("fresh bundle_suite", fs, "cold_ms"),
               cmp.fetch("baseline bundle_suite", bs, "cold_ms"))
    cmp.timing("bundle_suite", "warm_ms",
               cmp.fetch("fresh bundle_suite", fs, "warm_ms"),
               cmp.fetch("baseline bundle_suite", bs, "warm_ms"))
    cmp.notes.append(f"bundle_suite: {matched} comparable mechanisms")


def compare_scaling(cmp, fresh, base):
    """Part D rows, keyed by (players, mode).  A smoke run carries only
    the 1k rows; they still diff exactly against the full baseline
    because perf_equilibrium fixes reps per size, not per smoke mode."""
    base_idx = index_by(cmp, "baseline scaling",
                        base.get("scaling", []), "players", "mode")
    matched = 0
    for pos, entry in enumerate(fresh.get("scaling", [])):
        ctx0 = f"fresh scaling[{pos}]"
        key = (cmp.fetch(ctx0, entry, "players"),
               cmp.fetch(ctx0, entry, "mode"))
        if None in key:
            continue
        ref = base_idx.get(key)
        if ref is None:
            continue
        matched += 1
        ctx = f"scaling players={key[0]} mode={key[1]}"
        # The zero-allocation contract is absolute at every scale and
        # in every mode, not just baseline-relative.
        allocs = cmp.fetch(ctx, entry, "counted_allocs")
        cmp.exact(ctx, "counted_allocs", allocs, 0)
        for counter in ("solves", "sweeps", "update_steps"):
            cmp.exact(ctx, counter, cmp.fetch(ctx, entry, counter),
                      cmp.fetch(ctx, ref, counter))
        cmp.timing(ctx, "ns_per_sweep",
                   cmp.fetch(ctx, entry, "ns_per_sweep"),
                   cmp.fetch(ctx, ref, "ns_per_sweep"))
        cmp.timing(ctx, "us_per_solve",
                   cmp.fetch(ctx, entry, "us_per_solve"),
                   cmp.fetch(ctx, ref, "us_per_solve"))
    cmp.notes.append(f"scaling: {matched} comparable entr"
                     f"{'y' if matched == 1 else 'ies'}")


# Integrity counters that must be zero on every capacity row, fresh or
# committed: one torn read or one steady tick that heap-allocated is a
# correctness bug, not a performance regression.
SERVE_ZERO_GATES = ("read_errors", "torn_reads", "steady_tick_allocs",
                    "cold_solves")


def compare_serve(cmp, fresh, base):
    """Serving-plane capacity rows, keyed (markets, players, readers).
    Integrity counters are absolute zero gates on the FRESH rows (and
    implicitly on the baseline too via the exact diff); throughput and
    latency are banded."""
    base_idx = index_by(cmp, "baseline capacity",
                        base.get("capacity", []),
                        "markets", "players", "readers")
    matched = 0
    for pos, entry in enumerate(fresh.get("capacity", [])):
        ctx0 = f"fresh capacity[{pos}]"
        key = (cmp.fetch(ctx0, entry, "markets"),
               cmp.fetch(ctx0, entry, "players"),
               cmp.fetch(ctx0, entry, "readers"))
        if None in key:
            continue
        ctx = (f"capacity markets={key[0]} players={key[1]} "
               f"readers={key[2]}")
        # Absolute gates first: they hold even for rows the baseline
        # does not carry (a fresh sweep may be wider than the capture).
        for gate in SERVE_ZERO_GATES:
            cmp.exact(ctx, gate, cmp.fetch(ctx, entry, gate), 0)
        ref = base_idx.get(key)
        if ref is None:
            continue
        matched += 1
        # frozen_markets is deterministic for a fixed seed/config: a
        # drift means the demand schedule or solver trajectory changed.
        cmp.exact(ctx, "frozen_markets",
                  cmp.fetch(ctx, entry, "frozen_markets"),
                  cmp.fetch(ctx, ref, "frozen_markets"))
        for field in ("reads_per_sec", "ticks_per_sec", "read_p50_ns",
                      "read_p99_ns"):
            cmp.timing(ctx, field, cmp.fetch(ctx, entry, field),
                       cmp.fetch(ctx, ref, field))
    if matched == 0:
        cmp.errors.append(
            "serve comparison found no overlapping "
            "(markets, players, readers) capacity rows")
    cmp.notes.append(f"capacity: {matched} comparable row"
                     f"{'' if matched == 1 else 's'}")


def check_serve_speedup(cmp, fresh, prepr, min_speedup, min_peak):
    """Fresh reads_per_sec vs the committed pre-change (mutexed
    snapshot path) capture, per capacity row.  Two gates, both over
    committed artifacts so the check is deterministic:

      * --min-peak-speedup: the best row anywhere must clear it (the
        headline "lock-free reads are Nx" claim);
      * --min-speedup: the GEOMETRIC MEAN over concurrent-reader rows
        (readers >= 4) must clear it.  Large markets are bounded by
        the snapshot copy cost both paths share, so a per-row floor
        would measure memcpy, not the locking protocol.
    """
    if prepr.get("schema") != SERVE_SCHEMA:
        cmp.errors.append(
            f"prechange file schema is {prepr.get('schema')!r}, "
            f"expected {SERVE_SCHEMA!r}")
        return
    pre_idx = index_by(cmp, "prechange capacity",
                       prepr.get("capacity", []),
                       "markets", "players", "readers")
    peak = 0.0
    concurrent = []
    seen = 0
    for entry in fresh.get("capacity", []):
        key = (entry.get("markets"), entry.get("players"),
               entry.get("readers"))
        ref = pre_idx.get(key)
        if ref is None or None in key:
            continue
        pre_rps = ref.get("reads_per_sec")
        new_rps = entry.get("reads_per_sec")
        ctx = (f"capacity markets={key[0]} players={key[1]} "
               f"readers={key[2]}")
        if not pre_rps or not new_rps or pre_rps <= 0 or new_rps <= 0:
            cmp.errors.append(
                f"{ctx}: non-positive reads_per_sec (pre-change "
                f"{pre_rps}, fresh {new_rps}) -- regenerate the "
                f"capture")
            continue
        seen += 1
        speedup = new_rps / pre_rps
        peak = max(peak, speedup)
        if key[2] >= 4:
            concurrent.append(speedup)
        cmp.notes.append(
            f"serve speedup {ctx}: {pre_rps / 1e6:.2f}M -> "
            f"{new_rps / 1e6:.2f}M reads/s ({speedup:.2f}x)")
    if seen == 0:
        cmp.errors.append(
            "prechange comparison requested but no overlapping "
            "capacity rows were found")
        return
    if concurrent:
        geo = math.exp(sum(math.log(s) for s in concurrent)
                       / len(concurrent))
        cmp.notes.append(
            f"serve speedup summary: peak {peak:.2f}x, geomean over "
            f"{len(concurrent)} concurrent-reader rows {geo:.2f}x")
    else:
        geo = None
        cmp.notes.append(
            f"serve speedup summary: peak {peak:.2f}x (no "
            f"concurrent-reader rows for a geomean)")
    if min_peak is not None and peak < min_peak:
        cmp.errors.append(
            f"peak serve speedup {peak:.2f}x below required "
            f"{min_peak}x")
    if min_speedup is not None:
        if geo is None:
            cmp.errors.append(
                "--min-speedup given but the sweep has no "
                "readers >= 4 rows to average")
        elif geo < min_speedup:
            cmp.errors.append(
                f"geomean serve speedup {geo:.2f}x below required "
                f"{min_speedup}x")


# Recovery-fidelity counters that are absolute on the fresh capture:
# a recovered digest that differs from the survivor's, a steady tick
# that allocated with journaling attached, a cold solve or a torn
# journal tail in a clean-shutdown capture are all correctness bugs.
RECOVERY_ABSOLUTE = (("digest_match", 1), ("steady_tick_allocs", 0),
                     ("cold_solves", 0), ("torn_tails", 0),
                     ("snapshots_corrupt", 0))

# Deterministic counters diffed exactly against the committed capture:
# a drift means the journaling cadence, the replay floor or the shard
# export changed shape, which a perf- or refactor-PR must never do
# silently.
RECOVERY_EXACT = ("shards", "markets", "players_per_market", "seed",
                  "warmup_ticks", "window_ticks", "journal_ops",
                  "snapshots_loaded", "markets_recovered",
                  "ops_replayed", "ops_skipped")

# Machine-dependent milliseconds, banded like every other timing.
RECOVERY_TIMINGS = ("snapshot_ms", "plain_window_ms",
                    "journaled_window_ms", "recover_ms")


def compare_recovery(cmp, fresh, base):
    """Durability capture: absolute fidelity gates on the fresh run,
    exact counter diff against the committed baseline, banded
    timings."""
    ctx = "recovery"
    for key, want in RECOVERY_ABSOLUTE:
        cmp.exact(ctx, key, cmp.fetch(ctx, fresh, key), want)
    for key in RECOVERY_EXACT:
        cmp.exact(ctx, key, cmp.fetch(f"fresh {ctx}", fresh, key),
                  cmp.fetch(f"baseline {ctx}", base, key))
    for key in RECOVERY_TIMINGS:
        cmp.timing(ctx, key, cmp.fetch(f"fresh {ctx}", fresh, key),
                   cmp.fetch(f"baseline {ctx}", base, key))
    overhead = fresh.get("journal_overhead_pct")
    if overhead is not None:
        cmp.notes.append(
            f"recovery: journaled window is {overhead:+.1f}% vs the "
            f"unjournaled window (informational)")


def resolve_band(args):
    """--time-band beats REBUDGET_BENCH_BAND beats the 10x default."""
    if args.time_band is not None:
        return args.time_band
    env = os.environ.get("REBUDGET_BENCH_BAND")
    if env is not None:
        try:
            band = float(env)
            if band <= 1.0:
                raise ValueError
            return band
        except ValueError:
            print(f"FAIL: REBUDGET_BENCH_BAND={env!r} is not a "
                  f"ratio > 1")
            sys.exit(1)
    return 10.0


def main():
    ap = argparse.ArgumentParser(
        description="diff a fresh perf_equilibrium JSON against the "
                    "committed baseline")
    ap.add_argument("fresh", help="fresh perf_equilibrium output")
    ap.add_argument("--baseline", default="BENCH_market.json",
                    help="committed baseline (default: BENCH_market.json)")
    ap.add_argument("--time-band", "--timing-band", type=float,
                    default=None, dest="time_band",
                    help="allowed wall-clock ratio in either direction "
                         "(default: REBUDGET_BENCH_BAND env, else 10x; "
                         "counters are always exact)")
    ap.add_argument("--prechange", default=None,
                    help="serve files: committed pre-change capacity "
                         "capture (BENCH_serve_prepr.json) to report "
                         "reads_per_sec speedups against")
    ap.add_argument("--min-speedup", type=float, default=None,
                    help="serve files with --prechange: fail if the "
                         "geomean reads_per_sec speedup over "
                         "readers >= 4 rows is below this "
                         "(default: informational only)")
    ap.add_argument("--min-peak-speedup", type=float, default=None,
                    help="serve files with --prechange: fail if the "
                         "best per-row reads_per_sec speedup is below "
                         "this (default: informational only)")
    args = ap.parse_args()

    fresh = load(args.fresh)
    base = load(args.baseline)
    cmp = Comparison(resolve_band(args))
    if (args.min_speedup is not None
            or args.min_peak_speedup is not None):
        if args.prechange is None:
            print("FAIL: --min-speedup/--min-peak-speedup require "
                  "--prechange")
            return 1
    if fresh.get("schema") == RECOVERY_SCHEMA:
        if base.get("schema") != RECOVERY_SCHEMA:
            print(f"FAIL: fresh file is {RECOVERY_SCHEMA} but baseline "
                  f"{args.baseline} is not (pass --baseline "
                  f"BENCH_serve_recovery.json)")
            return 1
        if args.prechange is not None:
            print(f"FAIL: --prechange does not apply to "
                  f"{RECOVERY_SCHEMA} files")
            return 1
        compare_recovery(cmp, fresh, base)
    elif fresh.get("schema") == SERVE_SCHEMA:
        if base.get("schema") != SERVE_SCHEMA:
            print(f"FAIL: fresh file is {SERVE_SCHEMA} but baseline "
                  f"{args.baseline} is not (pass --baseline "
                  f"BENCH_serve.json)")
            return 1
        compare_serve(cmp, fresh, base)
        if args.prechange is not None:
            check_serve_speedup(cmp, fresh, load(args.prechange),
                                args.min_speedup,
                                args.min_peak_speedup)
    else:
        if args.prechange is not None:
            print("FAIL: --prechange does not apply to perf_equilibrium "
                  "files")
            return 1
        compare_synthetic(cmp, fresh, base)
        compare_steady_state(cmp, fresh, base)
        compare_suite(cmp, fresh, base)
        compare_scaling(cmp, fresh, base)

    for note in cmp.notes:
        print(note)
    if cmp.checked_counters == 0:
        print("FAIL: no comparable sections between "
              f"{args.fresh} and {args.baseline}")
        return 1
    if cmp.errors:
        for err in cmp.errors:
            print(f"FAIL: {err}")
        print(f"{len(cmp.errors)} mismatches, "
              f"{cmp.checked_counters} counters checked")
        return 1
    print(f"OK: {cmp.checked_counters} counters match "
          f"(timing band {cmp.band}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
