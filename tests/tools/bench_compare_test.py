#!/usr/bin/env python3
"""Unit tests for tools/bench_compare.py band-edge behavior.

Run directly (python3 tests/tools/bench_compare_test.py) or through the
bench_compare_unit CTest entry.  Focus: the comparison primitives must
be deterministic at the exact --time-band boundary and must never turn
a zero-valued counter into a silent pass.
"""

import contextlib
import importlib.util
import io
import json
import os
import sys
import tempfile
import unittest
from unittest import mock

_TOOLS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      os.pardir, os.pardir, "tools")
_spec = importlib.util.spec_from_file_location(
    "bench_compare", os.path.join(_TOOLS, "bench_compare.py"))
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)


class TimingBandTest(unittest.TestCase):
    def comparison(self, band=3.0):
        return bench_compare.Comparison(band)

    def test_exact_band_edge_slow_is_pass(self):
        # fresh/base == band exactly: inclusive, deterministic PASS.
        cmp = self.comparison(band=3.0)
        cmp.timing("ctx", "ms", 30.0, 10.0)
        self.assertEqual(cmp.errors, [])

    def test_exact_band_edge_fast_is_pass(self):
        # base/fresh == band exactly: the speedup direction must get
        # the same inclusive treatment as the slowdown direction.
        cmp = self.comparison(band=3.0)
        cmp.timing("ctx", "ms", 10.0, 30.0)
        self.assertEqual(cmp.errors, [])

    def test_band_edge_symmetric_with_inexact_reciprocal(self):
        # 1.0/3.0 is not exactly representable; both directions at the
        # edge must agree (the historical bug: the fast direction
        # compared against a rounded reciprocal).
        cmp = self.comparison(band=3.0)
        cmp.timing("slow", "ms", 3.0 * 7.0, 7.0)
        cmp.timing("fast", "ms", 7.0, 3.0 * 7.0)
        self.assertEqual(cmp.errors, [])

    def test_just_outside_band_fails_both_directions(self):
        cmp = self.comparison(band=3.0)
        cmp.timing("slow", "ms", 30.1, 10.0)
        cmp.timing("fast", "ms", 10.0, 30.1)
        self.assertEqual(len(cmp.errors), 2)
        self.assertIn("slow", cmp.errors[0])
        self.assertIn("fast", cmp.errors[1])

    def test_inside_band_passes(self):
        cmp = self.comparison(band=3.0)
        cmp.timing("ctx", "ms", 29.9, 10.0)
        cmp.timing("ctx", "ms", 10.0, 29.9)
        self.assertEqual(cmp.errors, [])

    def test_sub_millisecond_skip_is_named_not_silent(self):
        cmp = self.comparison()
        cmp.timing("ctx", "ms", 0.4, 900.0)
        self.assertEqual(cmp.errors, [])
        self.assertTrue(any("skipped" in n and "ctx" in n
                            for n in cmp.notes),
                        f"expected a named skip note, got {cmp.notes}")

    def test_zero_baseline_timing_skips_without_division(self):
        # base == 0.0 used to sit one refactor away from a
        # ZeroDivisionError; it must take the named-skip path.
        cmp = self.comparison()
        cmp.timing("ctx", "ms", 50.0, 0.0)
        self.assertEqual(cmp.errors, [])
        self.assertTrue(any("skipped" in n for n in cmp.notes))

    def test_missing_values_are_skipped(self):
        # fetch() already recorded the missing key; timing adds nothing.
        cmp = self.comparison()
        cmp.timing("ctx", "ms", None, 10.0)
        cmp.timing("ctx", "ms", 10.0, None)
        self.assertEqual(cmp.errors, [])


class ExactCounterTest(unittest.TestCase):
    def test_zero_equals_zero(self):
        cmp = bench_compare.Comparison(10.0)
        cmp.exact("ctx", "solves", 0, 0)
        self.assertEqual(cmp.errors, [])
        self.assertEqual(cmp.checked_counters, 1)

    def test_zero_vs_nonzero_fails(self):
        # A zero-valued counter participates in the exact diff like any
        # other value -- it must not be confused with "absent".
        cmp = bench_compare.Comparison(10.0)
        cmp.exact("ctx", "solves", 0, 7)
        self.assertEqual(len(cmp.errors), 1)
        self.assertIn("solves", cmp.errors[0])


class PrechangeTest(unittest.TestCase):
    @staticmethod
    def run_main(*argv):
        out = io.StringIO()
        with mock.patch.object(sys, "argv", ["bench_compare.py", *argv]), \
                contextlib.redirect_stdout(out):
            status = bench_compare.main()
        return status, out.getvalue()

    def test_prechange_with_perf_equilibrium_file_is_named_failure(self):
        # Only serve captures have a pre-change counterpart, so
        # --prechange with a perf_equilibrium file is an error, not a
        # silent no-op.
        row = {"players": 1000, "mode": "hill_climb", "solves": 480,
               "counted_allocs": 0, "sweeps": 480,
               "update_steps": 460729, "ns_per_sweep": 2.0e5,
               "us_per_solve": 200.0}
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fresh.json")
            with open(path, "w") as f:
                json.dump({"scaling": [row]}, f)
            status, out = self.run_main(path, "--baseline", path)
            self.assertEqual(status, 0, out)
            status, out = self.run_main(path, "--baseline", path,
                                        "--prechange", path)
        self.assertEqual(status, 1)
        self.assertIn("--prechange does not apply to perf_equilibrium",
                      out)


def serve_row(markets=64, players=8, readers=4, rps=3.0e6, **over):
    row = {"markets": markets, "players": players, "readers": readers,
           "reads_per_sec": rps, "ticks_per_sec": 5000.0,
           "read_p50_ns": 150.0, "read_p99_ns": 400.0,
           "read_errors": 0, "torn_reads": 0, "steady_tick_allocs": 0,
           "cold_solves": 0, "frozen_markets": 0}
    row.update(over)
    return row


def serve_file(*rows):
    return {"schema": bench_compare.SERVE_SCHEMA,
            "capacity": list(rows)}


class ServeCompareTest(unittest.TestCase):
    def test_matching_rows_pass(self):
        cmp = bench_compare.Comparison(10.0)
        bench_compare.compare_serve(cmp, serve_file(serve_row()),
                                    serve_file(serve_row()))
        self.assertEqual(cmp.errors, [])
        self.assertGreater(cmp.checked_counters, 0)

    def test_integrity_counters_are_absolute_zero_gates(self):
        # A torn read in BOTH files still fails: the gate is vs 0, not
        # vs the baseline, so a broken committed capture cannot
        # grandfather a correctness bug through the diff.
        for gate in bench_compare.SERVE_ZERO_GATES:
            cmp = bench_compare.Comparison(10.0)
            bad = serve_row(**{gate: 1})
            bench_compare.compare_serve(cmp, serve_file(bad),
                                        serve_file(bad))
            self.assertTrue(any(gate in e for e in cmp.errors),
                            f"{gate}=1 must fail, got {cmp.errors}")

    def test_frozen_markets_diffs_exactly_against_baseline(self):
        cmp = bench_compare.Comparison(10.0)
        bench_compare.compare_serve(
            cmp, serve_file(serve_row(frozen_markets=2)),
            serve_file(serve_row(frozen_markets=0)))
        self.assertTrue(any("frozen_markets" in e for e in cmp.errors))

    def test_throughput_outside_band_fails(self):
        cmp = bench_compare.Comparison(3.0)
        bench_compare.compare_serve(
            cmp, serve_file(serve_row(rps=1.0e6)),
            serve_file(serve_row(rps=3.1e6)))
        self.assertTrue(any("reads_per_sec" in e for e in cmp.errors))

    def test_no_overlapping_rows_is_an_error(self):
        cmp = bench_compare.Comparison(10.0)
        bench_compare.compare_serve(
            cmp, serve_file(serve_row(markets=64)),
            serve_file(serve_row(markets=512)))
        self.assertTrue(any("no overlapping" in e for e in cmp.errors))


def recovery_file(**over):
    doc = {"schema": bench_compare.RECOVERY_SCHEMA, "shards": 8,
           "markets": 64, "players_per_market": 8, "seed": 42,
           "warmup_ticks": 3, "window_ticks": 8, "snapshot_ms": 12.0,
           "snapshot_bytes": 250000, "plain_window_ms": 40.0,
           "journaled_window_ms": 44.0, "journal_overhead_pct": 10.0,
           "journal_ops": 576, "recover_ms": 15.0,
           "snapshots_loaded": 8, "markets_recovered": 64,
           "ops_replayed": 64, "ops_skipped": 512, "torn_tails": 0,
           "snapshots_corrupt": 0, "digest_match": 1,
           "steady_tick_allocs": 0, "cold_solves": 0}
    doc.update(over)
    return doc


class RecoveryCompareTest(unittest.TestCase):
    def test_matching_captures_pass(self):
        cmp = bench_compare.Comparison(10.0)
        bench_compare.compare_recovery(cmp, recovery_file(),
                                       recovery_file())
        self.assertEqual(cmp.errors, [])
        self.assertGreater(cmp.checked_counters, 0)

    def test_fidelity_gates_are_absolute(self):
        # digest_match=0 in BOTH files still fails: recovery fidelity
        # is gated against the constant, not the baseline, so a broken
        # committed capture cannot grandfather data loss through.
        for key, want in bench_compare.RECOVERY_ABSOLUTE:
            cmp = bench_compare.Comparison(10.0)
            bad = recovery_file(**{key: want + 1})
            bench_compare.compare_recovery(cmp, bad, bad)
            self.assertTrue(any(key in e for e in cmp.errors),
                            f"{key}={want + 1} must fail, got {cmp.errors}")

    def test_counter_drift_vs_baseline_fails(self):
        cmp = bench_compare.Comparison(10.0)
        bench_compare.compare_recovery(
            cmp, recovery_file(journal_ops=575), recovery_file())
        self.assertTrue(any("journal_ops" in e for e in cmp.errors))

    def test_missing_key_is_named_failure(self):
        cmp = bench_compare.Comparison(10.0)
        fresh = recovery_file()
        del fresh["ops_replayed"]
        bench_compare.compare_recovery(cmp, fresh, recovery_file())
        self.assertTrue(any("ops_replayed" in e and "missing" in e
                            for e in cmp.errors),
                        f"expected a named missing-key FAIL, got "
                        f"{cmp.errors}")

    def test_recover_time_outside_band_fails(self):
        cmp = bench_compare.Comparison(3.0)
        bench_compare.compare_recovery(
            cmp, recovery_file(recover_ms=100.0),
            recovery_file(recover_ms=10.0))
        self.assertTrue(any("recover_ms" in e for e in cmp.errors))

    def test_overhead_is_informational_note_not_gate(self):
        cmp = bench_compare.Comparison(10.0)
        bench_compare.compare_recovery(
            cmp, recovery_file(journal_overhead_pct=80.0),
            recovery_file())
        self.assertEqual(cmp.errors, [])
        self.assertTrue(any("journaled window" in n for n in cmp.notes))


class ServeSpeedupTest(unittest.TestCase):
    def test_peak_and_geomean_gates_pass(self):
        cmp = bench_compare.Comparison(10.0)
        fresh = serve_file(serve_row(readers=1, rps=7.0e6),
                           serve_row(readers=4, rps=5.0e6),
                           serve_row(readers=8, rps=4.5e6))
        pre = serve_file(serve_row(readers=1, rps=2.0e6),
                         serve_row(readers=4, rps=2.0e6),
                         serve_row(readers=8, rps=2.0e6))
        bench_compare.check_serve_speedup(cmp, fresh, pre, 2.0, 3.0)
        self.assertEqual(cmp.errors, [])
        self.assertTrue(any("peak 3.50x" in n for n in cmp.notes),
                        f"expected a summary note, got {cmp.notes}")

    def test_peak_below_min_fails(self):
        cmp = bench_compare.Comparison(10.0)
        fresh = serve_file(serve_row(rps=5.0e6))
        pre = serve_file(serve_row(rps=2.0e6))
        bench_compare.check_serve_speedup(cmp, fresh, pre, None, 3.0)
        self.assertTrue(any("peak" in e and "below required" in e
                            for e in cmp.errors))

    def test_geomean_below_min_fails(self):
        # Peak clears 3x via a single-reader row, but the geomean over
        # the concurrent rows does not clear 2x -- the two gates are
        # independent.
        cmp = bench_compare.Comparison(10.0)
        fresh = serve_file(serve_row(readers=1, rps=7.0e6),
                           serve_row(readers=4, rps=3.0e6),
                           serve_row(readers=8, rps=3.0e6))
        pre = serve_file(serve_row(readers=1, rps=2.0e6),
                         serve_row(readers=4, rps=2.0e6),
                         serve_row(readers=8, rps=2.0e6))
        bench_compare.check_serve_speedup(cmp, fresh, pre, 2.0, 3.0)
        self.assertTrue(any("geomean" in e for e in cmp.errors),
                        f"expected a geomean failure, got {cmp.errors}")

    def test_min_speedup_without_concurrent_rows_is_an_error(self):
        cmp = bench_compare.Comparison(10.0)
        fresh = serve_file(serve_row(readers=1, rps=7.0e6))
        pre = serve_file(serve_row(readers=1, rps=2.0e6))
        bench_compare.check_serve_speedup(cmp, fresh, pre, 2.0, None)
        self.assertTrue(any("readers >= 4" in e for e in cmp.errors))

    def test_zero_prechange_rps_is_named_failure(self):
        cmp = bench_compare.Comparison(10.0)
        bench_compare.check_serve_speedup(
            cmp, serve_file(serve_row()),
            serve_file(serve_row(rps=0)), None, None)
        self.assertTrue(any("non-positive" in e for e in cmp.errors))

    def test_wrong_prechange_schema_is_named_failure(self):
        cmp = bench_compare.Comparison(10.0)
        bench_compare.check_serve_speedup(
            cmp, serve_file(serve_row()), {"scaling": []}, None, None)
        self.assertTrue(any("schema" in e for e in cmp.errors))

    def test_no_overlap_is_an_error(self):
        cmp = bench_compare.Comparison(10.0)
        bench_compare.check_serve_speedup(
            cmp, serve_file(serve_row(markets=64)),
            serve_file(serve_row(markets=512)), None, None)
        self.assertTrue(any("no overlapping" in e for e in cmp.errors))


if __name__ == "__main__":
    unittest.main()
