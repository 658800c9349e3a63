#!/usr/bin/env python3
"""Fixture tests for tools/bench_report.py's validator modes.

Exercises the overhead-gate helper shared by --chaos and --fleet (including
the zero-denominator skip path that used to traceback on smoke exports) and
the --shared validator for bench/shared_market exports. Pure stdlib; runs
under ctest as bench_report_unit.
"""

import contextlib
import copy
import io
import json
import os
import sys
import tempfile
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))

import bench_report  # noqa: E402


def write_json(directory, name, payload):
    path = os.path.join(directory, name)
    with open(path, "w") as f:
        json.dump(payload, f)
    return path


CHAOS_FIXTURE = {
    "schema_version": 1,
    "schedules": 4,
    "converged": 4,
    "crashes": 9,
    "faults_healed": 17,
    "fault_free_overhead": {
        "on_ms": 12.5,
        "off_ms": 12.0,
        "ratio": 12.5 / 12.0,
        "max_ratio": 1.10,
    },
    "recovery_latency_ms": {
        "count": 9,
        "min": 0.5,
        "mean": 1.5,
        "max": 4.0,
        "fresh_run_ms": 12.0,
    },
}

FLEET_FIXTURE = {
    "schema_version": 1,
    "smoke": False,
    "fleet_jobs": 24,
    "schedules": 6,
    "kills": 12,
    "poisoned": 2,
    "quarantines": 2,
    "recovered_jobs": 22,
    "supervision_overhead": {
        # Mirrors the committed BENCH_fleet.json precision: ms at 4
        # decimals, ratio at 6 — the re-derivation must tolerate that.
        "supervised_ms": 13.6993,
        "direct_ms": 14.5209,
        "ratio": 0.943417,
        "max_ratio": 1.02,
    },
    "recovery_latency_ms": {
        "count": 12,
        "min": 0.3,
        "mean": 0.9,
        "max": 2.1,
    },
}

LARGE_GANG = {
    "jobs": 16,
    "tasks": 48000,
    "repetitions": 3,
    "review_interval": 50.0,
    "repeats": 7,
    "trace_events": 336000,
    "outcome_crc32c": "0xefbd971d",
    "wall_seconds": 0.168,
    "ns_per_event": 0.168 * 1e9 / 336000,
    "host": "vm",
    "num_cpus": 4,
    "build_type": "Release",
    "commit": "abc123",
}

SHARED_FIXTURE = {
    "schema_version": 2,
    "smoke": False,
    "jobs": 1024,
    "min_jobs_for_gate": 1000,
    "tasks": 4096,
    "tasks_completed": 4096,
    "total_events": 250000,
    "wall_seconds": 2.5,
    "events_per_sec": 250000 / 2.5,
    "competition": {
        "isolated_rate": 4.0,
        "shared_rate": 2.02,
        "expected_ratio": 0.5,
        "observed_ratio": 2.02 / 4.0,
        "tolerance": 0.05,
    },
    "large_gang": LARGE_GANG,
}


def with_baseline(**changes):
    """SHARED_FIXTURE whose large gang carries a baseline entry."""
    fixture = copy.deepcopy(SHARED_FIXTURE)
    baseline = copy.deepcopy(LARGE_GANG)
    baseline.update({"wall_seconds": 0.21, "ns_per_event": 0.21 * 1e9 / 336000,
                     "commit": "parent"})
    baseline.update(changes)
    fixture["large_gang"]["baseline"] = baseline
    return fixture


class OverheadGateTest(unittest.TestCase):
    """check_overhead_gate: the seam both --chaos and --fleet load through."""

    def test_valid_section_passes(self):
        overhead = dict(CHAOS_FIXTURE["fault_free_overhead"])
        self.assertTrue(bench_report.check_overhead_gate(
            "x.json", overhead, "fault_free_overhead", "on_ms", "off_ms"))

    def test_zero_denominator_skips_instead_of_dividing(self):
        overhead = {"on_ms": 0.0, "off_ms": 0.0, "ratio": 0.0,
                    "max_ratio": 1.10}
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            checked = bench_report.check_overhead_gate(
                "x.json", overhead, "fault_free_overhead", "on_ms", "off_ms")
        self.assertFalse(checked)
        self.assertIn("SKIPPED", stderr.getvalue())

    def test_ratio_above_max_fails(self):
        overhead = {"on_ms": 15.0, "off_ms": 10.0, "ratio": 1.5,
                    "max_ratio": 1.10}
        with self.assertRaises(SystemExit):
            bench_report.check_overhead_gate(
                "x.json", overhead, "fault_free_overhead", "on_ms", "off_ms")

    def test_inconsistent_ratio_fails(self):
        overhead = {"on_ms": 10.0, "off_ms": 10.0, "ratio": 0.5,
                    "max_ratio": 1.10}
        with self.assertRaises(SystemExit):
            bench_report.check_overhead_gate(
                "x.json", overhead, "fault_free_overhead", "on_ms", "off_ms")

    def test_sub_resolution_times_skip_rederivation_but_keep_gate(self):
        # Both sides timed under the 0.1 ms floor: the quotient is rounding
        # noise, so only the ratio <= max_ratio gate applies.
        overhead = {"on_ms": 0.0001, "off_ms": 0.0002, "ratio": 1.0,
                    "max_ratio": 1.10}
        self.assertTrue(bench_report.check_overhead_gate(
            "x.json", overhead, "fault_free_overhead", "on_ms", "off_ms"))
        overhead["ratio"] = 1.5
        with self.assertRaises(SystemExit):
            bench_report.check_overhead_gate(
                "x.json", overhead, "fault_free_overhead", "on_ms", "off_ms")

    def test_non_finite_value_fails(self):
        overhead = {"on_ms": float("nan"), "off_ms": 10.0, "ratio": 1.0,
                    "max_ratio": 1.10}
        with self.assertRaises(SystemExit):
            bench_report.check_overhead_gate(
                "x.json", overhead, "fault_free_overhead", "on_ms", "off_ms")


class ChaosValidatorTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def test_valid_export_passes_and_digests(self):
        path = write_json(self.dir.name, "chaos.json", CHAOS_FIXTURE)
        data = bench_report.load_chaos(path)
        digest = bench_report.chaos_digest(data)
        self.assertIn("schedules=4 converged=4", digest)

    def test_zero_off_ms_smoke_export_skips_gate(self):
        fixture = copy.deepcopy(CHAOS_FIXTURE)
        fixture["fault_free_overhead"] = {
            "on_ms": 0.0, "off_ms": 0.0, "ratio": 0.0, "max_ratio": 1.10}
        path = write_json(self.dir.name, "chaos.json", fixture)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            bench_report.load_chaos(path)
        self.assertIn("SKIPPED", stderr.getvalue())

    def test_unconverged_schedule_fails(self):
        fixture = copy.deepcopy(CHAOS_FIXTURE)
        fixture["converged"] = 3
        path = write_json(self.dir.name, "chaos.json", fixture)
        with self.assertRaises(SystemExit):
            bench_report.load_chaos(path)


class FleetValidatorTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def test_committed_precision_export_passes(self):
        path = write_json(self.dir.name, "fleet.json", FLEET_FIXTURE)
        data = bench_report.load_fleet(path)
        self.assertIn("overhead supervised_ms=",
                      bench_report.fleet_digest(data))

    def test_zero_direct_ms_smoke_export_skips_gate(self):
        fixture = copy.deepcopy(FLEET_FIXTURE)
        fixture["smoke"] = True
        fixture["supervision_overhead"] = {
            "supervised_ms": 0.0, "direct_ms": 0.0, "ratio": 0.0,
            "max_ratio": 1.02}
        path = write_json(self.dir.name, "fleet.json", fixture)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            bench_report.load_fleet(path)
        self.assertIn("SKIPPED", stderr.getvalue())

    def test_quarantine_mismatch_fails(self):
        fixture = copy.deepcopy(FLEET_FIXTURE)
        fixture["quarantines"] = 3
        path = write_json(self.dir.name, "fleet.json", fixture)
        with self.assertRaises(SystemExit):
            bench_report.load_fleet(path)

    def test_overhead_ratio_above_max_fails(self):
        fixture = copy.deepcopy(FLEET_FIXTURE)
        fixture["supervision_overhead"]["ratio"] = 1.5
        fixture["supervision_overhead"]["supervised_ms"] = 21.7814
        path = write_json(self.dir.name, "fleet.json", fixture)
        with self.assertRaises(SystemExit):
            bench_report.load_fleet(path)


class SharedValidatorTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def test_valid_export_passes_and_digests(self):
        path = write_json(self.dir.name, "shared.json", SHARED_FIXTURE)
        data = bench_report.load_shared(path)
        digest = bench_report.shared_digest(data)
        self.assertIn("jobs=1024 min_jobs_for_gate=1000", digest)
        self.assertIn("competition isolated_rate=4", digest)

    def test_full_run_below_job_gate_fails(self):
        fixture = copy.deepcopy(SHARED_FIXTURE)
        fixture["jobs"] = 8
        path = write_json(self.dir.name, "shared.json", fixture)
        with self.assertRaises(SystemExit):
            bench_report.load_shared(path)

    def test_smoke_run_below_job_gate_passes(self):
        fixture = copy.deepcopy(SHARED_FIXTURE)
        fixture["smoke"] = True
        fixture["jobs"] = 8
        path = write_json(self.dir.name, "shared.json", fixture)
        bench_report.load_shared(path)

    def test_incomplete_tasks_fail(self):
        fixture = copy.deepcopy(SHARED_FIXTURE)
        fixture["tasks_completed"] = fixture["tasks"] - 1
        path = write_json(self.dir.name, "shared.json", fixture)
        with self.assertRaises(SystemExit):
            bench_report.load_shared(path)

    def test_inconsistent_events_per_sec_fails(self):
        fixture = copy.deepcopy(SHARED_FIXTURE)
        fixture["events_per_sec"] = fixture["events_per_sec"] * 1.01
        path = write_json(self.dir.name, "shared.json", fixture)
        with self.assertRaises(SystemExit):
            bench_report.load_shared(path)

    def test_zero_isolated_rate_skips_competition_gate(self):
        fixture = copy.deepcopy(SHARED_FIXTURE)
        fixture["competition"].update(
            {"isolated_rate": 0.0, "shared_rate": 0.0, "observed_ratio": 0.0})
        path = write_json(self.dir.name, "shared.json", fixture)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            bench_report.load_shared(path)
        self.assertIn("SKIPPED", stderr.getvalue())

    def test_competition_ratio_outside_tolerance_fails(self):
        fixture = copy.deepcopy(SHARED_FIXTURE)
        fixture["competition"]["shared_rate"] = 3.6
        fixture["competition"]["observed_ratio"] = 3.6 / 4.0
        path = write_json(self.dir.name, "shared.json", fixture)
        with self.assertRaises(SystemExit):
            bench_report.load_shared(path)

    def test_wrong_schema_version_fails(self):
        fixture = copy.deepcopy(SHARED_FIXTURE)
        fixture["schema_version"] = 1
        path = write_json(self.dir.name, "shared.json", fixture)
        with self.assertRaises(SystemExit):
            bench_report.load_shared(path)

    def test_missing_large_gang_fails(self):
        fixture = copy.deepcopy(SHARED_FIXTURE)
        del fixture["large_gang"]
        path = write_json(self.dir.name, "shared.json", fixture)
        with self.assertRaises(SystemExit):
            bench_report.load_shared(path)

    def test_inconsistent_ns_per_event_fails(self):
        fixture = copy.deepcopy(SHARED_FIXTURE)
        fixture["large_gang"]["ns_per_event"] *= 1.01
        path = write_json(self.dir.name, "shared.json", fixture)
        with self.assertRaises(SystemExit):
            bench_report.load_shared(path)

    def test_full_run_from_a_debug_build_fails(self):
        fixture = copy.deepcopy(SHARED_FIXTURE)
        fixture["large_gang"]["build_type"] = "Debug"
        path = write_json(self.dir.name, "shared.json", fixture)
        with self.assertRaises(SystemExit):
            bench_report.load_shared(path)

    def test_baseline_digests_with_speedup(self):
        path = write_json(self.dir.name, "shared.json", with_baseline())
        digest = bench_report.shared_digest(bench_report.load_shared(path))
        self.assertIn("large_gang jobs=16", digest)
        self.assertIn("speedup=1.25", digest)

    def test_baseline_of_another_gang_fails(self):
        for changes in ({"outcome_crc32c": "0x00000001"},
                        {"trace_events": 335999,
                         "ns_per_event": 0.21 * 1e9 / 335999},
                        {"host": "elsewhere"}, {"num_cpus": 8}):
            path = write_json(self.dir.name, "shared.json",
                              with_baseline(**changes))
            with self.assertRaises(SystemExit, msg=str(changes)):
                bench_report.load_shared(path)


if __name__ == "__main__":
    unittest.main()
