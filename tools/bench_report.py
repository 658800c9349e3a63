#!/usr/bin/env python3
"""Run the tuning microbenchmarks and distill a BENCH_tuning.json snapshot.

Runs the google-benchmark `microbench` binary with --benchmark_format=json
and keeps the allocator end-to-end and parallel-runtime entries.
Stdlib only; no third-party packages.

Usage:
  tools/bench_report.py --bin build/bench/microbench --out BENCH_tuning.json \
      [--min-time 0.1] [--extra-filter REGEX] [--metrics METRICS_JSON] \
      [--baseline-bin PATH --baseline-commit SHA]
  tools/bench_report.py --validate-metrics METRICS_JSON
  tools/bench_report.py --chaos CHAOS_JSON

The report's context names the host, CPU count, the microbench's build type
and the commit it was built from: this checkout's HEAD, suffixed -dirty
when tracked files differ from it. --baseline-bin runs a second microbench,
typically the same target built from the parent commit, with the same
filter, and stores its context and benchmarks under "baseline".

--metrics folds an observability export (htune_cli --metrics=PATH, schema
version 1; see src/obs/export.h) into the report under a "metrics" key:
counters and gauges verbatim, histograms summarized, spans aggregated per
name. --validate-metrics parses an export, checks every invariant the
schema promises (finite numbers, histogram count arithmetic, span field
sanity), prints a canonical digest, and exits nonzero on any violation —
the C++ round-trip test drives this mode.

--chaos parses a bench/chaos_soak --out=PATH export, re-checks the two
gates it encodes (every chaos schedule converged to the fault-free
reference; fault-free resilience overhead within the gated ratio), prints
a canonical digest, and exits nonzero on any violation — CI's chaos job
drives this mode after the bench smoke run.

--market parses a bench/market_throughput --out=PATH export, checks every
field's shape, re-derives events_per_sec and speedup from their inputs
(the committed BENCH_market.json must be internally consistent, not just
well-formed), re-checks the ≥10x gate on at least one 1M+-event workload
when a baseline was supplied, prints a canonical digest, and exits
nonzero on any violation — CI's perf-smoke job drives this mode.

--fleet parses a bench/fleet_soak --out=PATH export, re-checks the gates
it encodes (supervision overhead within the gated ratio; quarantined ==
deliberately poisoned; latency stats ordered), prints a canonical digest,
and exits nonzero on any violation — CI's fleet job drives this mode
after the bench smoke run and against the committed BENCH_fleet.json.

--shared parses a bench/shared_market --out=PATH export, re-checks the
gates it encodes (>= min_jobs_for_gate concurrent jobs on one market when
not a smoke run; every posted task completed; the observed competition
ratio matches the thinning model's prediction; the large gang's
ns_per_event re-derives from its wall time, and a baseline entry ran the
same gang, with the same outcome CRC, on the same host and build type),
prints a canonical digest, and exits nonzero on any violation — CI's
server job drives this mode and against the committed BENCH_shared.json.

Overhead and competition gates whose denominator recorded as 0 (a smoke
run finishing inside the timer's resolution) are reported as skipped on
stderr instead of tripping a ZeroDivisionError; the remaining shape
checks still run.
"""

import argparse
import json
import math
import os
import subprocess
import sys

METRICS_SCHEMA_VERSION = 1

# Benchmarks the report tracks: allocator end-to-end costs plus the parallel
# runtime primitives they are built on.
FILTER = (
    "ManyGroups|LatencyCacheHit|ParallelForOverhead|ParallelMonteCarlo"
    "|BM_RepetitionAllocator/|BM_HeterogeneousAllocator/"
    "|BM_RepetitionAllocatorPlanHeavy"
)


CONTEXT_KEYS = ("host_name", "num_cpus", "mhz_per_cpu", "build_type")


def checkout_commit():
    """This checkout's short HEAD, suffixed -dirty if tracked files differ."""
    def git(*args):
        return subprocess.run(["git", *args], capture_output=True, text=True,
                              cwd=os.path.dirname(os.path.abspath(__file__)))
    head = git("rev-parse", "--short=12", "HEAD")
    if head.returncode != 0:
        return "unknown"
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout.strip()
    return head.stdout.strip() + ("-dirty" if dirty else "")


def distill(raw, commit):
    """Keeps the iteration rows and the context of one microbench run."""
    context = {key: raw.get("context", {}).get(key) for key in CONTEXT_KEYS}
    context["commit"] = commit
    benchmarks = [
        {
            "name": b["name"],
            "real_time": b["real_time"],
            "cpu_time": b["cpu_time"],
            "time_unit": b["time_unit"],
            "iterations": b["iterations"],
            **({"groups": b["groups"]} if "groups" in b else {}),
        }
        for b in raw.get("benchmarks", [])
        if b.get("run_type", "iteration") == "iteration"
    ]
    return {"context": context, "benchmarks": benchmarks}


def run_benchmarks(binary, min_time, extra_filter):
    bench_filter = FILTER
    if extra_filter:
        bench_filter = f"{bench_filter}|{extra_filter}"
    cmd = [
        binary,
        f"--benchmark_filter={bench_filter}",
        f"--benchmark_min_time={min_time}",
        "--benchmark_format=json",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark run failed: {' '.join(cmd)}")
    return json.loads(proc.stdout)


def load_metrics(path):
    """Parses and validates an observability metrics export."""
    with open(path) as f:
        data = json.load(f)
    if data.get("schema_version") != METRICS_SCHEMA_VERSION:
        raise SystemExit(
            f"{path}: unsupported metrics schema_version "
            f"{data.get('schema_version')!r} (expected "
            f"{METRICS_SCHEMA_VERSION})")
    for section in ("counters", "gauges", "histograms", "spans"):
        if section not in data:
            raise SystemExit(f"{path}: missing '{section}' section")
    for name, value in data["counters"].items():
        if not isinstance(value, int) or value < 0:
            raise SystemExit(f"{path}: counter {name} is not a non-negative "
                             f"integer: {value!r}")
    for name, value in data["gauges"].items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise SystemExit(f"{path}: gauge {name} is not finite: {value!r}")
    for name, hist in data["histograms"].items():
        for bound in ("lo", "hi"):
            if not math.isfinite(hist[bound]):
                raise SystemExit(f"{path}: histogram {name} {bound} is not "
                                 f"finite: {hist[bound]!r}")
        if not hist["lo"] < hist["hi"]:
            raise SystemExit(f"{path}: histogram {name} has lo >= hi")
        parts = (sum(hist["buckets"]) + hist["underflow"] + hist["overflow"]
                 + hist["nan_count"])
        if parts != hist["count"]:
            raise SystemExit(
                f"{path}: histogram {name} count {hist['count']} != "
                f"buckets+underflow+overflow+nan {parts}")
    for span in data["spans"]:
        for key in ("id", "parent_id", "start_ns", "duration_ns", "depth",
                    "thread"):
            if not isinstance(span.get(key), int) or span[key] < 0:
                raise SystemExit(f"{path}: span {span.get('name')!r} has a "
                                 f"bad '{key}' field: {span.get(key)!r}")
        if span["id"] == 0:
            raise SystemExit(f"{path}: span {span.get('name')!r} has id 0 "
                             "(ids start at 1)")
    if data.get("spans_dropped", 0) < 0:
        raise SystemExit(f"{path}: negative spans_dropped")
    return data


CHAOS_SCHEMA_VERSION = 1

# Overhead ratios are exported with ~6 significant digits while the ms
# inputs carry 4 decimals, so the re-derived ratio only matches
# approximately; 2% is far tighter than any real regression and far looser
# than the rounding error of any timeable run.
OVERHEAD_RATIO_TOLERANCE = 0.02
# Below this many ms the 4-decimal export rounding dominates the quotient
# and re-derivation is meaningless.
OVERHEAD_REDERIVE_FLOOR_MS = 0.1


def check_overhead_gate(path, overhead, section, num_key, den_key):
    """Validates one {num, den, ratio, max_ratio} overhead section.

    Returns True when the gate was checked, False when it was *skipped*
    because the run recorded a 0 ms denominator (a --smoke run can finish
    inside the timer's resolution; the ratio is then 0/0 noise, and
    re-deriving it would divide by zero). A skip is reported, never a
    traceback, and the rest of the export is still validated.
    """
    for key in (num_key, den_key, "ratio", "max_ratio"):
        value = overhead.get(key)
        if not isinstance(value, (int, float)) or not math.isfinite(value) \
                or value < 0:
            raise SystemExit(f"{path}: {section}.{key} is not a "
                             f"non-negative finite number: {value!r}")
    if overhead["max_ratio"] <= 0:
        raise SystemExit(f"{path}: {section}.max_ratio is not positive: "
                         f"{overhead['max_ratio']!r}")
    if overhead[den_key] <= 0 or overhead[num_key] <= 0:
        print(f"{path}: {section} gate SKIPPED: {num_key}="
              f"{overhead[num_key]!r} {den_key}={overhead[den_key]!r} "
              "(run too fast to time; ratio not derivable)",
              file=sys.stderr)
        return False
    derived = overhead[num_key] / overhead[den_key]
    if min(overhead[num_key], overhead[den_key]) >= \
            OVERHEAD_REDERIVE_FLOOR_MS and \
            abs(derived - overhead["ratio"]) > \
            OVERHEAD_RATIO_TOLERANCE * max(derived, 1.0):
        raise SystemExit(
            f"{path}: {section}.ratio {overhead['ratio']!r} does not equal "
            f"{num_key}/{den_key} ({derived!r})")
    if overhead["ratio"] > overhead["max_ratio"]:
        raise SystemExit(
            f"{path}: {section} ratio {overhead['ratio']:.4f} exceeds the "
            f"gated maximum {overhead['max_ratio']:.4f}")
    return True


def load_chaos(path):
    """Parses and validates a bench/chaos_soak --out export."""
    with open(path) as f:
        data = json.load(f)
    if data.get("schema_version") != CHAOS_SCHEMA_VERSION:
        raise SystemExit(
            f"{path}: unsupported chaos schema_version "
            f"{data.get('schema_version')!r} (expected "
            f"{CHAOS_SCHEMA_VERSION})")
    for key in ("schedules", "converged", "crashes", "faults_healed"):
        if not isinstance(data.get(key), int) or data[key] < 0:
            raise SystemExit(f"{path}: '{key}' is not a non-negative "
                             f"integer: {data.get(key)!r}")
    if data["converged"] != data["schedules"]:
        raise SystemExit(
            f"{path}: only {data['converged']} of {data['schedules']} chaos "
            "schedules converged to the fault-free reference")
    overhead = data.get("fault_free_overhead")
    if not isinstance(overhead, dict):
        raise SystemExit(f"{path}: missing 'fault_free_overhead' section")
    check_overhead_gate(path, overhead, "fault_free_overhead",
                        "on_ms", "off_ms")
    latency = data.get("recovery_latency_ms")
    if not isinstance(latency, dict):
        raise SystemExit(f"{path}: missing 'recovery_latency_ms' section")
    if not isinstance(latency.get("count"), int) or latency["count"] < 0:
        raise SystemExit(f"{path}: recovery_latency_ms.count is not a "
                         f"non-negative integer: {latency.get('count')!r}")
    for key in ("min", "mean", "max", "fresh_run_ms"):
        value = latency.get(key)
        if not isinstance(value, (int, float)) or not math.isfinite(value) \
                or value < 0:
            raise SystemExit(f"{path}: recovery_latency_ms.{key} is not a "
                             f"non-negative finite number: {value!r}")
    if latency["count"] > 0 and not (
            latency["min"] <= latency["mean"] <= latency["max"]):
        raise SystemExit(
            f"{path}: recovery latency min/mean/max are not ordered: "
            f"{latency['min']!r}/{latency['mean']!r}/{latency['max']!r}")
    return data


def chaos_digest(data):
    """Canonical one-line-per-fact text form of a chaos export."""
    overhead = data["fault_free_overhead"]
    latency = data["recovery_latency_ms"]
    lines = [
        f"schema_version={data['schema_version']}",
        f"schedules={data['schedules']} converged={data['converged']} "
        f"crashes={data['crashes']} faults_healed={data['faults_healed']}",
        "overhead on_ms=%.17g off_ms=%.17g ratio=%.17g max_ratio=%.17g"
        % (overhead["on_ms"], overhead["off_ms"], overhead["ratio"],
           overhead["max_ratio"]),
        "recovery count=%d min_ms=%.17g mean_ms=%.17g max_ms=%.17g "
        "fresh_run_ms=%.17g"
        % (latency["count"], latency["min"], latency["mean"], latency["max"],
           latency["fresh_run_ms"]),
    ]
    return "\n".join(lines)


MARKET_SCHEMA_VERSION = 1

# Re-derived ratios (events/sec from counts and wall time, speedup from the
# baseline rate) must agree to this relative tolerance; the bench computes
# them from the same doubles it exports, so only real corruption or a
# hand-edited report trips it.
MARKET_RATIO_TOLERANCE = 1e-9


def load_market(path):
    """Parses and validates a bench/market_throughput --out export."""
    with open(path) as f:
        data = json.load(f)
    if data.get("schema_version") != MARKET_SCHEMA_VERSION:
        raise SystemExit(
            f"{path}: unsupported market schema_version "
            f"{data.get('schema_version')!r} (expected "
            f"{MARKET_SCHEMA_VERSION})")
    for key in ("smoke", "has_baseline"):
        if not isinstance(data.get(key), bool):
            raise SystemExit(f"{path}: '{key}' is not a bool: "
                             f"{data.get(key)!r}")
    gate_events = data.get("min_events_for_gate")
    if not isinstance(gate_events, int) or gate_events <= 0:
        raise SystemExit(f"{path}: min_events_for_gate is not a positive "
                         f"integer: {gate_events!r}")
    # Without a baseline there is nothing to gate against and the bench
    # exports target_speedup 0; with one, the target must be positive.
    target = data.get("target_speedup")
    if not isinstance(target, (int, float)) or not math.isfinite(target) \
            or target < 0 or (data.get("has_baseline") and target <= 0):
        raise SystemExit(f"{path}: target_speedup is not a valid gate "
                         f"target: {target!r}")
    workloads = data.get("workloads")
    if not isinstance(workloads, list) or not workloads:
        raise SystemExit(f"{path}: 'workloads' is not a non-empty list")
    names = set()
    gate_met = False
    for w in workloads:
        name = w.get("name")
        if not isinstance(name, str) or not name:
            raise SystemExit(f"{path}: workload with a missing name: {w!r}")
        if name in names:
            raise SystemExit(f"{path}: duplicate workload '{name}'")
        names.add(name)
        where = f"{path}: workload '{name}'"
        for key in ("tasks", "worker_arrivals", "events_dispatched",
                    "reprices", "total_events", "trace_records", "spent"):
            if not isinstance(w.get(key), int) or w[key] < 0:
                raise SystemExit(f"{where}: '{key}' is not a non-negative "
                                 f"integer: {w.get(key)!r}")
        if w["tasks"] == 0 or w["total_events"] == 0:
            raise SystemExit(f"{where}: ran no work (tasks="
                             f"{w['tasks']}, total_events="
                             f"{w['total_events']})")
        if w["total_events"] < w["worker_arrivals"] + w["events_dispatched"]:
            raise SystemExit(
                f"{where}: total_events {w['total_events']} below its "
                f"components ({w['worker_arrivals']} arrivals + "
                f"{w['events_dispatched']} dispatched)")
        for key in ("wall_seconds", "events_per_sec"):
            value = w.get(key)
            if not isinstance(value, (int, float)) \
                    or not math.isfinite(value) or value <= 0:
                raise SystemExit(f"{where}: '{key}' is not a positive "
                                 f"finite number: {value!r}")
        derived = w["total_events"] / w["wall_seconds"]
        if abs(derived - w["events_per_sec"]) > \
                MARKET_RATIO_TOLERANCE * derived:
            raise SystemExit(
                f"{where}: events_per_sec {w['events_per_sec']!r} does not "
                f"equal total_events/wall_seconds ({derived!r})")
        has_speedup = "speedup" in w or "baseline_events_per_sec" in w
        if data["has_baseline"] != has_speedup:
            raise SystemExit(
                f"{where}: baseline fields "
                f"{'missing' if data['has_baseline'] else 'present'} but "
                f"has_baseline is {data['has_baseline']}")
        if has_speedup:
            for key in ("baseline_events_per_sec", "speedup"):
                value = w.get(key)
                if not isinstance(value, (int, float)) \
                        or not math.isfinite(value) or value <= 0:
                    raise SystemExit(f"{where}: '{key}' is not a positive "
                                     f"finite number: {value!r}")
            derived = w["events_per_sec"] / w["baseline_events_per_sec"]
            if abs(derived - w["speedup"]) > MARKET_RATIO_TOLERANCE * derived:
                raise SystemExit(
                    f"{where}: speedup {w['speedup']!r} does not equal "
                    f"events_per_sec/baseline_events_per_sec ({derived!r})")
            if w["total_events"] >= gate_events and w["speedup"] >= target:
                gate_met = True
    if data["has_baseline"] and not gate_met:
        raise SystemExit(
            f"{path}: no workload with >= {gate_events} events reached the "
            f"{target}x speedup gate")
    return data


def market_digest(data):
    """Canonical one-line-per-workload text form of a market export."""
    lines = [
        f"schema_version={data['schema_version']} "
        f"smoke={str(data['smoke']).lower()} "
        f"min_events_for_gate={data['min_events_for_gate']} "
        f"target_speedup=%.17g has_baseline=%s"
        % (data["target_speedup"], str(data["has_baseline"]).lower()),
    ]
    for w in data["workloads"]:
        line = (
            "workload %s tasks=%d total_events=%d events_per_sec=%.17g"
            % (w["name"], w["tasks"], w["total_events"], w["events_per_sec"]))
        if "speedup" in w:
            line += " speedup=%.17g" % w["speedup"]
        lines.append(line)
    return "\n".join(lines)


FLEET_SCHEMA_VERSION = 1


def load_fleet(path):
    """Parses and validates a bench/fleet_soak --out export."""
    with open(path) as f:
        data = json.load(f)
    if data.get("schema_version") != FLEET_SCHEMA_VERSION:
        raise SystemExit(
            f"{path}: unsupported fleet schema_version "
            f"{data.get('schema_version')!r} (expected "
            f"{FLEET_SCHEMA_VERSION})")
    if not isinstance(data.get("smoke"), bool):
        raise SystemExit(f"{path}: 'smoke' is not a bool: "
                         f"{data.get('smoke')!r}")
    for key in ("fleet_jobs", "schedules", "kills", "poisoned",
                "quarantines", "recovered_jobs"):
        if not isinstance(data.get(key), int) or data[key] < 0:
            raise SystemExit(f"{path}: '{key}' is not a non-negative "
                             f"integer: {data.get(key)!r}")
    if data["fleet_jobs"] == 0 or data["schedules"] == 0:
        raise SystemExit(f"{path}: ran no work (fleet_jobs="
                         f"{data['fleet_jobs']}, schedules="
                         f"{data['schedules']})")
    # The quarantine gate: exactly the deliberately poisoned journals were
    # quarantined, nothing else.
    if data["quarantines"] != data["poisoned"]:
        raise SystemExit(
            f"{path}: quarantined {data['quarantines']} jobs but poisoned "
            f"{data['poisoned']}")
    overhead = data.get("supervision_overhead")
    if not isinstance(overhead, dict):
        raise SystemExit(f"{path}: missing 'supervision_overhead' section")
    check_overhead_gate(path, overhead, "supervision_overhead",
                        "supervised_ms", "direct_ms")
    latency = data.get("recovery_latency_ms")
    if not isinstance(latency, dict):
        raise SystemExit(f"{path}: missing 'recovery_latency_ms' section")
    if not isinstance(latency.get("count"), int) or latency["count"] < 0:
        raise SystemExit(f"{path}: recovery_latency_ms.count is not a "
                         f"non-negative integer: {latency.get('count')!r}")
    for key in ("min", "mean", "max"):
        value = latency.get(key)
        if not isinstance(value, (int, float)) or not math.isfinite(value) \
                or value < 0:
            raise SystemExit(f"{path}: recovery_latency_ms.{key} is not a "
                             f"non-negative finite number: {value!r}")
    if latency["count"] > 0 and not (
            latency["min"] <= latency["mean"] <= latency["max"]):
        raise SystemExit(
            f"{path}: recovery latency min/mean/max are not ordered: "
            f"{latency['min']!r}/{latency['mean']!r}/{latency['max']!r}")
    return data


def fleet_digest(data):
    """Canonical one-line-per-fact text form of a fleet export."""
    overhead = data["supervision_overhead"]
    latency = data["recovery_latency_ms"]
    lines = [
        f"schema_version={data['schema_version']} "
        f"smoke={str(data['smoke']).lower()}",
        f"fleet_jobs={data['fleet_jobs']} schedules={data['schedules']} "
        f"kills={data['kills']} poisoned={data['poisoned']} "
        f"quarantines={data['quarantines']} "
        f"recovered_jobs={data['recovered_jobs']}",
        "overhead supervised_ms=%.17g direct_ms=%.17g ratio=%.17g "
        "max_ratio=%.17g"
        % (overhead["supervised_ms"], overhead["direct_ms"],
           overhead["ratio"], overhead["max_ratio"]),
        "recovery count=%d min_ms=%.17g mean_ms=%.17g max_ms=%.17g"
        % (latency["count"], latency["min"], latency["mean"],
           latency["max"]),
    ]
    return "\n".join(lines)


SHARED_SCHEMA_VERSION = 2

# bench/shared_market exports its doubles at %.17g, so re-derivation is
# exact up to one ulp of quotient rounding.
SHARED_RATIO_TOLERANCE = 1e-9


def load_shared(path):
    """Parses and validates a bench/shared_market --out export."""
    with open(path) as f:
        data = json.load(f)
    if data.get("schema_version") != SHARED_SCHEMA_VERSION:
        raise SystemExit(
            f"{path}: unsupported shared schema_version "
            f"{data.get('schema_version')!r} (expected "
            f"{SHARED_SCHEMA_VERSION})")
    if not isinstance(data.get("smoke"), bool):
        raise SystemExit(f"{path}: 'smoke' is not a bool: "
                         f"{data.get('smoke')!r}")
    for key in ("jobs", "min_jobs_for_gate", "tasks", "tasks_completed",
                "total_events"):
        if not isinstance(data.get(key), int) or data[key] < 0:
            raise SystemExit(f"{path}: '{key}' is not a non-negative "
                             f"integer: {data.get(key)!r}")
    if data["jobs"] == 0 or data["tasks"] == 0 or data["total_events"] == 0:
        raise SystemExit(f"{path}: ran no work (jobs={data['jobs']}, "
                         f"tasks={data['tasks']}, total_events="
                         f"{data['total_events']})")
    # The concurrency gate: a full (non-smoke) run must actually host the
    # advertised job count on one shared market.
    if not data["smoke"] and data["jobs"] < data["min_jobs_for_gate"]:
        raise SystemExit(
            f"{path}: only {data['jobs']} concurrent jobs; the gate "
            f"requires >= {data['min_jobs_for_gate']}")
    # The completion gate: every posted task finished inside the run.
    if data["tasks_completed"] != data["tasks"]:
        raise SystemExit(
            f"{path}: completed {data['tasks_completed']} of "
            f"{data['tasks']} tasks")
    for key in ("wall_seconds", "events_per_sec"):
        value = data.get(key)
        if not isinstance(value, (int, float)) or not math.isfinite(value) \
                or value <= 0:
            raise SystemExit(f"{path}: '{key}' is not a positive finite "
                             f"number: {value!r}")
    derived = data["total_events"] / data["wall_seconds"]
    if abs(derived - data["events_per_sec"]) > \
            SHARED_RATIO_TOLERANCE * derived:
        raise SystemExit(
            f"{path}: events_per_sec {data['events_per_sec']!r} does not "
            f"equal total_events/wall_seconds ({derived!r})")
    comp = data.get("competition")
    if not isinstance(comp, dict):
        raise SystemExit(f"{path}: missing 'competition' section")
    for key in ("isolated_rate", "shared_rate", "expected_ratio",
                "observed_ratio", "tolerance"):
        value = comp.get(key)
        if not isinstance(value, (int, float)) or not math.isfinite(value) \
                or value < 0:
            raise SystemExit(f"{path}: competition.{key} is not a "
                             f"non-negative finite number: {value!r}")
    if comp["tolerance"] <= 0:
        raise SystemExit(f"{path}: competition.tolerance is not positive: "
                         f"{comp['tolerance']!r}")
    check_large_gang(path, data.get("large_gang"), data["smoke"])
    if comp["isolated_rate"] <= 0:
        # A smoke run can end before the isolated reference accepts
        # anything; the ratio is then 0/0 and the fairness gate has no
        # denominator to check against.
        print(f"{path}: competition gate SKIPPED: isolated_rate="
              f"{comp['isolated_rate']!r} (no isolated acceptances; "
              "ratio not derivable)", file=sys.stderr)
        return data
    derived = comp["shared_rate"] / comp["isolated_rate"]
    if abs(derived - comp["observed_ratio"]) > \
            SHARED_RATIO_TOLERANCE * max(derived, 1.0):
        raise SystemExit(
            f"{path}: competition.observed_ratio "
            f"{comp['observed_ratio']!r} does not equal "
            f"shared_rate/isolated_rate ({derived!r})")
    # The fairness gate: under symmetric competition each job's acceptance
    # rate must land where the thinning model predicts (about half the
    # isolated rate for two identical saturating jobs).
    if abs(comp["observed_ratio"] - comp["expected_ratio"]) > \
            comp["tolerance"]:
        raise SystemExit(
            f"{path}: competition ratio {comp['observed_ratio']:.6f} "
            f"outside {comp['expected_ratio']:.6f} +/- "
            f"{comp['tolerance']:.6f}")
    return data


# The fields that name the gang a large_gang entry ran: a baseline must
# match them, or the two wall times time different work.
LARGE_GANG_SHAPE = ("jobs", "tasks", "repetitions", "review_interval",
                    "trace_events", "outcome_crc32c")


def check_large_gang(path, gang, smoke, where="large_gang"):
    """Validates a large_gang entry, and its baseline entry if present."""
    if not isinstance(gang, dict):
        raise SystemExit(f"{path}: missing '{where}' section")
    for key in ("jobs", "tasks", "repetitions", "repeats", "trace_events",
                "num_cpus"):
        if not isinstance(gang.get(key), int) or gang[key] <= 0:
            raise SystemExit(f"{path}: {where}.{key} is not a positive "
                             f"integer: {gang.get(key)!r}")
    for key in ("review_interval", "wall_seconds", "ns_per_event"):
        value = gang.get(key)
        if not isinstance(value, (int, float)) or not math.isfinite(value) \
                or value <= 0:
            raise SystemExit(f"{path}: {where}.{key} is not a positive "
                             f"finite number: {value!r}")
    for key in ("outcome_crc32c", "host", "build_type", "commit"):
        if not isinstance(gang.get(key), str) or not gang[key]:
            raise SystemExit(f"{path}: {where}.{key} is not a non-empty "
                             f"string: {gang.get(key)!r}")
    derived = gang["wall_seconds"] * 1e9 / gang["trace_events"]
    if abs(derived - gang["ns_per_event"]) > SHARED_RATIO_TOLERANCE * derived:
        raise SystemExit(
            f"{path}: {where}.ns_per_event {gang['ns_per_event']!r} does not "
            f"equal wall_seconds*1e9/trace_events ({derived!r})")
    # A perf figure counts only from an optimized build.
    if not smoke and gang["build_type"] != "Release":
        raise SystemExit(f"{path}: {where} ran a {gang['build_type']!r} "
                         "build, not Release")
    baseline = gang.get("baseline")
    if baseline is None:
        return
    check_large_gang(path, baseline, smoke, where + ".baseline")
    if "baseline" in baseline:
        raise SystemExit(f"{path}: {where}.baseline has its own baseline")
    for key in LARGE_GANG_SHAPE + ("host", "num_cpus", "build_type"):
        if baseline[key] != gang[key]:
            raise SystemExit(
                f"{path}: {where}.baseline.{key} {baseline[key]!r} differs "
                f"from {gang[key]!r}: not the same gang on the same host")


def shared_digest(data):
    """Canonical one-line-per-fact text form of a shared-market export."""
    comp = data["competition"]
    lines = [
        f"schema_version={data['schema_version']} "
        f"smoke={str(data['smoke']).lower()}",
        f"jobs={data['jobs']} min_jobs_for_gate={data['min_jobs_for_gate']} "
        f"tasks={data['tasks']} tasks_completed={data['tasks_completed']}",
        "throughput total_events=%d wall_seconds=%.17g events_per_sec=%.17g"
        % (data["total_events"], data["wall_seconds"],
           data["events_per_sec"]),
        "competition isolated_rate=%.17g shared_rate=%.17g "
        "expected_ratio=%.17g observed_ratio=%.17g tolerance=%.17g"
        % (comp["isolated_rate"], comp["shared_rate"],
           comp["expected_ratio"], comp["observed_ratio"],
           comp["tolerance"]),
    ]
    gang = data["large_gang"]
    line = ("large_gang jobs=%d tasks=%d trace_events=%d outcome_crc32c=%s "
            "ns_per_event=%.17g"
            % (gang["jobs"], gang["tasks"], gang["trace_events"],
               gang["outcome_crc32c"], gang["ns_per_event"]))
    if "baseline" in gang:
        line += " baseline_ns_per_event=%.17g speedup=%.17g" % (
            gang["baseline"]["ns_per_event"],
            gang["baseline"]["ns_per_event"] / gang["ns_per_event"])
    lines.append(line)
    return "\n".join(lines)


def aggregate_spans(spans):
    """Per-name span aggregates, name-sorted."""
    by_name = {}
    for span in spans:
        agg = by_name.setdefault(span["name"],
                                 {"count": 0, "total_ns": 0, "max_ns": 0})
        agg["count"] += 1
        agg["total_ns"] += span["duration_ns"]
        agg["max_ns"] = max(agg["max_ns"], span["duration_ns"])
    return {name: by_name[name] for name in sorted(by_name)}


def metrics_digest(data):
    """Canonical text form of an export; %.17g matches the C++ writer, so a
    digest comparison proves the numbers survived the JSON round trip."""
    lines = [f"schema_version={data['schema_version']}"]
    for name in sorted(data["counters"]):
        lines.append(f"counter {name}={data['counters'][name]}")
    for name in sorted(data["gauges"]):
        lines.append("gauge %s=%.17g" % (name, data["gauges"][name]))
    for name in sorted(data["histograms"]):
        hist = data["histograms"][name]
        buckets = ",".join(str(b) for b in hist["buckets"])
        lines.append(
            "histogram %s lo=%.17g hi=%.17g count=%d underflow=%d "
            "overflow=%d nan=%d buckets=%s"
            % (name, hist["lo"], hist["hi"], hist["count"],
               hist["underflow"], hist["overflow"], hist["nan_count"],
               buckets))
    lines.append(f"spans={len(data['spans'])} "
                 f"dropped={data['spans_dropped']}")
    return "\n".join(lines)


def fold_metrics(data):
    """The report's "metrics" entry: raw scalars, summarized distributions."""
    return {
        "schema_version": data["schema_version"],
        "counters": dict(sorted(data["counters"].items())),
        "gauges": dict(sorted(data["gauges"].items())),
        "histograms": {
            name: {
                "lo": hist["lo"],
                "hi": hist["hi"],
                "count": hist["count"],
                "underflow": hist["underflow"],
                "overflow": hist["overflow"],
                "nan_count": hist["nan_count"],
            }
            for name, hist in sorted(data["histograms"].items())
        },
        "spans": aggregate_spans(data["spans"]),
        "spans_dropped": data["spans_dropped"],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bin", default="build/bench/microbench",
                        help="path to the microbench binary")
    parser.add_argument("--out", default="BENCH_tuning.json",
                        help="output JSON path")
    parser.add_argument("--min-time", default="0.1",
                        help="--benchmark_min_time per benchmark (seconds)")
    parser.add_argument("--extra-filter", default="",
                        help="extra regex OR-ed onto the benchmark filter")
    parser.add_argument("--baseline-bin", default="",
                        help="a second microbench (e.g. the parent commit's) "
                             "to run with the same filter as the baseline")
    parser.add_argument("--baseline-commit", default="unknown",
                        help="commit the baseline microbench was built from")
    parser.add_argument("--metrics", default="",
                        help="observability metrics JSON (htune_cli "
                             "--metrics=PATH) to fold into the report")
    parser.add_argument("--validate-metrics", default="",
                        help="validate a metrics JSON export, print its "
                             "canonical digest, and exit")
    parser.add_argument("--chaos", default="",
                        help="validate a bench/chaos_soak JSON export "
                             "(convergence + overhead gate), print its "
                             "canonical digest, and exit")
    parser.add_argument("--market", default="",
                        help="validate a bench/market_throughput JSON "
                             "export (shape + ratio consistency + speedup "
                             "gate), print its canonical digest, and exit")
    parser.add_argument("--fleet", default="",
                        help="validate a bench/fleet_soak JSON export "
                             "(supervision-overhead gate + quarantine "
                             "exactness), print its canonical digest, and "
                             "exit")
    parser.add_argument("--shared", default="",
                        help="validate a bench/shared_market JSON export "
                             "(concurrency + completion + competition-ratio "
                             "gates), print its canonical digest, and exit")
    args = parser.parse_args()

    if args.validate_metrics:
        print(metrics_digest(load_metrics(args.validate_metrics)))
        return
    if args.chaos:
        print(chaos_digest(load_chaos(args.chaos)))
        return
    if args.market:
        print(market_digest(load_market(args.market)))
        return
    if args.fleet:
        print(fleet_digest(load_fleet(args.fleet)))
        return
    if args.shared:
        print(shared_digest(load_shared(args.shared)))
        return

    raw = run_benchmarks(args.bin, args.min_time, args.extra_filter)
    report = distill(raw, checkout_commit())
    benchmarks = report["benchmarks"]
    if args.baseline_bin:
        report["baseline"] = distill(
            run_benchmarks(args.baseline_bin, args.min_time,
                           args.extra_filter),
            args.baseline_commit)
    if args.metrics:
        report["metrics"] = fold_metrics(load_metrics(args.metrics))
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out} ({len(benchmarks)} benchmarks)")


if __name__ == "__main__":
    main()
