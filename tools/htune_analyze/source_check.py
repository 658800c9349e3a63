"""Source-text check: the determinism, locking and lifecycle rules.

Every run of the tuning stack is bitwise deterministic, and crash
recovery replays the market engines; these rules keep the constructs
that would break either out of the tree. Each scans the comment- and
string-stripped text declparse already holds (model.sources), line by
line, within its path scope:

  nondeterminism   src/: no std::random_device, rand()/srand(), time(),
                   gettimeofday, clock() or std::chrono::system_clock.
                   Randomness comes from the seeded xoshiro/SplitMix64
                   streams and time from the simulation clock;
                   steady_clock is allowed (it times spans, never data).
  unordered-iter   everywhere: no range-for over an unordered container
                   declared in the same file. Its order is
                   implementation-defined, so a loop that feeds
                   serialized or exported output breaks replay.
  market-obs       both market engines (src/market/ and
                   src/platform/shared_market.{h,cc}): no HTUNE_OBS_*
                   macros. Both engines are re-run during crash
                   recovery, so instrumentation there double-counts;
                   metrics publish from control/market_metrics.h and the
                   platform service instead.
  market-node-map  both market engines: no std::map/std::set (or multi
                   variants, or their #include). The engines run on the
                   flat TaskStore, the on-hold index and block sums; a
                   node container brings per-element allocation back
                   into the event loop.
  raw-mutex        src/ except common/mutex.h: no raw std
                   synchronization types. Only the annotated htune
                   wrappers are visible to -Wthread-safety.
  raw-retry        src/ except src/resilience/: no sleeps and no
                   hand-rolled retry loops. htune::RetryTransient owns the
                   attempt bound, backoff and jitter, charged in
                   simulated seconds.
  fleet-lifecycle  src/ except src/fleet/ and durability/manifest.{h,cc}:
                   no FleetJobState assignment and no raw
                   FleetManifest::AppendState call. FleetSupervisor's
                   transition helpers are the one mutation path that
                   keeps the job table, the manifest and the gauges
                   consistent. Comparisons are fine.

Preprocessor lines are blank in the stripped text; market-node-map reads
the file's #include targets instead.

Suppressions are `[[source.allow]]` entries in analyze.toml naming the
file, the rule and the reason; an entry silences that rule in that file.
An entry that names an unknown rule, gives no reason or silences nothing
is itself reported as `stale-suppression`, which cannot be suppressed.
"""

from __future__ import annotations

import re
from typing import Iterator, List, Tuple

from model import Finding, Model, SourceFile

RULES = ("nondeterminism", "unordered-iter", "market-obs",
         "market-node-map", "raw-mutex", "raw-retry", "fleet-lifecycle")

NONDETERMINISM_PATTERNS = [
    (re.compile(r"std::random_device"), "std::random_device"),
    (re.compile(r"\brand\s*\("), "rand()"),
    (re.compile(r"\bsrand\s*\("), "srand()"),
    (re.compile(r"\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\)"), "time()"),
    (re.compile(r"\bgettimeofday\b"), "gettimeofday"),
    (re.compile(r"\bclock\s*\(\s*\)"), "clock()"),
    (re.compile(r"std::chrono::system_clock"), "std::chrono::system_clock"),
]
UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<[^;{}]*?>\s+(\w+)")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(([^;()]*?):([^;]*?)\)")
RAW_SYNC_RE = re.compile(
    r"std::(?:mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"recursive_timed_mutex|shared_timed_mutex|condition_variable|"
    r"condition_variable_any|lock_guard|unique_lock|shared_lock|"
    r"scoped_lock)\b")
OBS_MACRO_RE = re.compile(r"\bHTUNE_OBS_\w+")
NODE_MAP_RE = re.compile(r"\bstd::(?:map|set|multimap|multiset)\s*<")
NODE_MAP_INCLUDES = ("<map>", "<set>")
SLEEP_RE = re.compile(
    r"\b(?:sleep_for|sleep_until|usleep|nanosleep|sleep)\s*\(")
RETRY_LOOP_RE = re.compile(
    r"\b(?:while|for)\s*\([^)]*\b(?:retry|retries|attempt|attempts|"
    r"backoff)\b")
# An `=` directly followed by a FleetJobState value, excluding `==`/`!=`
# (and `<=`/`>=`) comparisons: only assignments mutate lifecycle state.
FLEET_STATE_ASSIGN_RE = re.compile(r"(?<![=!<>])=\s*FleetJobState::")
APPEND_STATE_RE = re.compile(r"\bAppendState\s*\(")

MARKET_ENGINE_FILES = ("src/platform/shared_market.h",
                       "src/platform/shared_market.cc")
MANIFEST_CODEC_FILES = ("src/durability/manifest.h",
                        "src/durability/manifest.cc")

NODE_MAP_MESSAGE = (
    "node-based ordered containers allocate per element and chase "
    "pointers in the event engine; use TaskStore, the on-hold index, a "
    "sorted vector, or unordered_map for untrusted-id bookkeeping")

Hit = Tuple[int, str, str]  # (line, rule, message)


def rules_for(path: str) -> List[str]:
    """The rules whose path scope covers `path` (root-relative)."""
    rules = ["unordered-iter"]
    if path.startswith("src/market/") or path in MARKET_ENGINE_FILES:
        rules += ["market-obs", "market-node-map"]
    if not path.startswith("src/"):
        return rules
    rules.append("nondeterminism")
    if path != "src/common/mutex.h":
        rules.append("raw-mutex")
    if not path.startswith("src/resilience/"):
        rules.append("raw-retry")
    if not path.startswith("src/fleet/") and path not in MANIFEST_CODEC_FILES:
        rules.append("fleet-lifecycle")
    return rules


def _line_hits(rules: List[str], number: int, line: str) -> Iterator[Hit]:
    if "nondeterminism" in rules:
        for pattern, what in NONDETERMINISM_PATTERNS:
            if pattern.search(line):
                yield (number, "nondeterminism",
                       f"{what} is nondeterministic across runs; use the "
                       "seeded rng/ streams or simulated time")
    if "raw-mutex" in rules and RAW_SYNC_RE.search(line):
        yield (number, "raw-mutex",
               "raw std synchronization is invisible to -Wthread-safety; "
               "use htune::Mutex/SharedMutex/MutexLock (common/mutex.h)")
    if "raw-retry" in rules:
        if SLEEP_RE.search(line):
            yield (number, "raw-retry",
                   "real sleeps block the simulated clock; charge backoff "
                   "in simulated seconds via htune::RetryTransient "
                   "(resilience/policy.h)")
        elif RETRY_LOOP_RE.search(line):
            yield (number, "raw-retry",
                   "hand-rolled retry loop skips the bounded-attempt/"
                   "backoff/jitter contract; wrap the operation in "
                   "htune::RetryTransient (resilience/policy.h)")
    if "fleet-lifecycle" in rules:
        if APPEND_STATE_RE.search(line):
            yield (number, "fleet-lifecycle",
                   "raw FleetManifest::AppendState bypasses "
                   "FleetSupervisor's transition helpers (the single "
                   "durable lifecycle mutation path); route the state "
                   "change through the supervisor")
        elif FLEET_STATE_ASSIGN_RE.search(line):
            yield (number, "fleet-lifecycle",
                   "direct FleetJobState assignment bypasses "
                   "FleetSupervisor's transition helpers; lifecycle state "
                   "must change through the supervisor so the manifest "
                   "and gauges stay consistent")
    if "market-obs" in rules and OBS_MACRO_RE.search(line):
        yield (number, "market-obs",
               "observability macros in a market engine double-count "
               "under crash-recovery replay; publish via "
               "control/market_metrics.h")
    if "market-node-map" in rules and NODE_MAP_RE.search(line):
        yield number, "market-node-map", NODE_MAP_MESSAGE


def _unordered_iteration(lines: List[str]) -> Iterator[Hit]:
    names = {m.group(1) for line in lines
             for m in UNORDERED_DECL_RE.finditer(line)}
    names -= {"map", "set"}  # type aliases, not variables
    if not names:
        return
    for number, line in enumerate(lines, start=1):
        for m in RANGE_FOR_RE.finditer(line):
            leaf = re.split(r"[.>]", m.group(2).strip())[-1].strip(" &*()")
            if leaf in names:
                yield (number, "unordered-iter",
                       f"iterating '{leaf}' (unordered container) has "
                       "implementation-defined order; sort first, or allow "
                       "it in analyze.toml if order cannot reach serialized "
                       "or exported output")


def scan(path: str, source: SourceFile) -> List[Hit]:
    """Every rule violation in one file, before suppressions."""
    rules = rules_for(path)
    lines = source.stripped.split("\n")
    hits = [hit for number, line in enumerate(lines, start=1)
            for hit in _line_hits(rules, number, line)]
    if "market-node-map" in rules:
        hits += [(number, "market-node-map", NODE_MAP_MESSAGE)
                 for number, target in source.includes
                 if target in NODE_MAP_INCLUDES]
    hits += _unordered_iteration(lines)
    return hits


def run(model: Model, config: dict) -> List[Finding]:
    allows = config.get("source", {}).get("allow", [])
    used = [False] * len(allows)
    findings = []
    for path in sorted(model.sources):
        for line, rule, message in scan(path, model.sources[path]):
            matching = [k for k, entry in enumerate(allows)
                        if entry.get("file") == path
                        and entry.get("rule") == rule]
            for k in matching:
                used[k] = True
            if not matching:
                findings.append(
                    Finding("source", path, line, f"{rule}: {message}"))
    for entry, was_used in zip(allows, used):
        where = (f"[[source.allow]] {entry.get('rule', '?')} in "
                 f"{entry.get('file', '?')}")
        if entry.get("rule") not in RULES:
            problem = "names an unknown rule"
        elif not entry.get("reason", "").strip():
            problem = "gives no reason"
        elif not was_used:
            problem = "no longer suppresses any finding; remove it"
        else:
            continue
        findings.append(Finding("source", "analyze.toml", 0,
                                f"stale-suppression: {where} {problem}"))
    return findings
