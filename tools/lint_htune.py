#!/usr/bin/env python3
"""htune invariant linter: repo-specific rules the generic tools can't check.

The tuning stack's evaluation is only reproducible because every run is
bitwise-deterministic; clang-tidy and -Wthread-safety enforce generic
hygiene, but the invariants below are htune-specific, so they get a
dedicated (pure-stdlib) linter. Rules:

  nondeterminism   No wall-clock/random seeds in src/: std::random_device,
                   rand()/srand(), time()/gettimeofday/clock(),
                   std::chrono::system_clock. Simulated time and the
                   seeded xoshiro/SplitMix64 streams are the only sources
                   of "randomness"; steady_clock is allowed (timing
                   spans, never data).
  unordered-iter   No iteration over an unordered container declared in
                   the same file: iteration order is
                   implementation-defined, so a loop feeding serialized
                   or exported output silently breaks the bitwise
                   replay/export contract. Order-independent loops
                   (pure counting/clearing) carry a suppression with a
                   justification.
  market-obs       No observability macros (HTUNE_OBS_*) in either
                   market engine (src/market/ and
                   src/platform/shared_market.{h,cc}): both engines are
                   restored and re-run during crash recovery, and
                   instrumentation in the replayed region would observe
                   double counts (metrics publish from
                   control/market_metrics.h and the platform service
                   instead).
  market-node-map  No node-based ordered containers (std::map, std::set,
                   their multi variants, or their includes) in either
                   market engine: the simulator's hot loop was rewritten
                   onto the flat TaskStore / calendar queue precisely to
                   kill per-node allocation and pointer chasing, the
                   serving engine's gang loop runs on the same store and
                   a Fenwick tree, and a node map reintroduced anywhere
                   in an engine tends to creep back into a per-event
                   path. Use TaskStore, the on-hold index, sorted
                   vectors, or (for untrusted-id bookkeeping)
                   unordered_map.
  raw-mutex        No raw std synchronization types outside
                   src/common/mutex.h: only the annotated htune wrappers
                   carry Clang capability attributes, so a raw
                   std::mutex is invisible to -Wthread-safety.
  raw-retry        No hand-rolled retry loops or sleeps in src/ outside
                   src/resilience/: ad-hoc `for (attempt...)` loops skip
                   the bounded-attempt/backoff/jitter contract (and its
                   resilience.* counters), and any real sleep blocks the
                   simulated clock. Wrap the operation in
                   htune::RetryTransient (resilience/policy.h) instead;
                   backoff is charged in simulated seconds.
  fleet-lifecycle  No direct fleet-lifecycle mutations in src/ outside
                   src/fleet/ and the manifest codec itself
                   (src/durability/manifest.{h,cc}): a FleetJobState
                   assignment or a raw FleetManifest::AppendState call
                   anywhere else bypasses FleetSupervisor's transition
                   helpers — the single durable mutation path that keeps
                   the in-memory job table, the manifest, and the
                   fleet.jobs_* gauges consistent. Comparisons against
                   FleetJobState values are fine.

Suppressions: append `// htune-lint: allow(<rule>) <reason>` on the
offending line or the line above it. A file-level
`// htune-lint: allow-file(<rule>) <reason>` anywhere in the file
disables the rule for the whole file.

Usage: lint_htune.py [paths...]   (default: src/ and tools/ of the repo)
Exit codes: 0 clean, 1 findings, 2 usage/environment error.
"""

import argparse
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CXX_EXTENSIONS = (".h", ".cc", ".cpp", ".hpp")

ALLOW_RE = re.compile(r"htune-lint:\s*allow\(([\w-]+)\)")
ALLOW_FILE_RE = re.compile(r"htune-lint:\s*allow-file\(([\w-]+)\)")

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
    r"\bunordered_(?:map|set|multimap|multiset)\s*<[^;{}]*?>\s+(\w+)"
)
RANGE_FOR_RE = re.compile(r"\bfor\s*\(([^;()]*?):([^;]*?)\)")

RAW_SYNC_RE = re.compile(
    r"std::(?:mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"recursive_timed_mutex|shared_timed_mutex|condition_variable|"
    r"condition_variable_any|lock_guard|unique_lock|shared_lock|"
    r"scoped_lock)\b"
)

OBS_MACRO_RE = re.compile(r"\bHTUNE_OBS_\w+")

NODE_MAP_RE = re.compile(
    r"\bstd::(?:map|set|multimap|multiset)\s*<|#\s*include\s*<(?:map|set)>"
)

SLEEP_RE = re.compile(
    r"\b(?:sleep_for|sleep_until|usleep|nanosleep|sleep)\s*\("
)
RETRY_LOOP_RE = re.compile(
    r"\b(?:while|for)\s*\([^)]*\b(?:retry|retries|attempt|attempts|"
    r"backoff)\b"
)

# An `=` directly followed by a FleetJobState value, excluding `==`/`!=`
# (and `<=`/`>=`) comparisons: only assignments mutate lifecycle state.
FLEET_STATE_ASSIGN_RE = re.compile(r"(?<![=!<>])=\s*FleetJobState::")
APPEND_STATE_RE = re.compile(r"\bAppendState\s*\(")

# The serving engine outside src/market/ that the market-* rules also cover.
MARKET_ENGINE_FILES = ("src/platform/shared_market.h",
                       "src/platform/shared_market.cc")

RULES = {
    "nondeterminism": "no wall-clock/ambient-random sources in src/",
    "unordered-iter": "no iteration over unordered containers "
                      "(implementation-defined order)",
    "market-obs": "no HTUNE_OBS_* macros in the market engines "
                  "(replay double-count hazard)",
    "market-node-map": "no node-based std::map/std::set in the market "
                       "engines (per-node allocation in the event loop; "
                       "use TaskStore/flat arrays)",
    "raw-mutex": "no raw std synchronization outside common/mutex.h "
                 "(invisible to -Wthread-safety)",
    "raw-retry": "no hand-rolled retry loops or sleeps outside "
                 "src/resilience/ (use htune::RetryTransient)",
    "fleet-lifecycle": "no FleetJobState assignments or raw AppendState "
                       "calls outside src/fleet/ and the manifest codec "
                       "(go through FleetSupervisor's transition helpers)",
    "stale-suppression": "every allow()/allow-file() must name a known "
                         "rule and suppress at least one finding; stale "
                         "entries would silently hide future violations "
                         "(not itself suppressible)",
}


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_code(lines):
    """Returns lines with comments and string/char literals blanked out
    (same length is not preserved; only match/no-match matters). Keeps a
    crude state machine for /* */ blocks; raw strings are rare in this
    repo and treated as plain strings."""
    stripped = []
    in_block = False
    for line in lines:
        out = []
        i = 0
        in_str = None  # quote char when inside a literal
        while i < len(line):
            ch = line[i]
            nxt = line[i + 1] if i + 1 < len(line) else ""
            if in_block:
                if ch == "*" and nxt == "/":
                    in_block = False
                    i += 2
                    continue
                i += 1
                continue
            if in_str:
                if ch == "\\":
                    i += 2
                    continue
                if ch == in_str:
                    in_str = None
                i += 1
                continue
            if ch == "/" and nxt == "/":
                break  # rest of line is a comment
            if ch == "/" and nxt == "*":
                in_block = True
                i += 2
                continue
            if ch in "\"'":
                in_str = ch
                out.append(ch)
                i += 1
                continue
            out.append(ch)
            i += 1
        stripped.append("".join(out))
    return stripped


def _collect_suppressions(lines):
    """All suppression annotations in a file: ({(line_idx, rule), ...}
    for `allow`, {rule: line_idx} for `allow-file`)."""
    line_allows = set()
    file_allows = {}
    for idx, line in enumerate(lines):
        for m in ALLOW_RE.finditer(line):
            line_allows.add((idx, m.group(1)))
        for m in ALLOW_FILE_RE.finditer(line):
            file_allows.setdefault(m.group(1), idx)
    return line_allows, file_allows


def lint_text(text, virtual_path):
    """Lints one file's content under the rules that apply to
    `virtual_path` (a path relative to the repo root, '/'-separated).
    Returns a list of Findings."""
    path = virtual_path.replace(os.sep, "/")
    if not path.endswith(CXX_EXTENSIONS):
        return []
    in_src = path.startswith("src/")
    lines = text.splitlines()
    code = strip_code(lines)
    line_allows, file_allows = _collect_suppressions(lines)
    used_line = set()
    used_file = set()

    findings = []

    def add(idx, rule, message):
        if rule in file_allows:
            used_file.add(rule)
            return
        for probe in (idx, idx - 1):
            if (probe, rule) in line_allows:
                used_line.add((probe, rule))
                return
        findings.append(Finding(path, idx + 1, rule, message))

    if in_src:
        for idx, line in enumerate(code):
            for pattern, what in NONDETERMINISM_PATTERNS:
                if pattern.search(line):
                    add(idx, "nondeterminism",
                        f"{what} is nondeterministic across runs; use the "
                        "seeded rng/ streams or simulated time")

    if in_src and path != "src/common/mutex.h":
        for idx, line in enumerate(code):
            if RAW_SYNC_RE.search(line):
                add(idx, "raw-mutex",
                    "raw std synchronization is invisible to "
                    "-Wthread-safety; use htune::Mutex/SharedMutex/"
                    "MutexLock (common/mutex.h)")

    if in_src and not path.startswith("src/resilience/"):
        for idx, line in enumerate(code):
            if SLEEP_RE.search(line):
                add(idx, "raw-retry",
                    "real sleeps block the simulated clock; charge "
                    "backoff in simulated seconds via "
                    "htune::RetryTransient (resilience/policy.h)")
            elif RETRY_LOOP_RE.search(line):
                add(idx, "raw-retry",
                    "hand-rolled retry loop skips the bounded-attempt/"
                    "backoff/jitter contract; wrap the operation in "
                    "htune::RetryTransient (resilience/policy.h)")

    if in_src and not path.startswith("src/fleet/") and path not in (
            "src/durability/manifest.h", "src/durability/manifest.cc"):
        for idx, line in enumerate(code):
            if APPEND_STATE_RE.search(line):
                add(idx, "fleet-lifecycle",
                    "raw FleetManifest::AppendState bypasses "
                    "FleetSupervisor's transition helpers (the single "
                    "durable lifecycle mutation path); route the state "
                    "change through the supervisor")
            elif FLEET_STATE_ASSIGN_RE.search(line):
                add(idx, "fleet-lifecycle",
                    "direct FleetJobState assignment bypasses "
                    "FleetSupervisor's transition helpers; lifecycle "
                    "state must change through the supervisor so the "
                    "manifest and gauges stay consistent")

    if path.startswith("src/market/") or path in MARKET_ENGINE_FILES:
        for idx, line in enumerate(code):
            if OBS_MACRO_RE.search(line):
                add(idx, "market-obs",
                    "observability macros in a market engine double-count "
                    "under crash-recovery replay; publish via "
                    "control/market_metrics.h")
            if NODE_MAP_RE.search(line):
                add(idx, "market-node-map",
                    "node-based ordered containers allocate per element "
                    "and chase pointers in the event engine; use "
                    "TaskStore, the on-hold index, a sorted vector, or "
                    "unordered_map for untrusted-id bookkeeping")

    unordered_names = set()
    for line in code:
        for m in UNORDERED_DECL_RE.finditer(line):
            name = m.group(1)
            if name not in ("map", "set"):  # type aliases, not variables
                unordered_names.add(name)
    if unordered_names:
        for idx, line in enumerate(code):
            for m in RANGE_FOR_RE.finditer(line):
                target = m.group(2).strip()
                leaf = re.split(r"[.>]", target)[-1].strip(" &*()")
                if leaf in unordered_names:
                    add(idx, "unordered-iter",
                        f"iterating '{leaf}' (unordered container) has "
                        "implementation-defined order; sort first or "
                        "suppress with a justification if order cannot "
                        "reach serialized/exported output")

    # Suppression hygiene: an annotation that names an unknown rule, or
    # that no finding above consumed, is stale — it would silently hide
    # the next real violation at that site. Not itself suppressible.
    for idx, rule in sorted(line_allows):
        if rule not in RULES or rule == "stale-suppression":
            findings.append(Finding(
                path, idx + 1, "stale-suppression",
                f"allow({rule}) names an unknown rule; see --list-rules"))
        elif (idx, rule) not in used_line:
            findings.append(Finding(
                path, idx + 1, "stale-suppression",
                f"allow({rule}) no longer suppresses any finding; remove "
                f"the stale annotation"))
    for rule, idx in sorted(file_allows.items(), key=lambda kv: kv[1]):
        if rule not in RULES or rule == "stale-suppression":
            findings.append(Finding(
                path, idx + 1, "stale-suppression",
                f"allow-file({rule}) names an unknown rule; see "
                f"--list-rules"))
        elif rule not in used_file:
            findings.append(Finding(
                path, idx + 1, "stale-suppression",
                f"allow-file({rule}) no longer suppresses any finding; "
                f"remove the stale annotation"))

    return findings


def iter_files(paths):
    for path in paths:
        if os.path.isfile(path):
            yield path
        elif os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames.sort()
                for name in sorted(filenames):
                    if name.endswith(CXX_EXTENSIONS):
                        yield os.path.join(dirpath, name)
        else:
            raise FileNotFoundError(path)


def lint_paths(paths, root=REPO_ROOT):
    findings = []
    for filepath in iter_files(paths):
        rel = os.path.relpath(os.path.abspath(filepath), root)
        with open(filepath, encoding="utf-8", errors="replace") as f:
            text = f.read()
        findings.extend(lint_text(text, rel))
    return findings


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="htune-specific determinism/locking invariant linter")
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint "
                             "(default: src/ and tools/)")
    parser.add_argument("--root", default=REPO_ROOT,
                        help="repo root for rule scoping (default: the "
                             "checkout containing this script)")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, description in sorted(RULES.items()):
            print(f"{rule}: {description}")
        return 0

    paths = args.paths or [os.path.join(args.root, "src"),
                           os.path.join(args.root, "tools")]
    try:
        findings = lint_paths(paths, root=args.root)
    except FileNotFoundError as err:
        print(f"lint_htune: no such path: {err}", file=sys.stderr)
        return 2
    for finding in findings:
        print(finding)
    if findings:
        print(f"lint_htune: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
