#!/usr/bin/env python3
"""htune_analyze CLI — run the whole-tree invariant checks.

Usage:
  python3 tools/htune_analyze/analyze.py [--root DIR] [--checks a,b,c]
      [--config FILE] [--lock-order FILE]
      [--compile-db build/compile_commands.json] [--cache-dir DIR]

Checks: snapshot, lock, schema, source (default: all four). Exit status
is 0 when the tree is clean, 1 when there are findings, 2 on usage
errors.

The declaration model always comes from the tolerant in-repo parser
over src/ and tools/ (or the whole --root for fixture trees); when
--compile-db points at a compile_commands.json and clang is installed,
per-TU AST dumps refine it (see astdump.py). Config files default to
<root>/analyze.toml and <root>/lock_order.toml, falling back to the
checked-in ones under tools/htune_analyze/.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tomllib

import astdump
import declparse
import lock_check
import schema_check
import snapshot_check
import source_check
from model import Model

CHECKS = ("snapshot", "lock", "schema", "source")
CPP_EXTENSIONS = (".h", ".cc")
SKIP_DIR_NAMES = {".git", "__pycache__", "analyze_fixtures",
                  "third_party", "htune_analyze"}


def collect_sources(root: str) -> list:
    scan = [d for d in (os.path.join(root, "src"),
                        os.path.join(root, "tools"))
            if os.path.isdir(d)]
    if not scan:
        scan = [root]
    files = []
    for top in scan:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(
                d for d in dirnames
                if d not in SKIP_DIR_NAMES and not d.startswith("build"))
            for name in sorted(filenames):
                if name.endswith(CPP_EXTENSIONS):
                    files.append(os.path.join(dirpath, name))
    return files


def load_toml(explicit, root, basename):
    candidates = [explicit] if explicit else [
        os.path.join(root, basename),
        os.path.join(root, "tools", "htune_analyze", basename)]
    for path in candidates:
        if path and os.path.isfile(path):
            with open(path, "rb") as handle:
                return tomllib.load(handle)
    if explicit:
        raise FileNotFoundError(explicit)
    return {}


def build_model(root: str, compile_db, cache_dir, verbose: bool) -> Model:
    model = Model()
    for path in collect_sources(root):
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        model.merge(declparse.parse_file(path, rel))
    if compile_db and os.path.isfile(compile_db):
        stats = astdump.refine(model, root, compile_db, cache_dir)
        if verbose:
            print(f"[htune-analyze] ast refine: {stats['tus']} TUs, "
                  f"{stats['cached']} cached, {stats['dumped']} dumped, "
                  f"{stats['failed']} fell back", file=sys.stderr)
    return model


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="htune-analyze", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=".")
    parser.add_argument("--checks", default=",".join(CHECKS))
    parser.add_argument("--config", default=None)
    parser.add_argument("--lock-order", default=None)
    parser.add_argument("--compile-db", default=None)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    root = os.path.abspath(args.root)
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    unknown = [c for c in checks if c not in CHECKS]
    if unknown:
        print(f"unknown check(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    try:
        config = load_toml(args.config, root, "analyze.toml")
        lock_order = load_toml(args.lock_order, root, "lock_order.toml")
    except FileNotFoundError as error:
        print(f"config not found: {error}", file=sys.stderr)
        return 2
    cache_dir = args.cache_dir or os.path.join(root, ".htune-ast-cache")

    model = build_model(root, args.compile_db, cache_dir, args.verbose)
    findings = []
    if "snapshot" in checks:
        findings.extend(snapshot_check.run(model, config))
    if "lock" in checks:
        findings.extend(lock_check.run(model, lock_order))
    if "schema" in checks:
        findings.extend(schema_check.run(model, config, root))
    if "source" in checks:
        findings.extend(source_check.run(model, config))

    findings.sort(key=lambda f: (f.file, f.line, f.check, f.message))
    for finding in findings:
        print(finding)
    summary = (f"[htune-analyze] checks: {','.join(checks)} — "
               f"{len(findings)} finding(s)")
    print(summary, file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
