#!/usr/bin/env python3
"""Diff-mode clang-format check for htune.

Verifies that files conform to the checked-in .clang-format. The default
--changed mode checks only files the current branch touches, so the tree
never needs a big-bang reformat: formatting debt is paid off line-by-line
as files are edited. --fix rewrites the files in place instead of
checking.

Exit codes: 0 clean, 1 violations, 2 environment error. Pure stdlib.
"""

import argparse
import os
import shutil
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run_tidy import git_changed_files  # noqa: E402

CXX_EXTENSIONS = (".h", ".hpp", ".cc", ".cpp")
CHECKED_DIRS = ("src/", "tools/", "tests/", "bench/", "examples/")


def find_clang_format():
    explicit = os.environ.get("CLANG_FORMAT")
    if explicit:
        return explicit if shutil.which(explicit) else None
    for name in ("clang-format", "clang-format-18", "clang-format-17",
                 "clang-format-16", "clang-format-15", "clang-format-14"):
        if shutil.which(name):
            return name
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="check (or fix) formatting against .clang-format")
    parser.add_argument("files", nargs="*",
                        help="explicit files (default: --changed set)")
    parser.add_argument("--changed", action="store_true", default=False,
                        help="check files changed relative to --base "
                             "(implied when no files are given)")
    parser.add_argument("--base", default="origin/main")
    parser.add_argument("--fix", action="store_true",
                        help="reformat in place instead of checking")
    args = parser.parse_args(argv)

    clang_format = find_clang_format()
    if clang_format is None:
        print("check_format: clang-format not found on PATH (set "
              "CLANG_FORMAT to override)", file=sys.stderr)
        return 2

    if args.files:
        files = [os.path.abspath(f) for f in args.files]
    else:
        files = [os.path.join(REPO_ROOT, rel)
                 for rel in git_changed_files(args.base)
                 if rel.endswith(CXX_EXTENSIONS)
                 and rel.startswith(CHECKED_DIRS)
                 # Analyzer fixtures stay byte-exact: tests pin their
                 # line numbers.
                 and not rel.startswith("tests/analyze_fixtures/")]
        files = [f for f in files if os.path.exists(f)]
    if not files:
        print("check_format: no files to check")
        return 0

    if args.fix:
        subprocess.run([clang_format, "-i", "--style=file"] + files,
                       check=False)
        print(f"check_format: reformatted {len(files)} file(s)")
        return 0

    violations = 0
    for path in files:
        result = subprocess.run(
            [clang_format, "--dry-run", "--Werror", "--style=file", path],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        if result.returncode != 0:
            violations += 1
            sys.stderr.write(result.stderr)
    rel = "file(s)"
    print(f"check_format: {len(files)} {rel} checked, "
          f"{violations} need reformatting")
    if violations:
        print("check_format: run tools/check_format.py --fix to fix",
              file=sys.stderr)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
