#!/usr/bin/env python3
"""Unit tests for tools/lint_htune.py, driven from ctest.

Each rule is exercised three ways from fixture files in
tests/lint_fixtures/: a positive hit, the same hit suppressed, and a
clean file using the approved alternative. Fixtures are linted under a
*virtual* path (e.g. src/market/foo.cc) so the path-scoped rules apply
regardless of where the checkout lives.
"""

import os
import sys
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))

import lint_htune  # noqa: E402

FIXTURES = os.path.join(REPO_ROOT, "tests", "lint_fixtures")


def lint_fixture(name, virtual_path):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as f:
        return lint_htune.lint_text(f.read(), virtual_path)


class RuleFixtureTest(unittest.TestCase):
    # (fixture stem, virtual path, rule, findings expected in positive)
    CASES = [
        ("nondeterminism", "src/model/fixture.cc", "nondeterminism", 5),
        ("unordered_iter", "src/obs/fixture.cc", "unordered-iter", 1),
        ("market_obs", "src/market/fixture.cc", "market-obs", 1),
        ("market_obs", "src/platform/shared_market.cc", "market-obs", 1),
        ("market_node_map", "src/market/fixture.cc", "market-node-map", 3),
        ("market_node_map", "src/platform/shared_market.h",
         "market-node-map", 3),
        ("raw_mutex", "src/tuning/fixture.cc", "raw-mutex", 2),
        ("raw_retry", "src/control/fixture.cc", "raw-retry", 3),
        ("fleet_lifecycle", "src/control/fixture.cc", "fleet-lifecycle", 2),
    ]

    def test_positive_fixtures_fire(self):
        for stem, vpath, rule, expected in self.CASES:
            with self.subTest(rule=rule, path=vpath):
                findings = lint_fixture(f"{stem}_positive.cc", vpath)
                self.assertEqual(len(findings), expected,
                                 [str(f) for f in findings])
                self.assertTrue(all(f.rule == rule for f in findings))

    def test_suppressed_fixtures_are_silent(self):
        for stem, vpath, rule, _ in self.CASES:
            with self.subTest(rule=rule, path=vpath):
                findings = lint_fixture(f"{stem}_suppressed.cc", vpath)
                self.assertEqual([str(f) for f in findings], [])

    def test_clean_fixtures_are_silent(self):
        for stem, vpath, rule, _ in self.CASES:
            with self.subTest(rule=rule, path=vpath):
                findings = lint_fixture(f"{stem}_clean.cc", vpath)
                self.assertEqual([str(f) for f in findings], [])


class RuleScopingTest(unittest.TestCase):
    def test_rules_scoped_to_src(self):
        text = "std::mutex mu;\nint x = rand();\n"
        self.assertEqual(lint_htune.lint_text(text, "tests/foo.cc"), [])
        self.assertEqual(len(lint_htune.lint_text(text, "src/foo.cc")), 2)

    def test_market_rule_scoped_to_market(self):
        text = 'void F() { HTUNE_OBS_COUNTER_ADD("x", 1); }\n'
        self.assertEqual(lint_htune.lint_text(text, "src/control/foo.cc"), [])
        self.assertEqual(
            len(lint_htune.lint_text(text, "src/market/foo.cc")), 1)

    def test_node_map_rule_scoped_to_market(self):
        text = "std::map<int, int> by_id;\n"
        self.assertEqual(lint_htune.lint_text(text, "src/control/foo.cc"), [])
        self.assertEqual(
            lint_htune.lint_text(text, "src/platform/service.cc"), [])
        findings = lint_htune.lint_text(text, "src/market/foo.cc")
        self.assertEqual([f.rule for f in findings], ["market-node-map"])

    def test_mutex_header_exempt_from_raw_mutex(self):
        text = "std::mutex mu_;\n"
        self.assertEqual(lint_htune.lint_text(text, "src/common/mutex.h"), [])

    def test_resilience_exempt_from_raw_retry(self):
        text = "for (int attempt = 1; attempt <= max; ++attempt) {\n"
        self.assertEqual(
            lint_htune.lint_text(text, "src/resilience/policy.h"), [])
        self.assertEqual(
            len(lint_htune.lint_text(text, "src/durability/journal.cc")), 1)

    def test_fleet_lifecycle_scoped(self):
        text = "entry.state = FleetJobState::kDone;\n"
        self.assertEqual(
            lint_htune.lint_text(text, "src/fleet/supervisor.cc"), [])
        self.assertEqual(
            lint_htune.lint_text(text, "src/durability/manifest.cc"), [])
        findings = lint_htune.lint_text(text, "src/control/foo.cc")
        self.assertEqual([f.rule for f in findings], ["fleet-lifecycle"])
        comparison = "if (entry.state == FleetJobState::kDone) return;\n"
        self.assertEqual(
            lint_htune.lint_text(comparison, "src/control/foo.cc"), [])

    def test_non_cxx_files_skipped(self):
        self.assertEqual(
            lint_htune.lint_text("std::mutex mu;", "src/notes.md"), [])


class SuppressionMechanicsTest(unittest.TestCase):
    def test_same_line_suppression(self):
        text = ("std::mutex mu;  "
                "// htune-lint: allow(raw-mutex) fixture reason\n")
        self.assertEqual(lint_htune.lint_text(text, "src/foo.cc"), [])

    def test_wrong_rule_suppression_does_not_silence(self):
        text = ("// htune-lint: allow(nondeterminism) wrong rule\n"
                "std::mutex mu;\n")
        findings = lint_htune.lint_text(text, "src/foo.cc")
        # The raw-mutex hit still fires, and the misdirected allow is
        # itself reported as stale.
        self.assertEqual(sorted(f.rule for f in findings),
                         ["raw-mutex", "stale-suppression"])

    def test_file_level_suppression(self):
        text = ("// htune-lint: allow-file(raw-mutex) whole-file interop\n"
                "std::mutex a;\nstd::mutex b;\n")
        self.assertEqual(lint_htune.lint_text(text, "src/foo.cc"), [])


class StaleSuppressionTest(unittest.TestCase):
    def test_unused_allow_is_stale(self):
        text = "int x;  // htune-lint: allow(raw-mutex) nothing here\n"
        findings = lint_htune.lint_text(text, "src/foo.cc")
        self.assertEqual([f.rule for f in findings], ["stale-suppression"])
        self.assertEqual(findings[0].line, 1)
        self.assertIn("no longer suppresses", findings[0].message)

    def test_unknown_rule_allow_is_stale(self):
        text = "int x;  // htune-lint: allow(no-such-rule) typo\n"
        findings = lint_htune.lint_text(text, "src/foo.cc")
        self.assertEqual([f.rule for f in findings], ["stale-suppression"])
        self.assertIn("unknown rule", findings[0].message)

    def test_unused_allow_file_is_stale(self):
        text = "// htune-lint: allow-file(nondeterminism) nothing left\n"
        findings = lint_htune.lint_text(text, "src/foo.cc")
        self.assertEqual([f.rule for f in findings], ["stale-suppression"])
        self.assertIn("allow-file(nondeterminism)", findings[0].message)

    def test_unknown_rule_allow_file_is_stale(self):
        text = "// htune-lint: allow-file(bogus) typo\n"
        findings = lint_htune.lint_text(text, "src/foo.cc")
        self.assertEqual([f.rule for f in findings], ["stale-suppression"])
        self.assertIn("unknown rule", findings[0].message)

    def test_used_suppressions_are_not_stale(self):
        text = ("// htune-lint: allow(raw-mutex) interop fixture\n"
                "std::mutex mu;\n"
                "// htune-lint: allow-file(nondeterminism) sim clock shim\n"
                "long t = time(0);\n")
        self.assertEqual(lint_htune.lint_text(text, "src/foo.cc"), [])

    def test_stale_suppression_is_not_itself_suppressible(self):
        text = ("// htune-lint: allow-file(stale-suppression) nice try\n"
                "int x;  // htune-lint: allow(raw-mutex) unused\n")
        findings = lint_htune.lint_text(text, "src/foo.cc")
        self.assertEqual(sorted(f.rule for f in findings),
                         ["stale-suppression", "stale-suppression"])


class LexerTest(unittest.TestCase):
    def test_comments_and_strings_ignored(self):
        text = ('// std::mutex in a line comment\n'
                '/* std::random_device in a block\n'
                '   comment spanning lines */\n'
                'const char* s = "std::mutex rand() time()";\n')
        self.assertEqual(lint_htune.lint_text(text, "src/foo.cc"), [])

    def test_identifier_suffix_not_matched(self):
        text = "double some_time() { return uptime(); }\n"
        self.assertEqual(lint_htune.lint_text(text, "src/foo.cc"), [])


class TreeIsCleanTest(unittest.TestCase):
    def test_src_and_tools_lint_clean(self):
        findings = lint_htune.lint_paths(
            [os.path.join(REPO_ROOT, "src"), os.path.join(REPO_ROOT, "tools")],
            root=REPO_ROOT)
        self.assertEqual([str(f) for f in findings], [])


if __name__ == "__main__":
    unittest.main()
