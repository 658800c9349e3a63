#!/usr/bin/env python3
"""Unit tests for tools/htune_analyze/, driven from ctest.

Five layers:
  * fixture triplets per check under tests/analyze_fixtures/
    (violating / suppressed / clean), run through the real CLI;
  * mutation tests against today's tree: delete a member reference from
    MarketSimulator's snapshot codec, append an unhandled TraceEventKind
    enumerator, reverse a real lock pair — each must fail its check —
    and inject each source rule's violation into a copy of a real file
    at its real path, where it must fire, and at an exempt path, where
    it must not;
  * the source rules' scoping, suppression and stripping on snippets;
  * the AST-dump cache contract: same inputs -> no re-dump, an edited
    header -> exactly the including TU re-dumps;
  * clang AST-JSON extraction on a hand-written mini dump.

The whole-tree clean gate is a separate ctest (htune_analyze_tree).
"""

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "tools", "htune_analyze"))

import analyze  # noqa: E402
import astdump  # noqa: E402
import declparse  # noqa: E402
import lock_check  # noqa: E402
import schema_check  # noqa: E402
import snapshot_check  # noqa: E402
import source_check  # noqa: E402
from model import FunctionDef, Model  # noqa: E402

FIXTURES = os.path.join(REPO_ROOT, "tests", "analyze_fixtures")


def run_cli_at(root, checks):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(
            io.StringIO()):
        rc = analyze.main(["--root", root, "--checks", checks])
    return rc, out.getvalue()


def run_cli(fixture, checks):
    return run_cli_at(os.path.join(FIXTURES, fixture), checks)


def source_findings(out):
    """(file, line, rule) per finding line of a source-check run."""
    findings = []
    for line in out.splitlines():
        location, _, rest = line.partition(": [source] ")
        path, _, number = location.rpartition(":")
        findings.append((path, int(number), rest.split(":", 1)[0]))
    return findings


def scan_text(text, path, allows=()):
    """The source check over one in-memory file; returns (line, rule)."""
    model = declparse.parse_text(text, path)
    config = {"source": {"allow": list(allows)}}
    return [(f.line, f.message.split(":", 1)[0])
            for f in source_check.run(model, config)]


def allow(path, rule, reason="fixture reason"):
    return {"file": path, "rule": rule, "reason": reason}


class FixtureTripletTest(unittest.TestCase):
    def test_snapshot_violating(self):
        rc, out = run_cli("snapshot/violating", "snapshot")
        self.assertEqual(rc, 1, out)
        self.assertIn("Widget::skew_", out)
        self.assertIn("state.h:12", out)

    def test_snapshot_suppressed(self):
        rc, out = run_cli("snapshot/suppressed", "snapshot")
        self.assertEqual(rc, 0, out)

    def test_snapshot_clean(self):
        rc, out = run_cli("snapshot/clean", "snapshot")
        self.assertEqual(rc, 0, out)

    def test_snapshot_nested_type_is_not_its_outer_class(self):
        # Rule B pairs a codec with the parameter's own type: Ledger in
        # `Ledger::Entry&` only qualifies Entry.
        rc, out = run_cli("snapshot/nested_codec", "snapshot")
        self.assertEqual(rc, 0, out)
        self.assertNotIn("Ledger::total", out)

    def test_lock_reversed_pair_is_a_cycle(self):
        rc, out = run_cli("lock/violating", "lock")
        self.assertEqual(rc, 1, out)
        self.assertIn("cycle", out)
        self.assertIn("Pool::mu_", out)
        self.assertIn("Pool::flush_mu_", out)

    def test_lock_undeclared_edge(self):
        rc, out = run_cli("lock/undeclared", "lock")
        self.assertEqual(rc, 1, out)
        self.assertIn("not declared in lock_order.toml", out)

    def test_lock_suppressed_by_declaration(self):
        rc, out = run_cli("lock/suppressed", "lock")
        self.assertEqual(rc, 0, out)

    def test_lock_clean_sibling_scopes(self):
        rc, out = run_cli("lock/clean", "lock")
        self.assertEqual(rc, 0, out)

    def test_schema_violating(self):
        rc, out = run_cli("schema/violating", "schema")
        self.assertEqual(rc, 1, out)
        self.assertIn("RecordKind::kGamma", out)

    def test_schema_suppressed_by_ignore(self):
        rc, out = run_cli("schema/suppressed", "schema")
        self.assertEqual(rc, 0, out)

    def test_schema_clean(self):
        rc, out = run_cli("schema/clean", "schema")
        self.assertEqual(rc, 0, out)

    # (file in each source fixture tree, rule, findings when violating)
    SOURCE_CASES = [
        ("src/model/nondeterminism.cc", "nondeterminism", 5),
        ("src/obs/unordered_iter.cc", "unordered-iter", 1),
        ("src/market/market_obs.cc", "market-obs", 1),
        ("src/platform/shared_market.cc", "market-obs", 1),
        ("src/market/market_node_map.cc", "market-node-map", 3),
        ("src/platform/shared_market.h", "market-node-map", 3),
        ("src/tuning/raw_mutex.cc", "raw-mutex", 2),
        ("src/control/raw_retry.cc", "raw-retry", 3),
        ("src/control/fleet_lifecycle.cc", "fleet-lifecycle", 2),
    ]

    def test_source_violating(self):
        rc, out = run_cli("source/violating", "source")
        self.assertEqual(rc, 1, out)
        findings = source_findings(out)
        for path, rule, expected in self.SOURCE_CASES:
            with self.subTest(path=path):
                mine = [f for f in findings if f[0] == path]
                self.assertEqual(len(mine), expected, out)
                self.assertTrue(all(f[2] == rule for f in mine), out)
        self.assertEqual(len(findings), 21, out)

    def test_source_suppressed(self):
        rc, out = run_cli("source/suppressed", "source")
        self.assertEqual(rc, 0, out)
        # Every [[source.allow]] entry is in use: without them, each
        # fixture file reports its rule.
        model = analyze.build_model(
            os.path.join(FIXTURES, "source/suppressed"), None, None, False)
        silenced = {(f.file, f.message.split(":", 1)[0])
                    for f in source_check.run(model, {})}
        self.assertEqual(
            silenced, {(path, rule) for path, rule, _ in self.SOURCE_CASES})

    def test_source_clean(self):
        rc, out = run_cli("source/clean", "source")
        self.assertEqual(rc, 0, out)

    def test_source_skips_non_cpp_files(self):
        root = tempfile.mkdtemp(prefix="htune-source-")
        self.addCleanup(shutil.rmtree, root, ignore_errors=True)
        os.makedirs(os.path.join(root, "src"))
        with open(os.path.join(root, "src", "notes.md"), "w") as f:
            f.write("std::mutex mu;\n")
        rc, out = run_cli_at(root, "source")
        self.assertEqual(rc, 0, out)


class RealTreeMutationTest(unittest.TestCase):
    """The acceptance contract: each check catches its defect class when
    injected into today's real declarations."""

    @classmethod
    def setUpClass(cls):
        cls.model = analyze.build_model(REPO_ROOT, None, None, False)
        cls.config = analyze.load_toml(None, REPO_ROOT, "analyze.toml")
        cls.lock_order = analyze.load_toml(None, REPO_ROOT,
                                           "lock_order.toml")

    def test_baseline_is_clean(self):
        findings = (snapshot_check.run(self.model, self.config)
                    + lock_check.run(self.model, self.lock_order)
                    + schema_check.run(self.model, self.config, REPO_ROOT)
                    + source_check.run(self.model, self.config))
        self.assertEqual([str(f) for f in findings], [])

    def test_dropped_simulator_codec_reference_fails(self):
        model = analyze.build_model(REPO_ROOT, None, None, False)
        fns = model.functions["MarketSimulator::CaptureState"]
        self.assertTrue(fns)
        for fn in fns:
            fn.body = fn.body.replace("rng_", "dropped_")
        findings = snapshot_check.run(model, self.config)
        self.assertTrue(
            any("MarketSimulator::rng_" in str(f) for f in findings),
            [str(f) for f in findings])

    def test_unhandled_trace_kind_fails_every_surface(self):
        model = analyze.build_model(REPO_ROOT, None, None, False)
        enum = model.find_enum("TraceEventKind")
        enum.enumerators.append(("kPhantom", 7))
        findings = schema_check.run(model, self.config, REPO_ROOT)
        messages = [str(f) for f in findings]
        self.assertTrue(
            any("kPhantom" in m for m in messages), messages)
        # The ToString switch, the FromString table and the decode bound
        # must all complain.
        self.assertGreaterEqual(
            sum("kPhantom" in m or "TraceEventKind" in m
                for m in messages), 3, messages)

    def test_reversed_real_lock_pair_fails(self):
        # ThreadPool's two real locks, the pool queue's impl_->mu and the
        # per-region region->mu, are never nested today; nest them both
        # ways.
        model = analyze.build_model(REPO_ROOT, None, None, False)
        bodies = [fn.body for fns in model.functions.values() for fn in fns
                  if fn.qname.startswith("ThreadPool::")]
        for expr in ("impl_->mu", "region->mu"):
            self.assertTrue(
                any(f"MutexLock lock({expr})" in body for body in bodies),
                expr)
        for name, outer, inner in (("Forwards", "impl_->mu", "region->mu"),
                                   ("Backwards", "region->mu", "impl_->mu")):
            model.add_function(FunctionDef(
                qname=f"ThreadPool::{name}",
                params="",
                body=f"{{ MutexLock a({outer}); MutexLock b({inner}); }}",
                file="src/common/parallel.cc", line=1,
                body_start_line=1))
        messages = [str(f) for f in lock_check.run(model, self.lock_order)]
        self.assertTrue(
            any("cycle" in m and "ThreadPool::impl_->mu" in m
                and "ThreadPool::region->mu" in m for m in messages),
            messages)


class SourceRuleMutationTest(unittest.TestCase):
    """Each source rule, injected into a copy of a real file at its real
    path, fires exactly once; at a path its scope exempts, it does not."""

    def inject(self, rel, lines):
        """Copies `rel` into a fresh root with `lines` appended, runs the
        source check there, and returns (line of the last injected line,
        findings)."""
        root = tempfile.mkdtemp(prefix="htune-source-")
        self.addCleanup(shutil.rmtree, root, ignore_errors=True)
        with open(os.path.join(REPO_ROOT, rel), encoding="utf-8") as f:
            text = f.read().rstrip("\n") + "\n"
        dest = os.path.join(root, rel)
        os.makedirs(os.path.dirname(dest))
        with open(dest, "w", encoding="utf-8") as f:
            f.write(text + "\n".join(lines) + "\n")
        _, out = run_cli_at(root, "source")
        return text.count("\n") + len(lines), source_findings(out)

    OBS = ['void InjectedTick() { HTUNE_OBS_COUNTER_ADD("x", 1); }']
    NODE_MAP = ["std::map<uint64_t, double> injected_by_id;"]
    NODE_MAP_INCLUDE = ["#include <map>"]
    MUTEX = ["static std::mutex injected_mu;"]
    SLEEP = ["void InjectedPause() { std::this_thread::sleep_for(kPause); }"]
    LIFECYCLE = ["void InjectedDone(ManifestJobEntry& entry) {",
                 "  entry.state = FleetJobState::kDone;"]

    def test_each_rule_fires_at_its_real_path(self):
        cases = [
            ("src/model/latency_cache.cc",
             ["static int injected_seed = rand();"], "nondeterminism"),
            ("src/obs/export.cc",
             ["std::unordered_map<int, int> injected_;",
              "void InjectedDump() { for (const auto& kv : injected_) {} }"],
             "unordered-iter"),
            ("src/market/simulator.cc", self.OBS, "market-obs"),
            ("src/platform/shared_market.cc", self.OBS, "market-obs"),
            ("src/market/simulator.cc", self.NODE_MAP, "market-node-map"),
            ("src/platform/shared_market.cc", self.NODE_MAP,
             "market-node-map"),
            ("src/market/simulator.cc", self.NODE_MAP_INCLUDE,
             "market-node-map"),
            ("src/platform/shared_market.h", self.NODE_MAP_INCLUDE,
             "market-node-map"),
            ("src/platform/service.cc", self.MUTEX, "raw-mutex"),
            ("src/durability/journal.cc", self.SLEEP, "raw-retry"),
            ("src/platform/service.cc", self.LIFECYCLE, "fleet-lifecycle"),
        ]
        for rel, lines, rule in cases:
            with self.subTest(path=rel, rule=rule):
                line, findings = self.inject(rel, lines)
                self.assertEqual(findings, [(rel, line, rule)])

    def test_exempt_paths_stay_silent(self):
        cases = [
            ("src/common/mutex.h", self.MUTEX),
            ("src/resilience/policy.cc", self.SLEEP),
            ("src/fleet/supervisor.cc", self.LIFECYCLE),
            ("src/durability/manifest.cc", self.LIFECYCLE),
        ]
        for rel, lines in cases:
            with self.subTest(path=rel):
                _, findings = self.inject(rel, lines)
                self.assertEqual(findings, [])


class SourceRuleTest(unittest.TestCase):
    """Scoping, suppression and stripping of the source rules."""

    def test_rules_scoped_to_src(self):
        text = "std::mutex mu;\nint x = rand();\n"
        self.assertEqual(scan_text(text, "tests/foo.cc"), [])
        self.assertEqual(sorted(scan_text(text, "src/foo.cc")),
                         [(1, "raw-mutex"), (2, "nondeterminism")])

    def test_market_obs_scoped_to_market_engines(self):
        text = 'void F() { HTUNE_OBS_COUNTER_ADD("x", 1); }\n'
        self.assertEqual(scan_text(text, "src/control/foo.cc"), [])
        self.assertEqual(scan_text(text, "src/market/foo.cc"),
                         [(1, "market-obs")])

    def test_node_map_scoped_to_market_engines(self):
        text = "std::map<int, int> by_id;\n"
        self.assertEqual(scan_text(text, "src/control/foo.cc"), [])
        self.assertEqual(scan_text(text, "src/platform/service.cc"), [])
        self.assertEqual(scan_text(text, "src/market/foo.cc"),
                         [(1, "market-node-map")])

    def test_node_map_include_seen_through_blanked_directive(self):
        text = "#include <vector>\n#include <map>  // cold path\n"
        self.assertEqual(scan_text(text, "src/market/foo.cc"),
                         [(2, "market-node-map")])

    def test_mutex_header_exempt_from_raw_mutex(self):
        self.assertEqual(scan_text("std::mutex mu_;\n", "src/common/mutex.h"),
                         [])

    def test_resilience_exempt_from_raw_retry(self):
        text = "for (int attempt = 1; attempt <= max; ++attempt) {\n"
        self.assertEqual(scan_text(text, "src/resilience/policy.h"), [])
        self.assertEqual(scan_text(text, "src/durability/journal.cc"),
                         [(1, "raw-retry")])

    def test_fleet_lifecycle_scoped(self):
        text = "entry.state = FleetJobState::kDone;\n"
        self.assertEqual(scan_text(text, "src/fleet/supervisor.cc"), [])
        self.assertEqual(scan_text(text, "src/durability/manifest.cc"), [])
        self.assertEqual(scan_text(text, "src/control/foo.cc"),
                         [(1, "fleet-lifecycle")])
        comparison = "if (entry.state == FleetJobState::kDone) return;\n"
        self.assertEqual(scan_text(comparison, "src/control/foo.cc"), [])

    def test_allow_silences_its_rule_in_its_file(self):
        text = "std::mutex a;\nstd::mutex b;\n"
        self.assertEqual(
            scan_text(text, "src/foo.cc", [allow("src/foo.cc", "raw-mutex")]),
            [])
        self.assertEqual(
            scan_text(text, "src/foo.cc", [allow("src/bar.cc", "raw-mutex")]),
            [(1, "raw-mutex"), (2, "raw-mutex"),
             (0, "stale-suppression")])

    def test_wrong_rule_allow_does_not_silence(self):
        findings = scan_text("std::mutex mu;\n", "src/foo.cc",
                             [allow("src/foo.cc", "nondeterminism")])
        self.assertEqual(sorted(findings),
                         [(0, "stale-suppression"), (1, "raw-mutex")])

    def test_unused_allow_is_stale(self):
        model = declparse.parse_text("int x;\n", "src/foo.cc")
        findings = source_check.run(
            model, {"source": {"allow": [allow("src/foo.cc", "raw-mutex")]}})
        self.assertEqual([(f.file, f.line) for f in findings],
                         [("analyze.toml", 0)])
        self.assertIn("stale-suppression", findings[0].message)
        self.assertIn("no longer suppresses", findings[0].message)

    def test_unknown_rule_allow_is_stale(self):
        model = declparse.parse_text("int x;\n", "src/foo.cc")
        findings = source_check.run(
            model, {"source": {"allow": [allow("src/foo.cc", "bogus")]}})
        self.assertEqual(len(findings), 1)
        self.assertIn("unknown rule", findings[0].message)

    def test_allow_without_reason_is_stale(self):
        model = declparse.parse_text("std::mutex mu;\n", "src/foo.cc")
        findings = source_check.run(
            model, {"source": {"allow": [
                {"file": "src/foo.cc", "rule": "raw-mutex"}]}})
        self.assertEqual(len(findings), 1)
        self.assertIn("gives no reason", findings[0].message)

    def test_used_allows_are_not_stale(self):
        text = "std::mutex mu;\nlong t = time(0);\n"
        self.assertEqual(
            scan_text(text, "src/foo.cc",
                      [allow("src/foo.cc", "raw-mutex"),
                       allow("src/foo.cc", "nondeterminism")]),
            [])

    def test_stale_suppression_is_not_itself_suppressible(self):
        findings = scan_text("int x;\n", "src/foo.cc",
                             [allow("src/foo.cc", "stale-suppression"),
                              allow("src/foo.cc", "raw-mutex")])
        self.assertEqual(findings,
                         [(0, "stale-suppression"), (0, "stale-suppression")])

    def test_comments_and_strings_ignored(self):
        text = ('// std::mutex in a line comment\n'
                '/* std::random_device in a block\n'
                '   comment spanning lines */\n'
                'const char* s = "std::mutex rand() time()";\n')
        self.assertEqual(scan_text(text, "src/foo.cc"), [])

    def test_identifier_suffix_not_matched(self):
        text = "double some_time() { return uptime(); }\n"
        self.assertEqual(scan_text(text, "src/foo.cc"), [])


class AstCacheTest(unittest.TestCase):
    """Same compiler + same file contents -> the dump is not re-run; an
    edit to the TU or any transitively-included in-repo header -> it is."""

    def setUp(self):
        self.root = tempfile.mkdtemp(prefix="htune-analyze-")
        self.addCleanup(shutil.rmtree, self.root, ignore_errors=True)
        os.makedirs(os.path.join(self.root, "src"))
        self.header = os.path.join(self.root, "src", "gadget.h")
        self.source = os.path.join(self.root, "src", "gadget.cc")
        with open(self.header, "w") as f:
            f.write("#pragma once\nstruct Gadget { int spin; };\n")
        with open(self.source, "w") as f:
            f.write('#include "gadget.h"\nint use(Gadget g) '
                    '{ return g.spin; }\n')
        self.db = os.path.join(self.root, "compile_commands.json")
        with open(self.db, "w") as f:
            json.dump([{"directory": self.root,
                        "file": "src/gadget.cc",
                        "command": "c++ -c src/gadget.cc"}], f)
        self.cache = os.path.join(self.root, "cache")
        self.calls = 0

    def fake_dumper(self, entry):
        self.calls += 1
        return {
            "kind": "TranslationUnitDecl",
            "inner": [{
                "kind": "CXXRecordDecl", "name": "Gadget",
                "tagUsed": "struct", "completeDefinition": True,
                "loc": {"file": self.header, "line": 2},
                "inner": [{"kind": "FieldDecl", "name": "spin",
                           "loc": {"line": 2}}],
            }],
        }

    def refine(self):
        model = Model()
        stats = astdump.refine(model, self.root, self.db, self.cache,
                               dumper=self.fake_dumper, dumper_id="fake-1")
        return model, stats

    def test_second_run_hits_cache(self):
        _, stats = self.refine()
        self.assertEqual((stats["dumped"], stats["cached"]), (1, 0))
        self.assertEqual(self.calls, 1)
        model, stats = self.refine()
        self.assertEqual((stats["dumped"], stats["cached"]), (0, 1))
        self.assertEqual(self.calls, 1)  # no re-dump
        self.assertIn("Gadget", model.classes)
        self.assertEqual(
            [m.name for m in model.classes["Gadget"].members], ["spin"])

    def test_edited_header_invalidates(self):
        self.refine()
        with open(self.header, "a") as f:
            f.write("// touched\n")
        _, stats = self.refine()
        self.assertEqual((stats["dumped"], stats["cached"]), (1, 0))
        self.assertEqual(self.calls, 2)

    def test_edited_source_invalidates(self):
        self.refine()
        with open(self.source, "a") as f:
            f.write("// touched\n")
        _, stats = self.refine()
        self.assertEqual((stats["dumped"], stats["cached"]), (1, 0))
        self.assertEqual(self.calls, 2)

    def test_failed_dump_falls_back(self):
        model = Model()
        stats = astdump.refine(model, self.root, self.db, self.cache,
                               dumper=lambda entry: None,
                               dumper_id="fake-1")
        self.assertEqual(stats["failed"], 1)
        self.assertEqual(model.classes, {})


class AstExtractionTest(unittest.TestCase):
    def test_mini_dump(self):
        root = tempfile.mkdtemp(prefix="htune-extract-")
        self.addCleanup(shutil.rmtree, root, ignore_errors=True)
        path = os.path.join(root, "src", "thing.h")
        os.makedirs(os.path.dirname(path))
        with open(path, "w") as f:
            f.write("struct X;\n" * 10)
        tu = {
            "kind": "TranslationUnitDecl",
            "inner": [
                {"kind": "CXXRecordDecl", "name": "Thing",
                 "tagUsed": "class", "completeDefinition": True,
                 "loc": {"file": path, "line": 3},
                 "inner": [
                     {"kind": "FieldDecl", "name": "hidden_",
                      "loc": {"line": 4}},
                     {"kind": "AccessSpecDecl", "access": "public"},
                     {"kind": "FieldDecl", "name": "shown_",
                      "loc": {"line": 6}},
                     {"kind": "CXXMethodDecl", "name": "CaptureState"},
                 ]},
                {"kind": "EnumDecl", "name": "Mode",
                 "loc": {"line": 9},
                 "inner": [
                     {"kind": "EnumConstantDecl", "name": "kOff",
                      "inner": [{"kind": "ConstantExpr", "value": "4"}]},
                     {"kind": "EnumConstantDecl", "name": "kOn"},
                 ]},
                # A system-header record must be dropped.
                {"kind": "CXXRecordDecl", "name": "basic_string",
                 "tagUsed": "class", "completeDefinition": True,
                 "loc": {"file": "/usr/include/string", "line": 1}},
            ],
        }
        model = astdump.extract_model(tu, root)
        self.assertEqual(sorted(model.classes), ["Thing"])
        thing = model.classes["Thing"]
        self.assertEqual(
            [(m.name, m.access) for m in thing.members],
            [("hidden_", "private"), ("shown_", "public")])
        self.assertTrue(thing.declares_method("CaptureState"))
        self.assertEqual(model.enums["Mode"].enumerators,
                         [("kOff", 4), ("kOn", 5)])


class DeclparseRegressionTest(unittest.TestCase):
    def test_member_line_is_declarator_line(self):
        text = ("class C {\n"
                " public:\n"
                "  void CaptureState();\n"
                "\n"
                " private:\n"
                "  // HTUNE_TRANSIENT: rebuilt lazily\n"
                "  int cache_ = 0;\n"
                "  int real_ = 0;\n"
                "};\n")
        model = declparse.parse_text(text, "t.h")
        members = {m.name: m for m in model.classes["C"].members}
        self.assertEqual(members["cache_"].line, 7)
        self.assertEqual(members["cache_"].transient_reason,
                         "rebuilt lazily")
        self.assertIsNone(members["real_"].transient_reason)
        self.assertEqual(members["cache_"].access, "private")

    def test_requires_seeds_lock_walk(self):
        text = ("void Pool::DrainLocked() HTUNE_REQUIRES(mu_) {\n"
                "  MutexLock flush(flush_mu_);\n"
                "}\n")
        model = declparse.parse_text(text, "t.cc")
        edges = {}
        lock_check._walk_function(
            model.functions["Pool::DrainLocked"][0], edges)
        self.assertEqual(list(edges),
                         [("Pool::mu_", "Pool::flush_mu_")])


if __name__ == "__main__":
    unittest.main()
