#!/usr/bin/env python3
"""Unit tests for tools/htune_analyze/, driven from ctest.

Four layers:
  * fixture triplets per check under tests/analyze_fixtures/
    (violating / suppressed / clean), run through the real CLI;
  * mutation tests against today's tree: delete a member reference from
    MarketSimulator's snapshot codec, append an unhandled TraceEventKind
    enumerator, reverse a real lock pair — each must fail its check;
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
from model import FunctionDef, Model  # noqa: E402

FIXTURES = os.path.join(REPO_ROOT, "tests", "analyze_fixtures")


def run_cli(fixture, checks):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(
            io.StringIO()):
        rc = analyze.main(["--root", os.path.join(FIXTURES, fixture),
                           "--checks", checks])
    return rc, out.getvalue()


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
                    + schema_check.run(self.model, self.config, REPO_ROOT))
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
