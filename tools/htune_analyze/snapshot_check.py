"""Snapshot completeness check.

Guards the repo's central durability invariant (DESIGN.md §7/§11): a
field added to a state-bearing class and forgotten in its codec breaks
bitwise crash-resume silently. Three discovery rules feed one member
test:

  Rule A (own codec): a class that declares both a capture method
      (CaptureState/SaveState) and RestoreState owns its codec. Every
      non-static data member — any access level — must be referenced.

  Rule B (codec pair): a struct passed read-only into some Encode*
      function and mutably into some Decode* function is serialized by
      that free-function pair. Only public members are checked: a type
      with private members that shows up in codec signatures (e.g.
      BudgetLedger) serializes itself through its own methods, which
      Rule A or a binding covers.

  Bindings (config): structs encoded inline by some other class's codec
      (TaskState inside FaultTolerantPolicy::EncodeState, SharedJob
      inside SharedMarket::CaptureState) are bound explicitly in analyze.toml
      [[snapshot.binding]] entries to their capture/restore functions.

The member test: the member name must appear as a whole word in the
union of the capture bodies AND the union of the restore bodies, or the
declaration must carry `// HTUNE_TRANSIENT: <reason>` on its line or the
line above. A transient annotation is a reviewed claim that the field is
rebuilt after restore (cache, scratch buffer, derived weight, metrics).
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Optional

from model import ClassDecl, Finding, Model, word_re

CAPTURE_METHODS = ("CaptureState", "SaveState")
RESTORE_METHODS = ("RestoreState",)


def _body_union(model: Model, qnames: Iterable[str]) -> str:
    parts = []
    for qname in qnames:
        for fn in model.functions.get(qname, []):
            parts.append(fn.body)
    return "\n".join(parts)


def _check_members(cls: ClassDecl, capture_text: str, restore_text: str,
                   capture_desc: str, restore_desc: str,
                   public_only: bool) -> List[Finding]:
    findings = []
    for member in cls.members:
        if public_only and member.access != "public":
            continue
        if member.transient_reason is not None:
            continue
        pattern = word_re(member.name)
        missing = []
        if not pattern.search(capture_text):
            missing.append(capture_desc)
        if not pattern.search(restore_text):
            missing.append(restore_desc)
        if missing:
            findings.append(Finding(
                "snapshot", cls.file, member.line,
                f"member '{cls.name}::{member.name}' is not referenced by "
                f"{' or '.join(missing)}; serialize it or annotate the "
                f"declaration with // HTUNE_TRANSIENT: <why it is rebuilt "
                f"after restore>"))
    return findings


def _rule_a(model: Model) -> List[Finding]:
    findings = []
    for cls in model.classes.values():
        captures = [m for m in CAPTURE_METHODS if cls.declares_method(m)]
        restores = [m for m in RESTORE_METHODS if cls.declares_method(m)]
        if not captures or not restores:
            continue
        own = cls.name.split("::")[-1]
        capture_text = _body_union(
            model, [f"{own}::{m}" for m in captures])
        restore_text = _body_union(
            model, [f"{own}::{m}" for m in restores])
        if not capture_text or not restore_text:
            continue  # declared elsewhere; nothing to search
        findings.extend(_check_members(
            cls, capture_text, restore_text,
            f"its capture path ({'/'.join(captures)})",
            f"its restore path ({'/'.join(restores)})",
            public_only=False))
    return findings


def _param_segments(params: str) -> List[str]:
    segments, depth, start = [], 0, 0
    for i, ch in enumerate(params):
        if ch in "(<[{":
            depth += 1
        elif ch in ")>]}":
            depth = max(0, depth - 1)
        elif ch == "," and depth == 0:
            segments.append(params[start:i])
            start = i + 1
    segments.append(params[start:])
    return segments


def _names_type(segment: str, name: str) -> bool:
    """The parameter's own type is `name`: a whole-word match that is not
    the qualifier of a nested type (`MarketState::Event&` names Event)."""
    return any(not segment[m.end():].lstrip().startswith("::")
               for m in word_re(name).finditer(segment))


def _encode_takes(segment: str, name: str) -> bool:
    """Read-only parameter of the type: const-ref or by value."""
    if not _names_type(segment, name) or "*" in segment:
        return False
    if "&" in segment:
        return "const" in segment
    return True


def _decode_takes(segment: str, name: str) -> bool:
    """Mutable out-parameter of the type: non-const ref or pointer."""
    if not _names_type(segment, name):
        return False
    if "const" in segment:
        return False
    return "&" in segment or "*" in segment


def _rule_b(model: Model, bound: Dict[str, object]) -> List[Finding]:
    encode_fns: Dict[str, List[str]] = {}  # class tail -> encode qnames
    decode_fns: Dict[str, List[str]] = {}
    tails = {}
    for qname, cls in model.classes.items():
        tails.setdefault(qname.split("::")[-1], []).append(cls)
    for qname, fns in model.functions.items():
        base = qname.split("::")[-1]
        if base.startswith("Encode"):
            table: Optional[Dict[str, List[str]]] = encode_fns
            takes = _encode_takes
        elif base.startswith("Decode"):
            table = decode_fns
            takes = _decode_takes
        else:
            continue
        for fn in fns:
            for segment in _param_segments(fn.params):
                for tail in tails:
                    if takes(segment, tail):
                        table.setdefault(tail, []).append(qname)

    findings = []
    for tail in sorted(set(encode_fns) & set(decode_fns)):
        classes = tails[tail]
        if len(classes) != 1:
            continue  # ambiguous tail; bindings must name it explicitly
        cls = classes[0]
        if cls.name in bound or not cls.members:
            continue
        capture_text = _body_union(model, sorted(set(encode_fns[tail])))
        restore_text = _body_union(model, sorted(set(decode_fns[tail])))
        findings.extend(_check_members(
            cls, capture_text, restore_text,
            f"its encoder(s) ({', '.join(sorted(set(encode_fns[tail])))})",
            f"its decoder(s) ({', '.join(sorted(set(decode_fns[tail])))})",
            public_only=True))
    return findings


def _bindings(model: Model, bindings: List[dict]) -> List[Finding]:
    findings = []
    for binding in bindings:
        name = binding.get("class", "")
        cls = model.classes.get(name)
        if cls is None:
            matches = [c for qname, c in model.classes.items()
                       if qname.split("::")[-1] == name]
            cls = matches[0] if len(matches) == 1 else None
        if cls is None:
            findings.append(Finding(
                "snapshot", "analyze.toml", 0,
                f"[[snapshot.binding]] names unknown class '{name}'"))
            continue
        capture = binding.get("capture", [])
        restore = binding.get("restore", [])
        capture_text = _body_union(model, capture)
        restore_text = _body_union(model, restore)
        for qnames, text, role in ((capture, capture_text, "capture"),
                                   (restore, restore_text, "restore")):
            if qnames and not text:
                findings.append(Finding(
                    "snapshot", cls.file, cls.line,
                    f"binding for '{cls.name}' names {role} function(s) "
                    f"{qnames} but no definition was found"))
        if not capture_text or not restore_text:
            continue
        findings.extend(_check_members(
            cls, capture_text, restore_text,
            f"its bound capture path ({', '.join(capture)})",
            f"its bound restore path ({', '.join(restore)})",
            public_only=True))
    return findings


def run(model: Model, config: dict) -> List[Finding]:
    snapshot_cfg = config.get("snapshot", {})
    bindings = snapshot_cfg.get("binding", [])
    bound = {b.get("class", ""): b for b in bindings}
    findings = []
    findings.extend(_rule_a(model))
    findings.extend(_rule_b(model, bound))
    findings.extend(_bindings(model, bindings))
    return findings
