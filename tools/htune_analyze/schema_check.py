"""Schema-drift check.

The serialized enums (trace event kinds, journal/manifest record types,
fleet job states, wire commands) each have several dispatch surfaces:
C++ encode/decode switches and decode upper bounds. Adding an enumerator
in one place and not the others corrupts replay or inspection silently;
this check makes it a build failure.

analyze.toml declares each enum and its surfaces:

  [[schema.enum]]
  name = "TraceEventKind"          # resolved against the parsed model
  ignore = ["kInternal"]           # explicit, reviewed exemptions
    [[schema.enum.surface]]
    kind = "cpp-name"              # every enumerator name appears...
    function = "TraceEventKindToString"   # ...in this function's body,
    file = "src/market/trace_io.cc"       # ...or anywhere in this file
    [[schema.enum.surface]]
    kind = "cpp-max-enumerator"    # the decode bound names the last
    file = "src/durability/snapshot.cc"   # enumerator: pattern has
    pattern = "TraceEventKind::{last}"    # {last} substituted

String-valued protocols use [[schema.stringset]] with literal `values`
and `cpp-dispatch` surfaces: `pattern` ({value} substituted) must match
for every declared value, and `extract` (a regex whose group 1 captures
dispatched literals) must not find undeclared ones — so adding a wire
command to the server without declaring it here also fails.
"""

from __future__ import annotations

import os
import re
from typing import List, Optional

from model import EnumDecl, Finding, Model, word_re


def _read_raw(root: str, rel: str) -> Optional[str]:
    path = os.path.join(root, rel)
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8", errors="replace") as handle:
        return handle.read()


def _surface_loc(surface: dict) -> str:
    return surface.get("file", "analyze.toml")


def _cpp_scope(model: Model, surface: dict) -> Optional[str]:
    """Search text for a cpp surface: a named function's bodies
    (restricted to `file` when given) or a whole stripped file."""
    function = surface.get("function")
    file = surface.get("file")
    if function:
        fns = model.function_bodies(function)
        if file:
            fns = [fn for fn in fns if fn.file == file]
        if not fns:
            return None
        return "\n".join(fn.body for fn in fns)
    if file and file in model.sources:
        return model.sources[file].stripped
    return None


def _check_cpp_name(model: Model, enum: EnumDecl,
                    ignore: set, surface: dict) -> List[Finding]:
    scope = _cpp_scope(model, surface)
    where = surface.get("function") or surface.get("file", "?")
    if scope is None:
        return [Finding("schema", _surface_loc(surface), 0,
                        f"surface for {enum.name} not found: {where}")]
    findings = []
    for name in enum.names():
        if name in ignore:
            continue
        if not word_re(name).search(scope):
            findings.append(Finding(
                "schema", _surface_loc(surface), 0,
                f"{enum.name}::{name} is not handled in {where}"))
    return findings


def _check_cpp_max(model: Model, enum: EnumDecl,
                   ignore: set, surface: dict) -> List[Finding]:
    scope = _cpp_scope(model, surface)
    where = surface.get("function") or surface.get("file", "?")
    if scope is None:
        return [Finding("schema", _surface_loc(surface), 0,
                        f"surface for {enum.name} not found: {where}")]
    candidates = [(value, name) for name, value in enum.enumerators
                  if value is not None and name not in ignore]
    if not candidates:
        return []
    last = max(candidates)[1]
    pattern = surface.get("pattern", "{last}").replace("{last}", last)
    if not re.search(re.escape(pattern).replace(r"\ ", r"\s*"), scope):
        return [Finding(
            "schema", _surface_loc(surface), 0,
            f"decode bound in {where} does not reference the last "
            f"enumerator of {enum.name}: expected '{pattern}' — update "
            f"the bound when adding enumerators")]
    return []


_ENUM_SURFACES = {
    "cpp-name": _check_cpp_name,
    "cpp-max-enumerator": _check_cpp_max,
}


def _check_stringset(model: Model, root: str, spec: dict) -> List[Finding]:
    name = spec.get("name", "?")
    values = spec.get("values", [])
    findings = []
    for surface in spec.get("surface", []):
        file = surface.get("file", "?")
        # Dispatch literals live inside string constants, so search raw.
        text = _read_raw(root, file)
        if text is None:
            findings.append(Finding(
                "schema", file, 0, f"surface for {name} not found: {file}"))
            continue
        pattern = surface.get("pattern", "")
        for value in values:
            if pattern and not re.search(
                    pattern.replace("{value}", re.escape(value)), text):
                findings.append(Finding(
                    "schema", file, 0,
                    f"{name} value '{value}' is not dispatched in {file} "
                    f"(no match for pattern '{pattern}')"))
        extract = surface.get("extract", "")
        if extract:
            for match in sorted(set(re.findall(extract, text))):
                if match not in values:
                    findings.append(Finding(
                        "schema", file, 0,
                        f"{file} dispatches '{match}' which is not a "
                        f"declared {name} value — add it to analyze.toml "
                        f"and to every other surface"))
    return findings


def run(model: Model, config: dict, root: str) -> List[Finding]:
    schema_cfg = config.get("schema", {})
    findings = []
    for spec in schema_cfg.get("enum", []):
        name = spec.get("name", "?")
        enum = model.find_enum(name)
        if enum is None:
            findings.append(Finding(
                "schema", "analyze.toml", 0,
                f"[[schema.enum]] names unknown enum '{name}'"))
            continue
        ignore = set(spec.get("ignore", []))
        for enumerator in ignore:
            if enumerator not in enum.names():
                findings.append(Finding(
                    "schema", "analyze.toml", 0,
                    f"ignore entry '{enumerator}' is not an enumerator "
                    f"of {enum.name}"))
        for surface in spec.get("surface", []):
            kind = surface.get("kind", "?")
            checker = _ENUM_SURFACES.get(kind)
            if checker is None:
                findings.append(Finding(
                    "schema", "analyze.toml", 0,
                    f"unknown surface kind '{kind}' for enum {name}"))
                continue
            findings.extend(checker(model, enum, ignore, surface))
    for spec in schema_cfg.get("stringset", []):
        findings.extend(_check_stringset(model, root, spec))
    return findings
