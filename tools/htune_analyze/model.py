"""Shared declaration model the checks run against.

Both frontends (astdump's clang JSON extraction and declparse's tolerant
parser) produce the same shapes, so every check is frontend-agnostic:

  ClassDecl    — one class/struct with its non-static data members, the
                 method names it declares, and per-member HTUNE_TRANSIENT
                 annotations harvested from the raw source.
  EnumDecl     — one enum with (name, value) enumerators in order.
  FunctionDef  — one function *definition*: qualified name, parameter
                 text, and the comment-stripped body text (braces kept,
                 so lock_check can walk scopes).
  SourceFile   — one parsed file's comment-stripped text and its
                 `#include` targets (the stripper blanks directives).

Qualified names never include namespaces (the tree is one `htune`
namespace; anonymous namespaces are transparent); class nesting is kept:
`MarketState::Event`, `SharedMarket::SharedJob`.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Dict, List, Optional, Tuple

_WORD_RE_CACHE: Dict[str, re.Pattern] = {}


def word_re(name: str) -> re.Pattern:
    """Compiled whole-word pattern for an identifier (cached)."""
    pattern = _WORD_RE_CACHE.get(name)
    if pattern is None:
        pattern = re.compile(r"\b" + re.escape(name) + r"\b")
        _WORD_RE_CACHE[name] = pattern
    return pattern


@dataclasses.dataclass
class Member:
    name: str
    line: int
    access: str = "public"  # public | protected | private
    transient_reason: Optional[str] = None  # HTUNE_TRANSIENT: <reason>


@dataclasses.dataclass
class ClassDecl:
    name: str  # qualified by enclosing classes, e.g. "MarketState::Event"
    kind: str  # "struct" | "class"
    file: str
    line: int
    members: List[Member] = dataclasses.field(default_factory=list)
    method_names: List[str] = dataclasses.field(default_factory=list)

    def declares_method(self, name: str) -> bool:
        return name in self.method_names


@dataclasses.dataclass
class EnumDecl:
    name: str  # qualified, e.g. "MarketEvent::Kind"
    file: str
    line: int
    # (enumerator, value); value is None when the initializer was not a
    # plain integer literal (no such enum exists in this tree today).
    enumerators: List[Tuple[str, Optional[int]]] = dataclasses.field(
        default_factory=list)

    def names(self) -> List[str]:
        return [name for name, _ in self.enumerators]

    def values(self) -> List[Optional[int]]:
        return [value for _, value in self.enumerators]


@dataclasses.dataclass
class FunctionDef:
    qname: str  # "SharedMarket::CaptureState", "EncodeTask", ...
    params: str  # raw parameter-list text (comment-stripped)
    body: str  # comment-stripped body text including braces
    file: str
    line: int
    # Lock expressions from HTUNE_REQUIRES(...) on the signature: the
    # function runs with these already held.
    requires: List[str] = dataclasses.field(default_factory=list)
    # Line of the opening brace; newline offsets into `body` are relative
    # to this, so checks can report exact source lines.
    body_start_line: int = 0


@dataclasses.dataclass
class SourceFile:
    # Comments, string/char literals and preprocessor directives blanked;
    # every newline kept, so line N of the text is line N of the file.
    stripped: str
    # (line, target) per #include, the target spelled with its delimiters:
    # <map> or "common/mutex.h".
    includes: List[Tuple[int, str]]


class Model:
    """Whole-tree declaration index. Classes and enums are keyed by
    qualified name (first declaration wins, later ones merge members and
    methods — a class parsed from both its header and a clang TU dump
    unions cleanly). Function definitions accumulate: overloads and
    same-named free functions in different files all keep their bodies,
    and checks search the union."""

    def __init__(self) -> None:
        self.classes: Dict[str, ClassDecl] = {}
        self.enums: Dict[str, EnumDecl] = {}
        self.functions: Dict[str, List[FunctionDef]] = {}
        # Keyed by root-relative path; only declparse fills it.
        self.sources: Dict[str, SourceFile] = {}

    def add_class(self, decl: ClassDecl) -> None:
        existing = self.classes.get(decl.name)
        if existing is None:
            self.classes[decl.name] = decl
            return
        known = {member.name for member in existing.members}
        for member in decl.members:
            if member.name in known:
                # Keep the annotation wherever it was written.
                if member.transient_reason:
                    for mine in existing.members:
                        if (mine.name == member.name
                                and not mine.transient_reason):
                            mine.transient_reason = member.transient_reason
                continue
            existing.members.append(member)
            known.add(member.name)
        for method in decl.method_names:
            if method not in existing.method_names:
                existing.method_names.append(method)

    def add_enum(self, decl: EnumDecl) -> None:
        self.enums.setdefault(decl.name, decl)

    def add_function(self, decl: FunctionDef) -> None:
        self.functions.setdefault(decl.qname, []).append(decl)

    def find_enum(self, name: str) -> Optional[EnumDecl]:
        """Lookup by qualified name, falling back to unique last-component
        match ("Kind" → "MarketEvent::Kind" when unambiguous)."""
        decl = self.enums.get(name)
        if decl is not None:
            return decl
        tails = [e for qname, e in self.enums.items()
                 if qname.split("::")[-1] == name]
        return tails[0] if len(tails) == 1 else None

    def function_bodies(self, qname: str) -> List[FunctionDef]:
        """Definitions for a (possibly unqualified) function name."""
        if qname in self.functions:
            return self.functions[qname]
        return [fn for fns in self.functions.values() for fn in fns
                if fns and fns[0].qname.split("::")[-1] == qname.split(
                    "::")[-1] and qname.count("::") == 0]

    def merge(self, other: "Model") -> None:
        for decl in other.classes.values():
            self.add_class(decl)
        for decl in other.enums.values():
            self.add_enum(decl)
        for fns in other.functions.values():
            for fn in fns:
                self.add_function(fn)
        self.sources.update(other.sources)


@dataclasses.dataclass
class Finding:
    check: str
    file: str
    line: int
    message: str

    def __str__(self) -> str:
        return f"{self.file}:{self.line}: [{self.check}] {self.message}"
