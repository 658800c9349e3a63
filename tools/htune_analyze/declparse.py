"""Tolerant C++ declaration parser — the always-available frontend.

Not a C++ parser: a brace/statement scanner tuned to the declaration
idioms this tree actually uses (and the analyzer's fixture corpus
pins). It extracts, per file:

  * class/struct declarations (including nested ones and out-of-line
    `struct Outer::Inner { ... };` definitions in .cc files) with their
    non-static data members, access levels, declared method names, and
    per-member `// HTUNE_TRANSIENT: <reason>` annotations;
  * enums with enumerator names and values;
  * function definitions (free, out-of-line methods, and inline methods)
    with parameter text, HTUNE_REQUIRES(...) annotations, and the
    comment-stripped body text;
  * the whole file's comment-stripped text and its #include targets,
    which the schema and source checks read.

Unknown constructs are skipped, never fatal: when clang is available the
AST dump refines this model (astdump.py); when it is not, this parser is
the whole frontend, so it must degrade gracefully rather than error.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from model import (ClassDecl, EnumDecl, FunctionDef, Member, Model,
                   SourceFile, word_re)

TRANSIENT_RE = re.compile(r"HTUNE_TRANSIENT:\s*(.*?)\s*(?:\*/.*)?$")
ACCESS_RE = re.compile(r"(?<!:)\b(public|private|protected)\s*:(?!:)")
CLASS_HEAD_RE = re.compile(
    r"\b(class|struct)\s+(?:HTUNE_\w+\s*(?:\([^()]*\))?\s*)*"
    r"([A-Za-z_]\w*(?:::\w+)*)\s*(?:final\s*)?(?::[^:].*)?$", re.S)
ENUM_HEAD_RE = re.compile(
    r"\benum\s+(?:class\s+|struct\s+)?([A-Za-z_]\w*)\s*(?::\s*[\w:]+\s*)?$")
INCLUDE_RE = re.compile(r'#\s*include\s*([<"][^>"]*[>"])')
REQUIRES_RE = re.compile(r"\bHTUNE_REQUIRES\s*\(([^()]*)\)")
ANNOTATION_RE = re.compile(r"\bHTUNE_[A-Z_]+\s*(?:\([^()]*\))?")
CONTROL_KEYWORDS = {"if", "for", "while", "switch", "catch", "return",
                    "do", "else", "sizeof", "alignof", "decltype"}
MEMBER_SKIP_PREFIXES = ("using ", "friend ", "typedef ", "template",
                        "static ", "static\n", "extern ", "namespace ")
RESERVED = {"const", "constexpr", "mutable", "volatile", "struct", "class",
            "enum", "unsigned", "signed", "long", "short", "int", "char",
            "bool", "double", "float", "void", "auto", "default", "delete",
            "override", "final", "noexcept", "true", "false", "nullptr"}


def strip_comments_and_strings(
        text: str, includes: List[Tuple[int, str]]) -> str:
    """Replaces comments, string/char literals, and preprocessor
    directives with spaces, keeping every newline so offsets map to the
    same line numbers. Appends (line, target) to `includes` for each
    #include directive blanked."""
    out = []
    i, n = 0, len(text)
    at_line_start = True
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if at_line_start and c == "#":
            # Directive, including continuation lines.
            j = i
            while j < n:
                end = text.find("\n", j)
                end = n if end == -1 else end
                if text[j:end].rstrip().endswith("\\"):
                    j = end + 1
                    continue
                j = end
                break
            chunk = text[i:j]
            include = INCLUDE_RE.match(chunk)
            if include:
                includes.append((_line_of(text, i), include.group(1)))
            out.append("".join(ch if ch == "\n" else " " for ch in chunk))
            i = j
            continue
        if not c.isspace():
            at_line_start = False
        elif c == "\n":
            at_line_start = True
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            chunk = text[i:j + 2]
            out.append("".join(ch if ch == "\n" else " " for ch in chunk))
            i = j + 2
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote:
                    break
                j += 1
            chunk = text[i:min(j + 1, n)]
            out.append("".join(ch if ch == "\n" else " " for ch in chunk))
            i = min(j + 1, n)
        else:
            out.append(c)
            i += 1
    return "".join(out)


def _strip_angle_groups(text: str) -> str:
    """Removes balanced <...> template-argument groups. Heuristic: inside
    a declaration statement `<` is template syntax, not comparison."""
    out = []
    depth = 0
    for ch in text:
        if ch == "<":
            depth += 1
        elif ch == ">":
            if depth > 0:
                depth -= 1
                continue
        if depth == 0:
            out.append(ch)
    return "".join(out)


def _split_top_level(text: str, sep: str) -> List[str]:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "([{<":
            depth += 1
        elif ch in ")]}>":
            depth = max(0, depth - 1)
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def _find_matching_brace(text: str, open_index: int) -> int:
    depth = 0
    for i in range(open_index, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(text) - 1


def _line_of(text: str, index: int) -> int:
    return text.count("\n", 0, index) + 1


def _content_line(text: str, start: int, end: int) -> int:
    """Line of the first non-whitespace character in text[start:end] —
    the line a statement actually begins on (leading blank space after
    the previous boundary is skipped)."""
    for i in range(start, min(end, len(text))):
        if not text[i].isspace():
            return _line_of(text, i)
    return _line_of(text, start)


def _transient_annotation(raw_lines: List[str], line: int) -> Optional[str]:
    """HTUNE_TRANSIENT reason on the member's own line or the line above."""
    for candidate in (line, line - 1):
        if 1 <= candidate <= len(raw_lines):
            match = TRANSIENT_RE.search(raw_lines[candidate - 1])
            if match:
                return match.group(1) or "unspecified"
    return None


def _function_name(head: str) -> Optional[str]:
    """The (possibly qualified) identifier before the first top-level
    parenthesis group — the declared name of a function signature."""
    stripped = _strip_angle_groups(head)
    depth = 0
    paren = -1
    for i, ch in enumerate(stripped):
        if ch == "(":
            if depth == 0:
                paren = i
                break
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
    if paren < 0:
        return None
    before = stripped[:paren].rstrip()
    match = re.search(r"((?:~?[A-Za-z_]\w*::)*~?[A-Za-z_]\w*)$", before)
    if not match:
        return None
    name = match.group(1)
    if name.split("::")[-1] in CONTROL_KEYWORDS:
        return None
    return name


def _function_params(head: str) -> str:
    depth = 0
    start = -1
    for i, ch in enumerate(head):
        if ch == "(":
            if depth == 0:
                start = i
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0 and start >= 0:
                return head[start + 1:i]
    return ""


def _member_names(statement: str) -> List[str]:
    """Declared names of one member statement (initializer and template
    arguments already irrelevant; arrays and comma lists handled)."""
    body = _split_top_level(statement, "=")[0]
    body = _strip_angle_groups(body)
    body = re.sub(r"\{[^{}]*\}", " ", body)
    body = re.sub(r"\[[^\[\]]*\]", " ", body)
    names = []
    for part in _split_top_level(body, ","):
        match = re.search(r"([A-Za-z_]\w*)\s*$", part.strip())
        if match and match.group(1) not in RESERVED:
            names.append(match.group(1))
    return names


def _parse_enum_body(name: str, body: str) -> List[Tuple[str, Optional[int]]]:
    enumerators: List[Tuple[str, Optional[int]]] = []
    next_value: Optional[int] = 0
    for entry in _split_top_level(body, ","):
        entry = entry.strip()
        if not entry:
            continue
        if "=" in entry:
            ident, _, expr = entry.partition("=")
            ident = ident.strip()
            try:
                value: Optional[int] = int(expr.strip(), 0)
            except ValueError:
                value = None
        else:
            ident, value = entry, next_value
        match = re.match(r"^[A-Za-z_]\w*$", ident.strip())
        if not match:
            continue
        enumerators.append((ident.strip(), value))
        next_value = value + 1 if value is not None else None
    return enumerators


class _Scope:
    def __init__(self, kind: str, decl=None, access: str = "public"):
        self.kind = kind  # "namespace" | "class"
        self.decl = decl
        self.access = access


def parse_text(text: str, path: str) -> Model:
    model = Model()
    raw_lines = text.split("\n")
    includes: List[Tuple[int, str]] = []
    stripped = strip_comments_and_strings(text, includes)
    model.sources[path] = SourceFile(stripped, includes)
    scopes: List[_Scope] = []
    i = 0
    head_start = 0
    pending = ""  # carried head across a consumed brace-initializer
    pending_line = 0  # line the carried head started on
    n = len(stripped)

    def class_prefix() -> str:
        names = [s.decl.name for s in scopes
                 if s.kind == "class" and s.decl is not None]
        return names[-1] + "::" if names else ""

    def innermost_class() -> Optional[_Scope]:
        for scope in reversed(scopes):
            if scope.kind == "class":
                return scope
            return None
        return None

    def apply_access_labels(head: str) -> str:
        scope = innermost_class()
        pieces = ACCESS_RE.split(head)
        if len(pieces) == 1:
            return head
        if scope is not None:
            # pieces alternate text/label/text/...; last label wins.
            scope.access = pieces[-2]
        return pieces[-1]

    def process_member_statement(statement: str, line: int,
                                 start: int, end: int) -> None:
        scope = innermost_class()
        if scope is None or scope.decl is None:
            return
        statement = apply_access_labels(statement).strip()
        if not statement:
            return
        lowered = statement + " "
        if lowered.startswith(MEMBER_SKIP_PREFIXES):
            return
        requires_free = ANNOTATION_RE.sub(" ", statement)
        if "(" in _strip_angle_groups(requires_free):
            name = _function_name(requires_free)
            if name is not None:
                scope.decl.method_names.append(name.split("::")[-1])
            return
        if re.match(r"^(struct|class|enum)\b[^=]*$", requires_free.strip()):
            return  # forward declaration
        for name in _member_names(requires_free):
            # The declarator's own line (access labels or blank lines may
            # precede it inside the same statement): last occurrence of
            # the name within the statement's source range.
            name_line = line
            hits = list(word_re(name).finditer(stripped, start, end))
            if hits:
                name_line = _line_of(stripped, hits[-1].start())
            scope.decl.members.append(Member(
                name=name, line=name_line, access=scope.access,
                transient_reason=_transient_annotation(raw_lines, name_line)))

    while i < n:
        ch = stripped[i]
        if ch == ";":
            head = pending + stripped[head_start:i]
            line = pending_line if pending else _content_line(
                stripped, head_start, i)
            pending = ""
            process_member_statement(head, line, head_start, i)
            head_start = i + 1
            i += 1
            continue
        if ch == "}":
            if scopes:
                scopes.pop()
            pending = ""
            head_start = i + 1
            i += 1
            continue
        if ch != "{":
            i += 1
            continue

        head = (pending + stripped[head_start:i]).strip()
        head_line = pending_line if pending else _content_line(
            stripped, head_start, i)
        head = apply_access_labels(head).strip()
        if head.rstrip().endswith("=") or (
                innermost_class() is not None and "(" not in
                _strip_angle_groups(ANNOTATION_RE.sub(" ", head))
                and not CLASS_HEAD_RE.search(head)
                and not ENUM_HEAD_RE.search(head)
                and not head.startswith("namespace")):
            # Brace initializer inside a declaration: consume the braces
            # and keep accumulating the same statement up to its ';'.
            close = _find_matching_brace(stripped, i)
            if not pending:
                pending_line = head_line
            pending = pending + stripped[head_start:i] + " "
            head_start = close + 1
            i = close + 1
            continue
        pending = ""

        enum_match = ENUM_HEAD_RE.search(head)
        if enum_match and "enum" in head.split():
            close = _find_matching_brace(stripped, i)
            decl = EnumDecl(
                name=class_prefix() + enum_match.group(1), file=path,
                line=head_line,
                enumerators=_parse_enum_body(
                    enum_match.group(1), stripped[i + 1:close]))
            model.add_enum(decl)
            head_start = close + 1
            i = close + 1
            continue

        if head.startswith("namespace") or head == "extern \"C\"":
            scopes.append(_Scope("namespace"))
            head_start = i + 1
            i += 1
            continue

        class_match = CLASS_HEAD_RE.search(ANNOTATION_RE.sub(" ", head))
        maybe_fn = _function_name(ANNOTATION_RE.sub(" ", head))
        if class_match and maybe_fn is None:
            decl = ClassDecl(
                name=class_prefix() + class_match.group(2), file=path,
                line=head_line, kind=class_match.group(1))
            model.add_class(decl)
            scopes.append(_Scope(
                "class", decl,
                access="public" if decl.kind == "struct" else "private"))
            head_start = i + 1
            i += 1
            continue

        if maybe_fn is not None:
            close = _find_matching_brace(stripped, i)
            qname = maybe_fn if "::" in maybe_fn else (
                class_prefix() + maybe_fn)
            scope = innermost_class()
            if scope is not None and scope.decl is not None:
                scope.decl.method_names.append(maybe_fn.split("::")[-1])
            model.add_function(FunctionDef(
                qname=qname, params=_function_params(head),
                body=stripped[i:close + 1], file=path, line=head_line,
                requires=[expr.strip()
                          for expr in REQUIRES_RE.findall(head)],
                body_start_line=_line_of(stripped, i)))
            head_start = close + 1
            i = close + 1
            continue

        # Unrecognized block (array initializer at namespace scope, ...):
        # skip it whole.
        close = _find_matching_brace(stripped, i)
        head_start = close + 1
        i = close + 1

    return model


def parse_file(path: str, virtual_path: Optional[str] = None) -> Model:
    with open(path, encoding="utf-8", errors="replace") as handle:
        return parse_text(handle.read(), virtual_path or path)
