"""Lock-order safety check.

Walks every function body and extracts nested acquisitions of the
annotated `MutexLock`/`WriterMutexLock`/`ReaderMutexLock` RAII wrappers
(src/common/mutex.h). A scope stack models lexical lifetime: a guard is
held from its declaration to the end of its enclosing brace scope, so
  { MutexLock a(mu_); { MutexLock b(other_); ... } }
observes the edge mu_ → other_, while two sibling scopes observe none.
Functions annotated HTUNE_REQUIRES(mu) are walked with mu already held.

Lock nodes are `Class::expr` (the owning class of the method, with
`this->` and whitespace normalized away), so `mu_` inside
LatencyKernelCache methods and `mu_` inside FleetSupervisor methods
never alias.

Two rules, both against the checked-in lock_order.toml:
  1. every observed edge must be declared — a new nested acquisition is
     a reviewed event, not an accident;
  2. the union of observed and declared edges must be acyclic — a
     declared-but-reversed pair still fails.
"""

from __future__ import annotations

import re
from typing import Dict, List, Set, Tuple

from model import Finding, FunctionDef, Model

LOCK_RE = re.compile(
    r"\b(MutexLock|WriterMutexLock|ReaderMutexLock)\s+\w+\s*\(([^()]*)\)")


def _normalize(expr: str, owner: str) -> str:
    expr = expr.split(",")[0]  # MutexLock(mu, defer) style: first arg
    expr = re.sub(r"\s+", "", expr)
    expr = expr.replace("this->", "")
    expr = expr.lstrip("&*")
    if owner and "::" not in expr:
        return f"{owner}::{expr}"
    return expr


def _owner_of(fn: FunctionDef) -> str:
    return fn.qname.rsplit("::", 1)[0] if "::" in fn.qname else ""


def _walk_function(fn: FunctionDef,
                   edges: Dict[Tuple[str, str], Tuple[str, int]]) -> None:
    owner = _owner_of(fn)
    held: List[Tuple[int, str]] = [
        (-1, _normalize(expr, owner)) for expr in fn.requires]
    body = fn.body
    depth = 0
    pos = 0
    matches = list(LOCK_RE.finditer(body))
    next_match = 0
    while pos < len(body):
        if next_match < len(matches) and matches[next_match].start() == pos:
            match = matches[next_match]
            next_match += 1
            node = _normalize(match.group(2), owner)
            line = fn.body_start_line + body.count("\n", 0, match.start())
            for _, outer in held:
                if outer != node:
                    edges.setdefault((outer, node), (fn.file, line))
            held.append((depth, node))
            pos = match.end()
            continue
        ch = body[pos]
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            while held and held[-1][0] >= depth:
                held.pop()
        pos += 1


def _find_cycle(edges: Set[Tuple[str, str]]) -> List[str]:
    graph: Dict[str, List[str]] = {}
    for src, dst in sorted(edges):
        graph.setdefault(src, []).append(dst)
    state: Dict[str, int] = {}  # 1 = on stack, 2 = done
    stack: List[str] = []

    def visit(node: str) -> List[str]:
        state[node] = 1
        stack.append(node)
        for nxt in graph.get(node, []):
            if state.get(nxt) == 1:
                return stack[stack.index(nxt):] + [nxt]
            if nxt not in state:
                cycle = visit(nxt)
                if cycle:
                    return cycle
        stack.pop()
        state[node] = 2
        return []

    for node in sorted(graph):
        if node not in state:
            cycle = visit(node)
            if cycle:
                return cycle
    return []


def run(model: Model, lock_order: dict) -> List[Finding]:
    declared: Set[Tuple[str, str]] = set()
    for entry in lock_order.get("edge", []):
        declared.add((entry.get("from", ""), entry.get("to", "")))

    observed: Dict[Tuple[str, str], Tuple[str, int]] = {}
    for fns in model.functions.values():
        for fn in fns:
            _walk_function(fn, observed)

    findings = []
    for edge in sorted(observed):
        if edge not in declared:
            file, line = observed[edge]
            findings.append(Finding(
                "lock", file, line,
                f"nested acquisition {edge[0]} -> {edge[1]} is not "
                f"declared in lock_order.toml; review the ordering and "
                f"add an [[edge]] entry"))

    cycle = _find_cycle(set(observed) | declared)
    if cycle:
        first = cycle[0]
        site = observed.get((cycle[0], cycle[1]))
        file, line = site if site else ("lock_order.toml", 0)
        findings.append(Finding(
            "lock", file, line,
            "lock acquisition cycle: " + " -> ".join(cycle)))
    return findings
