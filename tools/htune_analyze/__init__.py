"""htune_analyze: compile-commands-driven static invariant analysis.

Four whole-tree checks (see DESIGN.md §14):
  snapshot  — every non-static data member of a state-bearing class is
              referenced by both its capture and restore codec paths, or
              carries an explicit HTUNE_TRANSIENT annotation.
  lock      — the nested-lock acquisition graph is acyclic and every
              observed edge is declared in lock_order.toml.
  schema    — every enumerator of the serialized enums is handled on all
              of its encode and decode dispatch surfaces.
  source    — the determinism, locking and lifecycle rules hold in the
              comment-stripped source text (no wall clock, no raw
              mutex, no node map in a market engine, ...).

Declarations come from `clang -Xclang -ast-dump=json` per translation unit
when a compile database and clang are available (astdump.py, cached by
compiler+file hash), with a tolerant in-repo declaration parser
(declparse.py) as the always-available fallback.
"""
