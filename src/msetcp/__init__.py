"""Finite-domain constraint propagation around the multiset ordering constraint.

The package bundles a small trailed domain store, GAC filters for the multiset
ordering constraint (occurrence-vector and sorted-vector variants, weak and
strict, with optional entailment detection), the alternative encodings used to
benchmark them, a brute-force oracle for differential testing, a depth-first
search engine with branch and bound, and a benchmark CLI (``bench``).
"""

from .engine import (
    Branching,
    Model,
    Propagator,
    SearchStats,
    SearchTimeout,
    Solver,
    Status,
    ascending,
    descending,
    propagate_to_fixpoint,
    solve_first,
    solve_optimal,
)
from .mset import MultisetOrdering, SortedMultisetOrdering
from .order import Ordering, lex_cmp, mset_cmp, sort_desc
from .store import EventKind, Inconsistent, Store

__all__ = [
    "Branching",
    "EventKind",
    "Inconsistent",
    "Model",
    "MultisetOrdering",
    "Ordering",
    "Propagator",
    "SearchStats",
    "SearchTimeout",
    "Solver",
    "SortedMultisetOrdering",
    "Status",
    "Store",
    "ascending",
    "descending",
    "lex_cmp",
    "mset_cmp",
    "propagate_to_fixpoint",
    "solve_first",
    "solve_optimal",
    "sort_desc",
]
