"""Ground-vector comparisons: lexicographic and multiset orderings.

Vectors are plain sequences of ints, index 0 most significant.  The rank map
renames a set of values onto ``0..d-1`` in order, which preserves both
orderings; the counting filters index their count vectors by it.
"""

from __future__ import annotations

from enum import IntEnum
from itertools import chain
from typing import Iterable, Sequence


class Ordering(IntEnum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


def lex_cmp(a: Sequence[int], b: Sequence[int]) -> Ordering:
    """Lexicographic comparison of two equal-length integer vectors."""
    if len(a) != len(b):
        raise ValueError(f"lex_cmp on different lengths: {len(a)} vs {len(b)}")
    for x, y in zip(a, b):
        if x != y:
            return Ordering.LESS if x < y else Ordering.GREATER
    return Ordering.EQUAL


def sort_desc(xs: Iterable[int]) -> tuple[int, ...]:
    """Values of ``xs`` in non-increasing order."""
    return tuple(sorted(xs, reverse=True))


def mset_cmp(a: Iterable[int], b: Iterable[int]) -> Ordering:
    """Compare two multisets (given as any iterables of ints).

    Recursively: the empty multiset precedes any non-empty one; otherwise the
    larger maximum wins; on equal maxima, drop one occurrence from each side
    and recurse.  Equal multisets compare EQUAL.  Implemented as a walk over
    the descending sorts, where running out of elements first means smaller.
    """
    sa = sorted(a, reverse=True)
    sb = sorted(b, reverse=True)
    for x, y in zip(sa, sb):
        if x != y:
            return Ordering.LESS if x < y else Ordering.GREATER
    if len(sa) == len(sb):
        return Ordering.EQUAL
    return Ordering.LESS if len(sa) < len(sb) else Ordering.GREATER


def rank_map(domains: Iterable[Sequence[int]]) -> tuple[dict[int, int], list[int]]:
    """Order isomorphism from the union of ``domains`` onto ``0..d-1``.

    Returns the value->rank map and its inverse (the sorted distinct values).
    Renaming preserves multiset comparisons and keeps count vectors dense.
    """
    unrank = sorted(set(chain.from_iterable(domains)))
    return dict(zip(unrank, range(len(unrank)))), unrank
