"""Ground-vector comparisons: lexicographic and multiset orderings.

Vectors are plain sequences of ints, index 0 most significant.
"""

from __future__ import annotations

from enum import IntEnum
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
