"""GAC filtering for the multiset ordering constraints X <=m Y and X <m Y.

Every propagator of the ordering derives from :class:`MultisetPair` (the two
vectors, their validation, the wake-up events and the ground ``check``), and
the three filters share one core.  :func:`_summary` is the pointer/flag scan:
from how often each value occurs in the floor of X (every ``min(X_i)``) and
in the ceiling of Y (every ``max(Y_i)``) it finds, in value space, where the
two first differ.  :func:`_prune` then decides in constant time per variable
the tight upper bound of every ``X_i`` and the tight lower bound of every
``Y_i``.  Only those bounds are ever touched, so a single pass reaches the
generalised arc consistent fixpoint and no pruning can wipe out a domain
once disentailment has been ruled out.

The filters differ only in where the counts come from.
:class:`MultisetOrdering` keeps occurrence vectors over the values renamed
onto ``0..d-1`` when attached, in time linear in the vector length plus the
number of distinct values.  :class:`SortedMultisetOrdering` keeps descending
sorted vectors and merges them into run-length counts on every call
(:func:`_runs`), as far as the scan reads, at a cost independent of the size
of the value range.
:class:`StatelessMultisetOrdering` sorts its bounds and runs the same merge
on every call and keeps nothing.  The two dedicated filters set up their
vectors in ``attach`` and keep them in step through bound watchers, across
backtracking too.
"""

from __future__ import annotations

from bisect import bisect_left, insort_left
from dataclasses import dataclass
from operator import neg
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .engine import Propagator, Status
from .order import Ordering, mset_cmp
from .store import EventKind, Inconsistent, Store

NO_INDEX = float("-inf")


@dataclass(frozen=True)
class Flags:
    """Pointer/flag summary of the floor of X against the ceiling of Y.

    Both pointers are values.  ``first_lt``: the largest value whose count
    among the ``min(X_i)`` is below its count among the ``max(Y_i)``, every
    larger value being counted equally (NO_INDEX when the two multisets are
    equal).  ``first_gt``: the largest value below ``first_lt`` counted more
    often on the X side (NO_INDEX when absent).  ``flat_between``: whether the
    counts agree at every value strictly between the two.  ``tail_wrong``:
    whether the counts below ``first_gt`` compare the wrong way; under the
    strict constraint a tie below ``first_gt`` also counts as wrong.
    """

    first_lt: float
    first_gt: float
    flat_between: bool
    tail_wrong: bool


def _rank_map(store: Store, variables: Iterable[int]) -> tuple[dict[int, int], list[int]]:
    """Order isomorphism from the union of the domains onto ``0..d-1``.

    Returns the value->rank map and its inverse (the sorted distinct values).
    Renaming preserves multiset comparisons and keeps count vectors dense.
    """
    values: set[int] = set()
    for v in variables:
        values.update(store.values(v))
    unrank = sorted(values)
    return {v: r for r, v in enumerate(unrank)}, unrank


def _occurrence_counts(
    rank: dict[int, int], d: int, bound: Callable[[int], int], variables: Iterable[int]
) -> list[int]:
    """How often each rank occurs among the ``bound`` (a store's ``min`` or
    ``max``) of ``variables``."""
    counts = [0] * d
    for v in variables:
        counts[rank[bound(v)]] += 1
    return counts


def _sorted_bounds(
    store: Store, xs: Sequence[int], ys: Sequence[int]
) -> tuple[list[int], list[int]]:
    """Every ``min(X_i)`` and every ``max(Y_i)``, each sorted descending."""
    return sorted(map(store.min, xs), reverse=True), sorted(map(store.max, ys), reverse=True)


def _runs(sx: Sequence[int], sy: Sequence[int]) -> Iterator[tuple[int, int, int]]:
    """Run-length counts of two descending sorted vectors, for :func:`_summary`.

    Yields ``(value, count in sx, count in sy)`` for each distinct value,
    largest first, merging only as far as the caller reads.
    """
    i = j = 0
    nx, ny = len(sx), len(sy)
    while i < nx or j < ny:
        v = sx[i] if j == ny or (i < nx and sx[i] > sy[j]) else sy[j]
        top = i
        while i < nx and sx[i] == v:
            i += 1
        cx = i - top
        top = j
        while j < ny and sy[j] == v:
            j += 1
        yield v, cx, j - top


def _summary(
    runs: Iterable[tuple[int, int, int]], strict: bool
) -> tuple[Flags, int, int, int, int]:
    """The pointer/flag scan over the floor counts of X and ceiling counts of Y.

    ``runs`` gives ``(value, X count, Y count)`` from the largest value down;
    a value that neither side holds may be left out, as it cannot change the
    lex comparison, and the scan reads only as far as it needs.  Returns the
    flags in value space and the X and Y counts at ``first_lt`` and at
    ``first_gt`` (zero at NO_INDEX).  Raises Inconsistent exactly when the
    constraint is disentailed: the X counts compare lex-greater (weak) or
    lex-greater-or-equal (strict).
    """
    runs = iter(runs)
    for lt, x_at_lt, y_at_lt in runs:
        if x_at_lt != y_at_lt:
            break
    else:
        if strict:
            raise Inconsistent("multiset ordering: equal bounds forbid strict order")
        return Flags(NO_INDEX, NO_INDEX, False, False), 0, 0, 0, 0
    if x_at_lt > y_at_lt:
        raise Inconsistent("multiset ordering disentailed")
    flat = True
    for gt, x_at_gt, y_at_gt in runs:
        if x_at_gt > y_at_gt:
            break
        if x_at_gt < y_at_gt:
            flat = False
    else:
        return Flags(lt, NO_INDEX, False, False), x_at_lt, y_at_lt, 0, 0
    tail_wrong = strict
    for _, cx, cy in runs:
        if cx != cy:
            tail_wrong = cx > cy
            break
    return Flags(lt, gt, flat, tail_wrong), x_at_lt, y_at_lt, x_at_gt, y_at_gt


def _prune(
    store: Store,
    xs: Sequence[int],
    ys: Sequence[int],
    fl: Flags,
    x_at_lt: int,
    y_at_lt: int,
    x_at_gt: int,
    y_at_gt: int,
) -> None:
    """Tighten max(X_i) and min(Y_i) for every i to their supported values.

    Takes what :func:`_summary` returns.  Domain bounds are compared with the
    flag values directly; "below ``first_lt``" is ``first_lt - 1`` and
    "above ``first_gt``" is ``first_gt + 1``, which cut exactly where the
    neighbouring counted values would, as the domains are integers.
    """
    lt, gt = fl.first_lt, fl.first_gt
    critical = fl.flat_between and x_at_lt + 1 == y_at_lt
    # whether one unit less of the X surplus at first_gt still leaves the X
    # counts ahead from first_gt down
    past_gt = fl.tail_wrong or x_at_gt != y_at_gt + 1
    for x in xs:
        vals = store.values(x)
        mn = vals[0]
        if mn == vals[-1]:
            continue
        if mn >= lt:
            store.set_max(x, mn)
        elif vals[-1] >= lt:
            if critical and (mn < gt or (mn == gt and past_gt)):
                store.set_max(x, lt - 1)
            else:
                store.set_max(x, lt)
    for y in ys:
        vals = store.values(y)
        mx = vals[-1]
        if vals[0] == mx:
            continue
        if mx > lt:
            store.set_min(y, mx)
        elif critical and mx == lt and vals[0] <= gt:
            store.set_min(y, gt + 1 if past_gt else gt)


class MultisetPair(Propagator):
    """What every propagator of ``{{X}} <=m {{Y}}`` (``<m`` with strict) shares.

    Holds the two vectors, which must consist of distinct variables, wakes on
    the bound changes that decide support (``min(X_i)`` and ``max(Y_i)``) and
    tests ground assignments.  Not a filter by itself.
    """

    def __init__(self, xs: Sequence[int], ys: Sequence[int], strict: bool = False) -> None:
        if len(set(xs)) != len(xs) or len(set(ys)) != len(ys):
            raise ValueError("vector contains a repeated variable")
        if set(xs) & set(ys):
            raise ValueError("the two vectors must not share variables")
        self.xs = list(xs)
        self.ys = list(ys)
        self.strict = strict

    def subscriptions(self):
        for x in self.xs:
            yield x, EventKind.MIN_CHANGED
        for y in self.ys:
            yield y, EventKind.MAX_CHANGED

    def check(self, values: Sequence[int]) -> bool:
        cmp = mset_cmp((values[x] for x in self.xs), (values[y] for y in self.ys))
        if self.strict:
            return cmp is Ordering.LESS
        return cmp is not Ordering.GREATER


class MultisetOrdering(MultisetPair):
    """Occurrence-vector filter for ``{{X}} <=m {{Y}}`` (``<m`` with strict).

    Domain values are renamed once, when attached, onto the contiguous range
    ``0..d-1`` so the count vectors stay dense.  With ``entailment=True`` a
    second pair of occurrence vectors (over ``max(X_i)`` and ``min(Y_i)``) is
    maintained and the filter detects when every remaining completion
    satisfies the constraint, reporting ENTAILED and skipping further work on
    that branch.  The vectors may have different lengths.
    """

    def __init__(
        self,
        xs: Sequence[int],
        ys: Sequence[int],
        strict: bool = False,
        entailment: bool = False,
    ) -> None:
        super().__init__(xs, ys, strict)
        self.track_entailment = entailment
        self.xmin_counts: list[int] = []
        self.ymax_counts: list[int] = []
        self.xmax_counts: Optional[list[int]] = None
        self.ymin_counts: Optional[list[int]] = None
        self.last_flags: Optional[Flags] = None
        self._rank: dict[int, int] = {}
        self._unrank: list[int] = []

    # -- setup ----------------------------------------------------------------

    def attach(self, store: Store) -> None:
        self._rank, self._unrank = _rank_map(store, self.xs + self.ys)
        counts = self.rebuilt_counts(store)
        self.xmin_counts, self.ymax_counts = counts[0], counts[1]
        if self.track_entailment:
            self.xmax_counts, self.ymin_counts = counts[2], counts[3]
        for x in self.xs:
            store.watch_bounds(x, self._x_bounds_changed)
        for y in self.ys:
            store.watch_bounds(y, self._y_bounds_changed)

    # -- incremental maintenance -----------------------------------------------

    def _x_bounds_changed(self, var, old_min, old_max, new_min, new_max) -> None:
        rank = self._rank
        if new_min != old_min:
            c = self.xmin_counts
            c[rank[new_min]] += 1
            c[rank[old_min]] -= 1
        if self.xmax_counts is not None and new_max != old_max:
            c = self.xmax_counts
            c[rank[new_max]] += 1
            c[rank[old_max]] -= 1

    def _y_bounds_changed(self, var, old_min, old_max, new_min, new_max) -> None:
        rank = self._rank
        if new_max != old_max:
            c = self.ymax_counts
            c[rank[new_max]] += 1
            c[rank[old_max]] -= 1
        if self.ymin_counts is not None and new_min != old_min:
            c = self.ymin_counts
            c[rank[new_min]] += 1
            c[rank[old_min]] -= 1

    def rebuilt_counts(self, store: Store) -> tuple[list[int], ...]:
        """Count vectors recomputed from scratch (reference for the
        incrementally maintained ones)."""
        rank, d = self._rank, len(self._unrank)
        counts = (
            _occurrence_counts(rank, d, store.min, self.xs),
            _occurrence_counts(rank, d, store.max, self.ys),
        )
        if not self.track_entailment:
            return counts
        return counts + (
            _occurrence_counts(rank, d, store.max, self.xs),
            _occurrence_counts(rank, d, store.min, self.ys),
        )

    # -- filtering --------------------------------------------------------------

    def entailment_holds(self) -> bool:
        """Incremental-count version of the entailment test: compares the
        occurrence vectors of ``max(X_i)`` and ``min(Y_i)``."""
        xc, yc = self.xmax_counts, self.ymin_counts
        i = len(xc) - 1
        while i >= 0 and xc[i] == yc[i]:
            i -= 1
        if i < 0:
            return not self.strict
        return xc[i] < yc[i]

    @property
    def entailed(self) -> bool:
        """Whether every completion of the current domains satisfies the
        ordering; only tracked (and only true) with ``entailment=True``, once
        attached.  Follows the domains across backtracking, as the counts do."""
        return self.xmax_counts is not None and self.entailment_holds()

    def propagate(self, store: Store) -> Status:
        if self.entailed:
            return Status.ENTAILED
        runs = zip(reversed(self._unrank), reversed(self.xmin_counts), reversed(self.ymax_counts))
        fl, *counts = _summary(runs, self.strict)
        _prune(store, self.xs, self.ys, fl, *counts)
        self.last_flags = fl
        return Status.ENTAILED if self.entailed else Status.ACTIVE


class StatelessMultisetOrdering(MultisetPair):
    """Filter that sorts its bounds afresh on every call.

    Prunes exactly like :class:`MultisetOrdering` but keeps no state; the
    benchmark's conditional orderings use it as their
    :class:`~msetcp.constraints.Conditional` body.  Each call sorts
    ``min(X_i)`` and ``max(Y_i)`` and merges them into run-length counts, as
    :class:`SortedMultisetOrdering` does with its kept vectors.
    """

    def propagate(self, store: Store) -> Status:
        xs, ys = self.xs, self.ys
        runs = _runs(*_sorted_bounds(store, xs, ys))
        _prune(store, xs, ys, *_summary(runs, self.strict))
        return Status.ACTIVE


class SortedMultisetOrdering(MultisetPair):
    """Sorted-vector filter for ``{{X}} <=m {{Y}}`` (``<m`` with strict).

    Keeps ``min(X_i)`` and ``max(Y_i)`` as descending sorted vectors and
    merges them on every call, as far as the shared scan reads, into
    run-length counts over the values they hold, so a call costs time linear
    in the vector length, independent of the size of the value range, and no
    per-value count array is ever kept.  Bound changes are folded in by
    binary-search remove/insert.  The vectors may have different lengths.
    """

    def __init__(self, xs: Sequence[int], ys: Sequence[int], strict: bool = False) -> None:
        super().__init__(xs, ys, strict)
        self.xmin_sorted: list[int] = []
        self.ymax_sorted: list[int] = []
        self.last_flags: Optional[Flags] = None

    def attach(self, store: Store) -> None:
        self.xmin_sorted, self.ymax_sorted = self.rebuilt_sorted(store)
        for x in self.xs:
            store.watch_bounds(x, self._x_bounds_changed)
        for y in self.ys:
            store.watch_bounds(y, self._y_bounds_changed)

    # -- incremental maintenance -------------------------------------------------

    @staticmethod
    def _replace(lst: list[int], old: int, new: int) -> None:
        i = bisect_left(lst, -old, key=neg)
        assert lst[i] == old, "stale sorted vector"
        del lst[i]
        insort_left(lst, new, key=neg)

    def _x_bounds_changed(self, var, old_min, old_max, new_min, new_max) -> None:
        if new_min != old_min:
            self._replace(self.xmin_sorted, old_min, new_min)

    def _y_bounds_changed(self, var, old_min, old_max, new_min, new_max) -> None:
        if new_max != old_max:
            self._replace(self.ymax_sorted, old_max, new_max)

    def rebuilt_sorted(self, store: Store) -> tuple[list[int], list[int]]:
        return _sorted_bounds(store, self.xs, self.ys)

    # -- filtering ----------------------------------------------------------------

    def flags(self) -> tuple[Flags, int, int, int, int]:
        """Pointer/flag summary plus the four counts, from the sorted vectors."""
        return _summary(_runs(self.xmin_sorted, self.ymax_sorted), self.strict)

    def propagate(self, store: Store) -> Status:
        fl, *counts = self.flags()
        _prune(store, self.xs, self.ys, fl, *counts)
        self.last_flags = fl
        return Status.ACTIVE
