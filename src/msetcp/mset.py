"""GAC filtering for the multiset ordering constraints X <=m Y and X <m Y.

Every propagator of the ordering derives from :class:`MultisetPair` (the two
vectors, their validation, the wake-up events and the ground ``check``), and
the three filters share one core.  :func:`_summary` is the pointer/flag scan:
from how often each value occurs in the floor of X (every ``min(X_i)``) and
in the ceiling of Y (every ``max(Y_i)``) it finds, in value space, where the
two first differ, and reads further only when the prune needs it.
:func:`_prune` then decides in constant time per variable the tight upper
bound of every ``X_i`` and the tight lower bound of every ``Y_i``.  Only
those bounds are ever touched, so a single pass reaches the generalised arc
consistent fixpoint and no pruning can wipe out a domain once disentailment
has been ruled out.  Each cut depends only on that variable's own domain
and the flags, and no variable whose max is below ``first_lt`` is cut, so the
pass visits only the others, in any order.

The filters differ only in where the counts come from.
:class:`MultisetOrdering` keeps occurrence vectors over the values renamed
onto ``0..d-1`` when attached, in time linear in the vector length plus the
number of distinct values.  :class:`SortedMultisetOrdering` keeps descending
sorted vectors and merges them into run-length counts on every call
(:func:`_runs`), as far as the scan reads, at a cost independent of the size
of the value range.
:class:`StatelessMultisetOrdering` sorts its bounds and runs the same merge
on every call and keeps nothing.

The two dedicated filters (:class:`DedicatedFilter`) set up in ``attach`` from
one snapshot of the domains, a single ``store.values`` read per variable
(:func:`_domains`): the rank map, every count vector, the sorted vectors and
the :class:`MaxIndex` of each side all derive from it, and the from-scratch
rebuilds go through the same builders.  Bound watchers then keep that state
in step with the domains, across backtracking too.
"""

from __future__ import annotations

from bisect import bisect_left, insort_left
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter, neg
from typing import Iterable, Iterator, Optional, Sequence

from .engine import Propagator, Status
from .order import Ordering, mset_cmp
from .store import EventKind, Inconsistent, Store

NO_INDEX = float("-inf")

_low, _high = itemgetter(0), itemgetter(-1)  # the bounds of a domain tuple


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
    strict constraint a tie below ``first_gt`` also counts as wrong.  The last
    three are computed only when :func:`_prune` needs them (see :func:`_summary`).
    """

    first_lt: float
    first_gt: float
    flat_between: bool
    tail_wrong: bool


def _domains(store: Store, variables: Iterable[int]) -> list[tuple[int, ...]]:
    """One read of every domain of ``variables``: the snapshot that set-up
    derives everything from."""
    return list(map(store.values, variables))


def _rank_map(domains: Iterable[Sequence[int]]) -> tuple[dict[int, int], list[int]]:
    """Order isomorphism from the union of ``domains`` onto ``0..d-1``.

    Returns the value->rank map and its inverse (the sorted distinct values).
    Renaming preserves multiset comparisons and keeps count vectors dense.
    """
    unrank = sorted(set(chain.from_iterable(domains)))
    return dict(zip(unrank, range(len(unrank)))), unrank


def _occurrence_counts(rank: dict[int, int], d: int, bounds: Iterable[int]) -> list[int]:
    """How often each rank occurs among ``bounds``."""
    counts = [0] * d
    for b in bounds:
        counts[rank[b]] += 1
    return counts


def _sorted_bounds(xmins: Iterable[int], ymaxs: Iterable[int]) -> tuple[list[int], list[int]]:
    """Every ``min(X_i)`` and every ``max(Y_i)``, each sorted descending."""
    return sorted(xmins, reverse=True), sorted(ymaxs, reverse=True)


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
    runs: Iterable[tuple[int, int, int]], strict: bool, complete: bool = False
) -> tuple[Flags, int, int, int, int]:
    """The pointer/flag scan over the floor counts of X and ceiling counts of Y.

    ``runs`` gives ``(value, X count, Y count)`` from the largest value down;
    a value that neither side holds may be left out, as it cannot change the
    lex comparison.  Returns the flags in value space and the X and Y counts
    at ``first_lt`` and at ``first_gt`` (zero at NO_INDEX).  Raises
    Inconsistent exactly when the constraint is disentailed: the X counts
    compare lex-greater (weak) or lex-greater-or-equal (strict).  Unless
    ``complete``, it reads only what :func:`_prune` uses: past ``first_lt``
    only if ``x_at_lt + 1 == y_at_lt``, below ``first_gt`` only if also flat
    between and ``x_at_gt == y_at_gt + 1``; skipped fields read as if
    ``first_gt`` were absent.
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
    if not complete and x_at_lt + 1 != y_at_lt:  # never critical
        return Flags(lt, NO_INDEX, False, False), x_at_lt, y_at_lt, 0, 0
    flat = True
    for gt, x_at_gt, y_at_gt in runs:
        if x_at_gt > y_at_gt:
            break
        if x_at_gt < y_at_gt:
            flat = False
    else:
        return Flags(lt, NO_INDEX, False, False), x_at_lt, y_at_lt, 0, 0
    tail_wrong = False
    if complete or (flat and x_at_gt == y_at_gt + 1):  # else past_gt holds anyway
        tail_wrong = strict
        for _, cx, cy in runs:
            if cx != cy:
                tail_wrong = cx > cy
                break
    return Flags(lt, gt, flat, tail_wrong), x_at_lt, y_at_lt, x_at_gt, y_at_gt


class MaxIndex:
    """The variables of one side of a filter, ordered by their current max.

    Sorted keys ``max * stride + var``, ``stride`` exceeding every variable;
    ``%`` rounds toward -inf, so negative maxima split back too.  The filter's
    bound watcher reports each max change, shrink or restore, to :meth:`moved`.
    """

    __slots__ = ("keys", "stride")

    def __init__(self, variables: Sequence[int], domains: Iterable[Sequence[int]]) -> None:
        """Index ``variables`` by the upper bounds of ``domains``, their
        domains in the same order."""
        self.stride = stride = max(variables, default=0) + 1
        self.keys = sorted([dom[-1] * stride + v for v, dom in zip(variables, domains)])

    def moved(self, var: int, old_max: int, new_max: int) -> None:
        keys, stride = self.keys, self.stride
        del keys[bisect_left(keys, old_max * stride + var)]
        insort_left(keys, new_max * stride + var)

    def reaching(self, bound: float) -> list[int]:
        """The variables whose max is at least ``bound``: all at NO_INDEX."""
        keys, stride = self.keys, self.stride
        return [k % stride for k in keys[bisect_left(keys, bound * stride) :]]


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
    """Tighten max(X_i) and min(Y_i) to their supported values.

    Takes what :func:`_summary` returns and, per side, the candidates: any
    order of at least every variable whose max reaches ``first_lt`` (all of
    them at NO_INDEX), as no other variable is cut.  Domain bounds are
    compared with the flag values directly; "below ``first_lt``" is
    ``first_lt - 1`` and "above ``first_gt``" is ``first_gt + 1``, which cut
    exactly where the neighbouring counted values would, as the domains are
    integers.
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


class DedicatedFilter(MultisetPair):
    """What the two dedicated filters share: state set up in ``attach`` from
    one read of every domain and kept in step by bound watchers.

    ``attach`` takes the snapshot, hands it to :meth:`_set_up` for the
    filter's own vectors, builds a :class:`MaxIndex` per side from it and
    watches every variable once, X with ``_x_bounds_changed`` and Y with
    ``_y_bounds_changed``, which each filter defines.
    """

    def __init__(self, xs: Sequence[int], ys: Sequence[int], strict: bool = False) -> None:
        super().__init__(xs, ys, strict)
        self.last_flags: Optional[Flags] = None
        self.xmax_index: Optional[MaxIndex] = None
        self.ymax_index: Optional[MaxIndex] = None

    def attach(self, store: Store) -> None:
        xs, ys = self.xs, self.ys
        xdoms, ydoms = _domains(store, xs), _domains(store, ys)
        self._set_up(xdoms, ydoms)
        self.xmax_index, self.ymax_index = MaxIndex(xs, xdoms), MaxIndex(ys, ydoms)
        # one bound method per side, not one per variable
        watch = store.watch_bounds
        cb = self._x_bounds_changed
        for x in xs:
            watch(x, cb)
        cb = self._y_bounds_changed
        for y in ys:
            watch(y, cb)

    def _set_up(self, xdoms: list[tuple[int, ...]], ydoms: list[tuple[int, ...]]) -> None:
        """Build the filter's own vectors from the snapshot."""
        raise NotImplementedError


class MultisetOrdering(DedicatedFilter):
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
        self._rank: dict[int, int] = {}
        self._unrank: list[int] = []

    # -- setup ----------------------------------------------------------------

    def _set_up(self, xdoms: list[tuple[int, ...]], ydoms: list[tuple[int, ...]]) -> None:
        self._rank, self._unrank = _rank_map(chain(xdoms, ydoms))
        counts = self._counts(xdoms, ydoms)
        self.xmin_counts, self.ymax_counts = counts[0], counts[1]
        if self.track_entailment:
            self.xmax_counts, self.ymin_counts = counts[2], counts[3]

    # -- incremental maintenance -----------------------------------------------

    def _x_bounds_changed(self, var, old_min, old_max, new_min, new_max) -> None:
        rank = self._rank
        if new_min != old_min:
            c = self.xmin_counts
            c[rank[new_min]] += 1
            c[rank[old_min]] -= 1
        if new_max != old_max:
            self.xmax_index.moved(var, old_max, new_max)
            c = self.xmax_counts
            if c is not None:
                c[rank[new_max]] += 1
                c[rank[old_max]] -= 1

    def _y_bounds_changed(self, var, old_min, old_max, new_min, new_max) -> None:
        rank = self._rank
        if new_max != old_max:
            self.ymax_index.moved(var, old_max, new_max)
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
        return self._counts(_domains(store, self.xs), _domains(store, self.ys))

    def _counts(
        self, xdoms: list[tuple[int, ...]], ydoms: list[tuple[int, ...]]
    ) -> tuple[list[int], ...]:
        """The count vectors over the rank map, from one domain snapshot."""
        rank, d = self._rank, len(self._unrank)
        counts = (
            _occurrence_counts(rank, d, map(_low, xdoms)),
            _occurrence_counts(rank, d, map(_high, ydoms)),
        )
        if not self.track_entailment:
            return counts
        return counts + (
            _occurrence_counts(rank, d, map(_high, xdoms)),
            _occurrence_counts(rank, d, map(_low, ydoms)),
        )

    # -- filtering --------------------------------------------------------------

    @property
    def entailed(self) -> bool:
        """Whether every completion of the current domains satisfies the
        ordering; only tracked (and only true) with ``entailment=True``, once
        attached.  Compares the incrementally kept occurrence vectors of
        ``max(X_i)`` and ``min(Y_i)``, so it follows the domains across
        backtracking, as the counts do."""
        xc, yc = self.xmax_counts, self.ymin_counts
        if xc is None:
            return False
        i = len(xc) - 1
        while i >= 0 and xc[i] == yc[i]:
            i -= 1
        if i < 0:
            return not self.strict
        return xc[i] < yc[i]

    def propagate(self, store: Store) -> Status:
        if self.entailed:
            return Status.ENTAILED
        runs = zip(reversed(self._unrank), reversed(self.xmin_counts), reversed(self.ymax_counts))
        fl, *counts = _summary(runs, self.strict)
        lt = fl.first_lt
        _prune(store, self.xmax_index.reaching(lt), self.ymax_index.reaching(lt), fl, *counts)
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
        runs = _runs(*_sorted_bounds(map(store.min, xs), map(store.max, ys)))
        _prune(store, xs, ys, *_summary(runs, self.strict))
        return Status.ACTIVE


class SortedMultisetOrdering(DedicatedFilter):
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

    def _set_up(self, xdoms: list[tuple[int, ...]], ydoms: list[tuple[int, ...]]) -> None:
        self.xmin_sorted, self.ymax_sorted = _sorted_bounds(map(_low, xdoms), map(_high, ydoms))

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
        if new_max != old_max:
            self.xmax_index.moved(var, old_max, new_max)

    def _y_bounds_changed(self, var, old_min, old_max, new_min, new_max) -> None:
        if new_max != old_max:
            self._replace(self.ymax_sorted, old_max, new_max)
            self.ymax_index.moved(var, old_max, new_max)

    def rebuilt_sorted(self, store: Store) -> tuple[list[int], list[int]]:
        """Sorted vectors recomputed from scratch (reference for the
        incrementally maintained ones)."""
        return _sorted_bounds(map(store.min, self.xs), map(store.max, self.ys))

    # -- filtering ----------------------------------------------------------------

    def flags(self) -> tuple[Flags, int, int, int, int]:
        """Complete pointer/flag summary plus the four counts, from the sorted
        vectors."""
        return _summary(_runs(self.xmin_sorted, self.ymax_sorted), self.strict, complete=True)

    def propagate(self, store: Store) -> Status:
        fl, *counts = _summary(_runs(self.xmin_sorted, self.ymax_sorted), self.strict)
        lt = fl.first_lt
        _prune(store, self.xmax_index.reaching(lt), self.ymax_index.reaching(lt), fl, *counts)
        self.last_flags = fl
        return Status.ACTIVE
