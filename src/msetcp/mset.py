"""GAC filtering for the multiset ordering constraints X <=m Y and X <m Y.

Every propagator of the ordering derives from :class:`MultisetPair` (the two
vectors, their validation, the wake-up events and the ground ``check``), and
the filters share one core: a pointer/flag summary of how the floor of X
(every ``min(X_i)``) compares with the ceiling of Y (every ``max(Y_i)``),
then one pass, :func:`_prune`, that decides in constant time per variable the
tight upper bound of every ``X_i`` and the tight lower bound of every ``Y_i``.
Only those bounds are ever touched, so a single pass reaches the generalised
arc consistent fixpoint and no pruning can wipe out a domain once
disentailment has been ruled out.

:class:`MultisetOrdering` takes the summary from occurrence vectors over the
values renamed onto ``0..d-1``, in time linear in the vector length plus the
number of distinct values; :class:`StatelessMultisetOrdering` runs the same
pass on vectors rebuilt at every call, which suits conditional bodies.
:class:`SortedMultisetOrdering` takes it from descending sorted vectors, at a
cost independent of the size of the value range.  The two dedicated filters
keep their vectors in step through bound watchers, across backtracking too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .engine import Propagator, Status
from .order import Ordering, mset_cmp
from .store import EventKind, Inconsistent, Store

NO_INDEX = float("-inf")


@dataclass(frozen=True)
class Flags:
    """Summary of the lex relation between the two maintained count vectors.

    ``first_lt``: most significant value index where the X-side count is below
    the Y-side count, everything above being pairwise equal (NO_INDEX when the
    vectors are equal).  ``first_gt``: most significant index below
    ``first_lt`` where the X-side count exceeds the Y-side one, with no
    X-above-Y index in between (NO_INDEX when absent).  ``flat_between``:
    whether the counts agree at every index strictly between the two.
    ``tail_wrong``: whether the counts below ``first_gt`` compare the wrong
    way; under the strict constraint a tie below ``first_gt`` (or ``first_gt``
    sitting at the bottom of the range) also counts as wrong.
    """

    first_lt: float
    first_gt: float
    flat_between: bool
    tail_wrong: bool


class _IdentityMap:
    def __getitem__(self, v: int) -> int:
        return v


_IDENTITY = _IdentityMap()


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


def _occ_flags(xc: Sequence[int], yc: Sequence[int], strict: bool) -> Flags:
    """Pointer/flag scan over two count vectors indexed by value rank.

    Raises Inconsistent exactly when the constraint is disentailed: the X
    counts compare lex-greater (weak) or lex-greater-or-equal (strict).
    """
    i = len(xc) - 1
    while i >= 0 and xc[i] == yc[i]:
        i -= 1
    if i < 0:
        if strict:
            raise Inconsistent("multiset ordering: equal bounds forbid strict order")
        return Flags(NO_INDEX, NO_INDEX, False, False)
    if xc[i] > yc[i]:
        raise Inconsistent("multiset ordering disentailed")
    first_lt = i
    flat = True
    j = i - 1
    while j >= 0 and xc[j] <= yc[j]:
        if xc[j] < yc[j]:
            flat = False
        j -= 1
    first_gt = j if j >= 0 else NO_INDEX
    flat_between = first_gt is not NO_INDEX and flat
    if first_gt is NO_INDEX:
        tail_wrong = False
    elif not strict:
        k = first_gt - 1
        while k >= 0 and xc[k] == yc[k]:
            k -= 1
        tail_wrong = k >= 0 and xc[k] > yc[k]
    else:
        if first_gt == 0:
            tail_wrong = True
        else:
            k = first_gt - 1
            while k >= 0 and xc[k] == yc[k]:
                k -= 1
            tail_wrong = k < 0 or xc[k] > yc[k]
    return Flags(first_lt, first_gt, flat_between, tail_wrong)


def _prune(
    store: Store,
    xs: Sequence[int],
    ys: Sequence[int],
    fl: Flags,
    x_at_lt: int,
    y_at_lt: int,
    x_at_gt: int,
    y_at_gt: int,
    rank,
    unrank,
) -> None:
    """Tighten max(X_i) and min(Y_i) for every i to their supported values.

    ``x_at_lt`` and the other three are the floor and ceiling counts at the
    two flag positions; ``rank``/``unrank`` map values to flag positions.
    """
    lt, gt = fl.first_lt, fl.first_gt
    critical = fl.flat_between and x_at_lt + 1 == y_at_lt
    for x in xs:
        vals = store.values(x)
        mn = vals[0]
        if mn == vals[-1]:
            continue
        rmn = rank[mn]
        if rmn >= lt:
            store.set_max(x, mn)
            continue
        if rank[vals[-1]] >= lt:
            store.set_max(x, unrank[lt])
            if critical:
                if rmn == gt:
                    if x_at_gt == y_at_gt + 1:
                        if fl.tail_wrong:
                            store.set_max(x, unrank[lt - 1])
                    else:
                        store.set_max(x, unrank[lt - 1])
                elif rmn < gt:
                    store.set_max(x, unrank[lt - 1])
    for y in ys:
        vals = store.values(y)
        mx = vals[-1]
        if vals[0] == mx:
            continue
        rmx = rank[mx]
        if rmx > lt:
            store.set_min(y, mx)
            continue
        if rmx == lt and rank[vals[0]] <= gt:
            if critical:
                store.set_min(y, unrank[gt])
                if x_at_gt == y_at_gt + 1:
                    if fl.tail_wrong:
                        store.set_min(y, unrank[gt + 1])
                else:
                    store.set_min(y, unrank[gt + 1])


def _filter_counts(
    store: Store,
    xs: Sequence[int],
    ys: Sequence[int],
    xc: Sequence[int],
    yc: Sequence[int],
    strict: bool,
    rank,
    unrank,
) -> Flags:
    """One GAC pass from the floor counts ``xc`` and ceiling counts ``yc``.

    Returns the flags in rank space; raises Inconsistent on disentailment.
    """
    fl = _occ_flags(xc, yc, strict)
    lt, gt = fl.first_lt, fl.first_gt
    x_at_lt = xc[lt] if lt is not NO_INDEX else 0
    y_at_lt = yc[lt] if lt is not NO_INDEX else 0
    x_at_gt = xc[gt] if gt is not NO_INDEX else 0
    y_at_gt = yc[gt] if gt is not NO_INDEX else 0
    _prune(store, xs, ys, fl, x_at_lt, y_at_lt, x_at_gt, y_at_gt, rank, unrank)
    return fl


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

    Domain values are renamed once at post time onto the contiguous range
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
        self.entailed = False
        self.xmin_counts: list[int] = []
        self.ymax_counts: list[int] = []
        self.xmax_counts: Optional[list[int]] = None
        self.ymin_counts: Optional[list[int]] = None
        self.last_flags: Optional[Flags] = None
        self._rank: dict[int, int] = {}
        self._unrank: list[int] = []

    # -- setup ----------------------------------------------------------------

    def post(self, store: Store) -> Status:
        self._rank, self._unrank = _rank_map(store, self.xs + self.ys)
        counts = self.rebuilt_counts(store)
        self.xmin_counts, self.ymax_counts = counts[0], counts[1]
        if self.track_entailment:
            self.xmax_counts, self.ymin_counts = counts[2], counts[3]
        for x in self.xs:
            store.watch_bounds(x, self._x_bounds_changed)
        for y in self.ys:
            store.watch_bounds(y, self._y_bounds_changed)
        return self.propagate(store)

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

    def _mark_entailed(self, store: Store) -> None:
        self.entailed = True

        def undo() -> None:
            self.entailed = False

        store.trail_undo(undo)

    def _flags_to_values(self, fl: Flags) -> Flags:
        unrank = self._unrank
        lt = unrank[fl.first_lt] if fl.first_lt is not NO_INDEX else NO_INDEX
        gt = unrank[fl.first_gt] if fl.first_gt is not NO_INDEX else NO_INDEX
        return Flags(lt, gt, fl.flat_between, fl.tail_wrong)

    def propagate(self, store: Store) -> Status:
        if self.track_entailment:
            if self.entailed:
                return Status.ENTAILED
            if self.entailment_holds():
                self._mark_entailed(store)
                return Status.ENTAILED
        fl = _filter_counts(
            store, self.xs, self.ys, self.xmin_counts, self.ymax_counts,
            self.strict, self._rank, self._unrank,
        )
        self.last_flags = self._flags_to_values(fl)
        if self.track_entailment and self.entailment_holds():
            self._mark_entailed(store)
            return Status.ENTAILED
        return Status.ACTIVE


class StatelessMultisetOrdering(MultisetPair):
    """Occurrence filter that rebuilds its count vectors on every call.

    Prunes exactly like :class:`MultisetOrdering` but keeps no post-time
    state, which makes it a valid :class:`~msetcp.constraints.Conditional`
    body: its ``propagate`` may first run at any search depth.
    """

    def propagate(self, store: Store) -> Status:
        xs, ys = self.xs, self.ys
        rank, unrank = _rank_map(store, xs + ys)
        d = len(unrank)
        _filter_counts(
            store, xs, ys,
            _occurrence_counts(rank, d, store.min, xs),
            _occurrence_counts(rank, d, store.max, ys),
            self.strict, rank, unrank,
        )
        return Status.ACTIVE


class SortedMultisetOrdering(MultisetPair):
    """Sorted-vector filter for ``{{X}} <=m {{Y}}`` (``<m`` with strict).

    Keeps ``min(X_i)`` and ``max(Y_i)`` as descending sorted vectors and
    derives the same pointer/flag summary (plus the four counts it needs) by
    scanning them, so no per-value count array is ever built.  Bound changes
    are folded in by binary-search remove/insert.  Requires equal-length
    vectors: with them, the scan may rely on the X-above-Y index existing
    whenever the vectors differ.
    """

    def __init__(self, xs: Sequence[int], ys: Sequence[int], strict: bool = False) -> None:
        super().__init__(xs, ys, strict)
        if len(xs) != len(ys):
            raise ValueError("sorted-vector filter requires equal-length vectors")
        self.xmin_sorted: list[int] = []
        self.ymax_sorted: list[int] = []
        self.last_flags: Optional[Flags] = None

    def post(self, store: Store) -> Status:
        self.xmin_sorted, self.ymax_sorted = self.rebuilt_sorted(store)
        for x in self.xs:
            store.watch_bounds(x, self._x_bounds_changed)
        for y in self.ys:
            store.watch_bounds(y, self._y_bounds_changed)
        return self.propagate(store)

    # -- incremental maintenance -------------------------------------------------

    @staticmethod
    def _desc_pos(lst: list[int], value: int) -> int:
        """Leftmost index whose element is <= value (binary search)."""
        lo, hi = 0, len(lst)
        while lo < hi:
            mid = (lo + hi) // 2
            if lst[mid] > value:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def _replace(self, lst: list[int], old: int, new: int) -> None:
        i = self._desc_pos(lst, old)
        assert lst[i] == old, "stale sorted vector"
        del lst[i]
        lst.insert(self._desc_pos(lst, new), new)

    def _x_bounds_changed(self, var, old_min, old_max, new_min, new_max) -> None:
        if new_min != old_min:
            self._replace(self.xmin_sorted, old_min, new_min)

    def _y_bounds_changed(self, var, old_min, old_max, new_min, new_max) -> None:
        if new_max != old_max:
            self._replace(self.ymax_sorted, old_max, new_max)

    def rebuilt_sorted(self, store: Store) -> tuple[list[int], list[int]]:
        return (
            sorted((store.min(x) for x in self.xs), reverse=True),
            sorted((store.max(y) for y in self.ys), reverse=True),
        )

    # -- flag scan ----------------------------------------------------------------

    def flags(self) -> tuple[Flags, int, int, int, int]:
        """Pointer/flag summary plus the four counts, from the sorted vectors.

        Raises Inconsistent on disentailment.  When the sorted vectors are
        equal, returns early with empty pointers and zero counts.
        """
        sx, sy = self.xmin_sorted, self.ymax_sorted
        n = len(sx)
        i = 0
        while i < n and sx[i] == sy[i]:
            i += 1
        if i == n:
            if self.strict:
                raise Inconsistent("multiset ordering: equal bounds forbid strict order")
            return Flags(NO_INDEX, NO_INDEX, False, False), 0, 0, 0, 0
        if sx[i] > sy[i]:
            raise Inconsistent("multiset ordering disentailed")
        first_lt = sy[i]
        flat = True
        j = i + 1
        while j < n and sy[j] == sy[j - 1]:
            j += 1
        if j == n:
            first_gt = sx[i]
        else:
            first_gt = None
            while i < n and j < n:
                if sx[i] > sy[j]:
                    first_gt = sx[i]
                    break
                if sx[i] < sy[j]:
                    flat = False
                    j += 1
                else:
                    i += 1
                    j += 1
            if first_gt is None:
                assert i < n, "equal-length invariant violated"
                first_gt = sx[i]
        # tail scan: compare what remains below first_gt on each side
        k = i + 1
        while k < n and sx[k] == sx[k - 1]:
            k += 1
        if k == n:
            tail_wrong = self.strict and j >= n
        else:
            while k < n and j < n:
                if sx[k] > sy[j]:
                    tail_wrong = True
                    break
                if sx[k] < sy[j]:
                    tail_wrong = False
                    break
                k += 1
                j += 1
            else:
                if k == n:
                    tail_wrong = self.strict and j == n
                else:
                    tail_wrong = True  # Y side exhausted first
        x_at_lt = y_at_lt = x_at_gt = y_at_gt = 0
        for t in range(n):
            v = sx[t]
            if v == first_lt:
                x_at_lt += 1
            elif v == first_gt:
                x_at_gt += 1
            w = sy[t]
            if w == first_lt:
                y_at_lt += 1
            elif w == first_gt:
                y_at_gt += 1
        return Flags(first_lt, first_gt, flat, tail_wrong), x_at_lt, y_at_lt, x_at_gt, y_at_gt

    def propagate(self, store: Store) -> Status:
        fl, x_at_lt, y_at_lt, x_at_gt, y_at_gt = self.flags()
        self.last_flags = fl
        _prune(
            store, self.xs, self.ys, fl, x_at_lt, y_at_lt, x_at_gt, y_at_gt, _IDENTITY, _IDENTITY
        )
        return Status.ACTIVE
