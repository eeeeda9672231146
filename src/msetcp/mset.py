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
number of distinct values.  The other two hand :func:`_runs`, the one merge,
two descending sequences of bounds, and it counts their runs as far as the
scan reads, at a cost independent of the size of the value range.
:class:`SortedMultisetOrdering` keeps every ``min(X_i)`` in a
:class:`SortedBlocks` and reads every ``max(Y_i)`` from its Y
:class:`MaxIndex`, each read from the top down; those two classes alone know
the block layout and the index's keys.  :class:`StatelessMultisetOrdering`
sorts its bounds on every call and keeps nothing.

The two dedicated filters (:class:`DedicatedFilter`) set up in ``attach`` from
one snapshot of the domains, a single :meth:`~msetcp.store.Store.domains`
call per side: the rank map, every count vector, the sorted vector and
the :class:`MaxIndex` of each side all derive from it, and the from-scratch
rebuilds go through the same builders.  Bound watchers then keep that state
in step with the domains, across backtracking too, from one registration per
side.  Every sorted vector they keep is a :class:`SortedBlocks`, so one bound
change moves one value in one block of at most ``BLOCK_SIZE`` values (two,
when it leaves its block), whatever the vector length; a vector that fits in
one block, as every shipped model's does, is a single sorted list.
"""

from __future__ import annotations

from bisect import bisect_left, insort_left
from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .engine import Propagator, Status
from .order import Ordering, mset_cmp, rank_map
from .store import EventKind, Inconsistent, Store

NO_INDEX = float("-inf")

_low, _high = itemgetter(0), itemgetter(-1)  # the bounds of a domain tuple


class Flags(NamedTuple):
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


def _occurrence_counts(rank: dict[int, int], d: int, bounds: Iterable[int]) -> list[int]:
    """How often each rank occurs among ``bounds``."""
    counts = [0] * d
    for b in bounds:
        counts[rank[b]] += 1
    return counts


def _runs(sx: Iterable[int], sy: Iterable[int]) -> Iterator[tuple[int, int, int]]:
    """Run-length counts of two descending iterables, for :func:`_summary`.

    Yields ``(value, count in sx, count in sy)`` for each distinct value,
    largest first.  A run is counted by reading one item past it, which is
    kept as the head of the next run, so each input is read only one item
    past what the caller has taken; an input's end reads as NO_INDEX.
    """
    sx, sy = iter(sx), iter(sy)
    x, y = next(sx, NO_INDEX), next(sy, NO_INDEX)
    while True:
        v = x if x > y else y
        if v == NO_INDEX:
            return
        cx = cy = 0
        if x == v:
            cx = 1
            for x in sx:
                if x != v:
                    break
                cx += 1
            else:
                x = NO_INDEX
        if y == v:
            cy = 1
            for y in sy:
                if y != v:
                    break
                cy += 1
            else:
                y = NO_INDEX
        yield v, cx, cy


def _summary(runs: Iterable[tuple[int, int, int]], strict: bool) -> tuple[Flags, int, int, int, int]:
    """The pointer/flag scan over the floor counts of X and ceiling counts of Y.

    ``runs`` gives ``(value, X count, Y count)`` from the largest value down;
    a value that neither side holds may be left out, as it cannot change the
    lex comparison.  Returns the flags in value space and the X and Y counts
    at ``first_lt`` and at ``first_gt`` (zero at NO_INDEX).  Raises
    Inconsistent exactly when the constraint is disentailed: the X counts
    compare lex-greater (weak) or lex-greater-or-equal (strict).  It reads
    only what :func:`_prune` uses: past ``first_lt`` only if
    ``x_at_lt + 1 == y_at_lt``, below ``first_gt`` only if also flat between
    and ``x_at_gt == y_at_gt + 1``; skipped fields read as if ``first_gt``
    were absent.
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
    if x_at_lt + 1 != y_at_lt:  # never critical
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
    if flat and x_at_gt == y_at_gt + 1:  # else past_gt holds anyway
        tail_wrong = strict
        for _, cx, cy in runs:
            if cx != cy:
                tail_wrong = cx > cy
                break
    return Flags(lt, gt, flat, tail_wrong), x_at_lt, y_at_lt, x_at_gt, y_at_gt


BLOCK_SIZE = 256  # the most values one block of a SortedBlocks holds


class SortedBlocks:
    """Ascending ints, repeats allowed, in sorted blocks of at most
    ``BLOCK_SIZE`` values, with the maximum of every block but the last.

    ``maxes`` bounds the blocks from above; the last block takes every value
    above ``maxes[-1]``, so a bisect into ``maxes`` always names a block.
    Moving one value (:meth:`move`) costs two bisects into ``maxes``, one into
    a block, and a delete and an insert that shift at most two blocks, where
    one flat sorted list shifts the whole vector.  A vector that fits in one
    block is one sorted list, ``single`` (None for a longer vector), with no
    maxima, and stays so, as a move keeps the length.  No block is empty but
    the one block of an empty vector: one that empties is dropped, and one
    that outgrows ``BLOCK_SIZE`` is split in half.
    """

    __slots__ = ("blocks", "maxes", "single")

    def __init__(self, values: Iterable[int]) -> None:
        flat = sorted(values)
        self.blocks = [flat[i : i + BLOCK_SIZE] for i in range(0, len(flat) or 1, BLOCK_SIZE)]
        self.maxes = [block[-1] for block in self.blocks[:-1]]
        self.single = None if self.maxes else self.blocks[0]

    def __iter__(self) -> Iterator[int]:
        return chain.from_iterable(self.blocks)

    def __reversed__(self) -> Iterator[int]:
        return chain.from_iterable(map(reversed, reversed(self.blocks)))

    def move(self, old: int, new: int) -> None:
        """Replace one ``old`` by ``new``; ValueError, and no change, when
        there is no ``old``."""
        blocks, maxes = self.blocks, self.maxes
        i = bisect_left(maxes, old)  # the only block that can hold the first ``old``
        block = blocks[i]
        j = bisect_left(block, old)
        if j == len(block) or block[j] != old:
            raise ValueError(f"{old} is not in the vector")
        k = bisect_left(maxes, new)  # the block ``new`` goes into
        del block[j]
        if k != i:
            if block:
                if i < len(maxes):
                    maxes[i] = block[-1]
            else:  # never the only block: that one is block k too
                del blocks[i], maxes[min(i, len(maxes) - 1)]
                if i < k:
                    k -= 1
            i, block = k, blocks[k]
        insort_left(block, new)
        if i < len(maxes):
            maxes[i] = block[-1]
        if len(block) > BLOCK_SIZE:
            half = len(block) >> 1
            blocks.insert(i + 1, block[half:])
            del block[half:]
            maxes.insert(i, block[-1])


class MaxIndex(SortedBlocks):
    """The variables of one side of a filter, ordered by their current max.

    Holds the keys ``max * stride + var``, ``stride`` exceeding every
    variable; ``//`` and ``%`` round toward -inf, so negative maxima split
    back too.
    The filter's bound watcher reports each max change, shrink or restore, to
    :meth:`moved`, which costs what one :meth:`SortedBlocks.move` costs.
    """

    __slots__ = ("stride",)

    def __init__(self, variables: Sequence[int], domains: Iterable[Sequence[int]]) -> None:
        """Index ``variables`` by the upper bounds of ``domains``, their
        domains in the same order."""
        self.stride = stride = max(variables, default=0) + 1
        super().__init__([dom[-1] * stride + v for v, dom in zip(variables, domains)])

    @property
    def keys(self) -> list[int]:
        """Every key, ascending."""
        return list(self)

    def maxima(self) -> Iterator[int]:
        """Every max, descending, decoded from the keys as they are read."""
        return map(self.stride.__rfloordiv__, reversed(self))

    def moved(self, var: int, old_max: int, new_max: int) -> None:
        stride = self.stride
        old = old_max * stride + var
        keys = self.single
        if keys is not None:  # one block: :meth:`move` inlined, a call fewer
            j = bisect_left(keys, old)
            if j < len(keys) and keys[j] == old:
                del keys[j]
                insort_left(keys, new_max * stride + var)
                return
        self.move(old, new_max * stride + var)

    def reaching(self, bound: float) -> list[int]:
        """The variables whose max is at least ``bound``, ascending by key:
        all at NO_INDEX."""
        stride = self.stride
        low = bound * stride
        keys = self.single
        if keys is not None:
            keys = keys[bisect_left(keys, low) :]
        else:
            blocks = self.blocks
            i = bisect_left(self.maxes, low)
            block = blocks[i]
            keys = chain(block[bisect_left(block, low) :], *blocks[i + 1 :])
        return [k % stride for k in keys]


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
    integers.  A cut is made only when it moves the bound: on an unfixed
    variable, the cuts to its own other bound, to ``first_lt - 1`` and to
    ``first_gt + 1`` always do, and the cuts to ``first_lt`` and ``first_gt``
    are made only past them.
    """
    lt, gt = fl.first_lt, fl.first_gt
    critical = fl.flat_between and x_at_lt + 1 == y_at_lt
    # whether one unit less of the X surplus at first_gt still leaves the X
    # counts ahead from first_gt down
    past_gt = fl.tail_wrong or x_at_gt != y_at_gt + 1
    for x in xs:
        vals = store.values(x)
        mn, mx = vals[0], vals[-1]
        if mn == mx:
            continue
        if mn >= lt:
            store.set_max(x, mn)
        elif mx >= lt:
            if critical and (mn < gt or (mn == gt and past_gt)):
                store.set_max(x, lt - 1)
            elif mx > lt:
                store.set_max(x, lt)
    for y in ys:
        vals = store.values(y)
        mn, mx = vals[0], vals[-1]
        if mn == mx:
            continue
        if mx > lt:
            store.set_min(y, mx)
        elif critical and mx == lt and (mn < gt or (mn == gt and past_gt)):
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
    watches each side in one call, X with ``_x_bounds_changed`` and Y with
    ``_y_bounds_changed``, which each filter defines.
    """

    def __init__(self, xs: Sequence[int], ys: Sequence[int], strict: bool = False) -> None:
        super().__init__(xs, ys, strict)
        self.last_flags: Optional[Flags] = None
        self.xmax_index: Optional[MaxIndex] = None
        self.ymax_index: Optional[MaxIndex] = None

    def attach(self, store: Store) -> None:
        # a second set-up would add a second set of watchers on the state
        if self.xmax_index is not None:
            raise ValueError(f"this {type(self).__name__} is already attached; post a new one")
        xs, ys = self.xs, self.ys
        xdoms, ydoms = store.domains(xs), store.domains(ys)
        self._set_up(xdoms, ydoms)
        self.xmax_index, self.ymax_index = MaxIndex(xs, xdoms), MaxIndex(ys, ydoms)
        store.watch_bounds(xs, self._x_bounds_changed)
        store.watch_bounds(ys, self._y_bounds_changed)

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
        self._rank, self._unrank = rank_map(chain(xdoms, ydoms))
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
        return self._counts(store.domains(self.xs), store.domains(self.ys))

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
    ``min(X_i)`` and ``max(Y_i)`` and hands them to :func:`_runs`, as
    :class:`SortedMultisetOrdering` hands it its kept vectors.
    """

    def propagate(self, store: Store) -> Status:
        xs, ys = self.xs, self.ys
        sx = sorted(map(store.min, xs), reverse=True)
        sy = sorted(map(store.max, ys), reverse=True)
        _prune(store, xs, ys, *_summary(_runs(sx, sy), self.strict))
        return Status.ACTIVE


class SortedMultisetOrdering(DedicatedFilter):
    """Sorted-vector filter for ``{{X}} <=m {{Y}}`` (``<m`` with strict).

    Keeps every ``min(X_i)`` in a :class:`SortedBlocks` and reads every
    ``max(Y_i)`` from its Y :class:`MaxIndex` (:meth:`MaxIndex.maxima`), and
    on every call hands both, read from the top down, to :func:`_runs`, which
    counts their runs only as far as the shared scan reads.  So a call costs
    time linear in the vector length, independent of the size of the value
    range, and no per-value count array is ever kept.  A bound change moves
    one value of one of them.  The vectors may have different lengths.
    """

    def __init__(self, xs: Sequence[int], ys: Sequence[int], strict: bool = False) -> None:
        super().__init__(xs, ys, strict)
        self.xmin = SortedBlocks(())

    def _set_up(self, xdoms: list[tuple[int, ...]], ydoms: list[tuple[int, ...]]) -> None:
        self.xmin = SortedBlocks(map(_low, xdoms))

    @property
    def xmin_sorted(self) -> list[int]:
        """Every ``min(X_i)``, descending."""
        return list(reversed(self.xmin))

    @property
    def ymax_sorted(self) -> list[int]:
        """Every ``max(Y_i)``, descending, as the Y index holds them."""
        index = self.ymax_index
        return [] if index is None else list(index.maxima())

    # -- incremental maintenance -------------------------------------------------

    def _x_bounds_changed(self, var, old_min, old_max, new_min, new_max) -> None:
        if new_min != old_min:
            self.xmin.move(old_min, new_min)
        if new_max != old_max:
            self.xmax_index.moved(var, old_max, new_max)

    def _y_bounds_changed(self, var, old_min, old_max, new_min, new_max) -> None:
        if new_max != old_max:
            self.ymax_index.moved(var, old_max, new_max)

    def rebuilt_sorted(self, store: Store) -> tuple[list[int], list[int]]:
        """Sorted vectors recomputed from scratch (reference for the
        incrementally maintained ones)."""
        xmins = sorted(map(store.min, self.xs), reverse=True)
        return xmins, sorted(map(store.max, self.ys), reverse=True)

    # -- filtering ----------------------------------------------------------------

    def propagate(self, store: Store) -> Status:
        fl, *counts = _summary(_runs(reversed(self.xmin), self.ymax_index.maxima()), self.strict)
        lt = fl.first_lt
        _prune(store, self.xmax_index.reaching(lt), self.ymax_index.reaching(lt), fl, *counts)
        self.last_flags = fl
        return Status.ACTIVE
