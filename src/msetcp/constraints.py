"""Constraint library for the benchmark models and the alternative encodings.

Filtering strengths are deliberately heterogeneous and documented per class:
the lexicographic ordering filter is GAC; the cardinality filter and the
sortedness channel are bounds-and-counting filters (not full GAC) built on
one per-value count and one force/forbid rule, one pass per call, left to the
engine's queue to re-run; all-different only reacts to instantiations.  Like
the multiset filters, the two counting filters rename their values onto
``0..d-1`` when attached (:func:`~msetcp.order.rank_map`) and count into
lists indexed by that rank, whatever the values are: negative, sparse or off
a value list.  The lexicographic and counting filters read each vector once
per call; they and the multiset prune cut a bound only when that moves it.
The
table, all-different, lexicographic, ``x < y``, ``<=`` sum and meet-once
filters reach their own fixpoint in one call over distinct variables and
declare ``idempotent`` on the class, so the engine, which trusts the
declaration only where no variable is listed twice, does not wake them on
their own events.  The linear sums are bounds consistent from one read of
the domains per call: a term is cut only when its span exceeds the slack, and
a sum is entailed as soon as its worst case holds, fixed variables or not.
Up to ``KERNEL_TERMS`` terms, a sum runs that loop unrolled in a kernel
compiled once per sign pattern and relation, with its numbers bound as values
and never written into the generated text; longer sums run the loop itself.
The table constraint is GAC by support bitsets (one bit per allowed tuple,
one AND per variable) and is entailed when exactly one allowed tuple is left;
tables posted over one relation share its compiled supports.
The arithmetic encoding of the multiset ordering uses exact big-integer
weights and is bounds consistent, which for that constraint coincides with
GAC.  The progressive party's capacity and meet-once filters read only the
fixed hosts and wake only on instantiations; on the host matrix they remove
exactly what a 0/1 channel (reified equalities) with bounds-consistent sums
would remove.
"""

from __future__ import annotations

import functools
import linecache
from bisect import bisect_left, bisect_right
from itertools import accumulate, chain
from typing import Sequence

from .engine import Propagator, Status
from .mset import MultisetPair, _high, _low
from .mset import StatelessMultisetOrdering  # re-exported beside Conditional, its host
from .order import Ordering, lex_cmp, rank_map, sort_desc
from .store import EventKind, Inconsistent, Store

_NEVER = (0,)  # the count domain of a value that no variable may take


class LexOrdering(Propagator):
    """GAC filter for ``X <=lex Y`` (``<lex`` with strict), equal lengths.

    Walks the most significant indices whose pairs are not yet fixed equal;
    at the first such index the pair is forced weakly or strictly ordered
    depending on whether the remaining suffix can still rescue equality.
    A call reads each vector once and works on that snapshot: it cuts
    ``max X_i`` or ``min Y_i`` only when the cut moves the bound, and reads
    both vectors again after a cut, so a variable listed twice is seen as it
    is now.  Entailment is one list comparison, of every ``max X_i`` with
    every ``min Y_i``.  Being GAC, one call reaches its own fixpoint: it is
    idempotent.
    """

    idempotent = True

    def __init__(self, xs: Sequence[int], ys: Sequence[int], strict: bool = False) -> None:
        if len(xs) != len(ys):
            raise ValueError("lex ordering requires equal-length vectors")
        self.xs = list(xs)
        self.ys = list(ys)
        self.strict = strict

    def subscriptions(self):
        for v in self.xs:
            yield v, EventKind.BOUNDS
        for v in self.ys:
            yield v, EventKind.BOUNDS

    def propagate(self, store: Store) -> Status:
        xs, ys, strict = self.xs, self.ys, self.strict
        xdoms, ydoms = store.domains(xs), store.domains(ys)
        n = len(xs)
        i = 0
        while i < n:
            xd, yd = xdoms[i], ydoms[i]
            if len(xd) == 1 and xd == yd:
                i += 1
                continue
            # whether the suffix can still satisfy the ordering with this
            # pair equal: the first pair whose bounds differ decides
            can_eq = not strict
            for t in range(i + 1, n):
                lo, hi = xdoms[t][0], ydoms[t][-1]
                if lo != hi:
                    can_eq = lo < hi
                    break
            gap = 0 if can_eq else 1
            top, bottom = yd[-1] - gap, xd[0] + gap
            cut = False
            if xd[-1] > top:
                cut = store.set_max(xs[i], top)
            if yd[0] < bottom:
                cut = store.set_min(ys[i], bottom) or cut
            if cut:
                xdoms, ydoms = store.domains(xs), store.domains(ys)
                xd, yd = xdoms[i], ydoms[i]
            if xd[0] < yd[-1]:
                break
            i += 1  # pair just became fixed equal
        else:
            if strict:
                raise Inconsistent("lex ordering: vectors fixed equal")
            return Status.ENTAILED
        worst, best = list(map(_high, xdoms)), list(map(_low, ydoms))
        if worst < best or (worst == best and not strict):
            return Status.ENTAILED
        return Status.ACTIVE

    def check(self, values: Sequence[int]) -> bool:
        cmp = lex_cmp([values[v] for v in self.xs], [values[v] for v in self.ys])
        if self.strict:
            return cmp is Ordering.LESS
        return cmp is not Ordering.GREATER


def _tally(
    rank: dict[int, int], d: int, doms: Sequence[tuple[int, ...]]
) -> tuple[list[int], list[int]]:
    """``(fixed, free)``, two count lists indexed by rank: per value, how many
    of ``doms`` are fixed to it and how many unfixed ones still hold it.
    ``rank`` maps every value of ``doms`` onto ``0..d-1``; the filters build
    it in ``attach``, before any pruning, and as domains only shrink it stays
    valid for the whole search.  Only counts are kept; :func:`_settle` finds
    the holders of a value in ``doms`` when it needs them."""
    fixed = [0] * d
    free = [0] * d
    for dom in doms:
        if len(dom) == 1:
            fixed[rank[dom[0]]] += 1
        else:
            for val in dom:
                free[rank[val]] += 1
    return fixed, free


def _settle(
    store: Store,
    val: int,
    force: bool,
    variables: Sequence[int],
    doms: Sequence[tuple[int, ...]],
) -> None:
    """Assign ``val`` to every unfixed holder of it when ``force``, else
    remove it from every one.  The callers force a value when its least
    count needs every holder and forbid it when its fixed takers already
    reach its greatest count.  The holders are read from ``doms``, the
    snapshot that :func:`_tally` counted, in ``variables`` order.  A snapshot
    taken before cuts made since is a superset of the domains, so both cuts
    stay implied and fail exactly when the counts are infeasible."""
    cut = store.assign if force else store.remove
    for x, dom in zip(variables, doms):
        if len(dom) > 1 and val in dom:
            cut(x, val)


class Cardinality(Propagator):
    """Counting-based cardinality filter linking values to occurrence variables.

    ``occ[k]`` counts how many of ``xs`` take ``values[k]``; the value list is
    strictly decreasing, and no variable takes a value off it.
    Occurrence bounds are tightened from the fixed/holder counts, and
    saturated bounds force or forbid values on the variable side, in one pass
    per call: the engine re-runs it on its own events (it is not idempotent,
    since a forced or forbidden value changes the counts of other values).

    ``attach`` ranks the values of the declared domains and of the list,
    from the largest down, the order of the list.  A call reads every
    variable's domain and every ``occ`` domain once each, counts into lists
    indexed by rank (:func:`_tally`), and settles each value in one loop over
    the ranks.  A value off the list occurs ``0..0`` times, like a listed
    value whose ``occ`` is fixed to 0: a variable fixed to it fails the call,
    and the others lose it.  ``set_min``/``set_max`` is called on an ``occ``
    only when that moves its bound, and :func:`_settle` only on a value
    that every holder must take or none may.
    """

    def __init__(self, xs: Sequence[int], values: Sequence[int], occ: Sequence[int]) -> None:
        if len(values) != len(occ):
            raise ValueError("one occurrence variable per value required")
        if any(a <= b for a, b in zip(values, values[1:])):
            raise ValueError("value list must be strictly decreasing")
        self.xs = list(xs)
        self.vals = list(values)
        self.occ = list(occ)
        self._rank: dict[int, int] = {}
        self._ranked: list[int] = []  # the value of each rank
        self._slots: list[int] = []

    def attach(self, store: Store) -> None:
        if self._ranked:  # a second set-up would rank another store's values
            raise ValueError("this Cardinality is already attached; post a new one")
        # attach runs before any pruning and domains only shrink from there,
        # so every value a domain holds later has its rank now
        rank, unrank = rank_map(chain(store.domains(self.xs), [self.vals]))
        top = len(unrank) - 1
        self._rank = {val: top - r for val, r in rank.items()}
        self._ranked = unrank[::-1]
        slot = {val: k for k, val in enumerate(self.vals)}
        # per rank, the index of its value's ``occ``; -1, off the list, reads
        # the constant count domain that ``propagate`` appends
        self._slots = [slot.get(val, -1) for val in self._ranked]

    def subscriptions(self):
        for v in self.xs:
            yield v, EventKind.ANY
        for v in self.occ:
            yield v, EventKind.BOUNDS

    def propagate(self, store: Store) -> Status:
        xs, occ = self.xs, self.occ
        doms = store.domains(xs)
        fixed, free = _tally(self._rank, len(self._ranked), doms)
        counts = store.domains(occ)
        counts.append(_NEVER)
        for val, k, least, held in zip(self._ranked, self._slots, fixed, free):
            count = counts[k]
            lo, hi = count[0], count[-1]
            most = least + held
            if lo < least or hi > most:
                if hi < least or lo > most:
                    raise Inconsistent(f"cardinality: value {val} count out of range")
                # a value off the list passes the test above only with no
                # taker, and then its count 0..0 has nothing to cut
                o = occ[k]
                if lo < least:
                    store.set_min(o, least)
                if hi > most:
                    store.set_max(o, most)
                count = store.values(o)
                lo, hi = count[0], count[-1]
            if held and (lo == most or hi == least):
                _settle(store, val, lo == most, xs, doms)
        return Status.ACTIVE

    def check(self, values: Sequence[int]) -> bool:
        taken = [values[x] for x in self.xs]
        return set(taken) <= set(self.vals) and all(
            taken.count(val) == values[o] for val, o in zip(self.vals, self.occ)
        )


class SortednessLink(Propagator):
    """Channel ``sorted_desc`` between ``xs`` and its non-increasing view ``sxs``.

    Bounds-and-counting filter: position k of the sorted vector is confined by
    the k-th largest domain bounds of ``xs``, per-value occurrence counts must
    agree on both sides (so values absent from one side are dropped from the
    other), and the sorted vector is kept non-increasing, in one pass per call
    as for :class:`Cardinality`.  Not full GAC, but strong enough to dominate
    the pure counting decomposition.

    A call reads ``xs`` and ``sxs`` once each.  From that snapshot it caps
    every position by the k-th largest max of ``xs`` and by the caps before
    it, raises it to the k-th largest min and to the floors after it, and
    cuts a bound only when that moves it; ``sxs`` is read again only after
    such a cut, so the counts see what it left.  The counts go into lists
    indexed by the ranks that ``attach`` gives the values of both sides'
    declared domains (:func:`_tally`), and one loop over the ranks settles
    each value.
    """

    def __init__(self, xs: Sequence[int], sxs: Sequence[int]) -> None:
        if len(xs) != len(sxs):
            raise ValueError("sorted view must have the same length")
        self.xs = list(xs)
        self.sxs = list(sxs)
        self._rank: dict[int, int] = {}
        self._unrank: list[int] = []

    def attach(self, store: Store) -> None:
        if self._unrank:  # a second set-up would rank another store's values
            raise ValueError("this SortednessLink is already attached; post a new one")
        # domains only shrink after attach, so every later value has a rank
        self._rank, self._unrank = rank_map(chain(store.domains(self.xs), store.domains(self.sxs)))

    def subscriptions(self):
        for v in self.xs:
            yield v, EventKind.ANY
        for v in self.sxs:
            yield v, EventKind.ANY

    def propagate(self, store: Store) -> Status:
        xs, sxs = self.xs, self.sxs
        xdoms, sdoms = store.domains(xs), store.domains(sxs)
        # position bounds: k-th largest of the per-variable bounds, carried
        # down the view for its caps and up it for its floors
        maxs = sorted(map(_high, xdoms), reverse=True)
        mins = sorted(map(_low, xdoms))
        caps = accumulate(map(min, maxs, map(_high, sdoms)), min)
        floors = accumulate(map(max, mins, map(_low, reversed(sdoms))), max)
        cut = False
        for s, dom, cap in zip(sxs, sdoms, caps):
            if dom[-1] > cap:
                cut = store.set_max(s, cap) or cut
        for s, dom, floor in zip(reversed(sxs), reversed(sdoms), floors):
            if dom[0] < floor:
                cut = store.set_min(s, floor) or cut
        if cut:  # count what the cuts left
            sdoms = store.domains(sxs)
        # per-value occurrence counts must agree
        rank, d = self._rank, len(self._unrank)
        x_fixed, x_free = _tally(rank, d, xdoms)
        s_fixed, s_free = _tally(rank, d, sdoms)
        for val, xf, xc, sf, sc in zip(self._unrank, x_fixed, x_free, s_fixed, s_free):
            lo = max(xf, sf)
            hi = min(xf + xc, sf + sc)
            if lo > hi:
                raise Inconsistent(f"sortedness: value {val} count mismatch")
            if xc and (lo == xf + xc or hi == xf):
                _settle(store, val, lo == xf + xc, xs, xdoms)
            if sc and (lo == sf + sc or hi == sf):
                _settle(store, val, lo == sf + sc, sxs, sdoms)
        return Status.ACTIVE

    def check(self, values: Sequence[int]) -> bool:
        return sort_desc(values[x] for x in self.xs) == tuple(
            values[s] for s in self.sxs
        )


class ArithmeticMultiset(MultisetPair):
    """Weighted-power-sum encoding of the multiset ordering, exact integers.

    Every value ``v`` weighs ``base**v``; the constraint is the inequality
    between the two weight sums (strict with ``strict``).  Bounds consistency
    on the sums is established with arbitrary-precision arithmetic; for this
    encoding it prunes exactly as much as GAC on the multiset ordering, so the
    two produce identical search trees.  Requires declared domains of
    non-negative values (``attach`` refuses others) and a base that keeps
    the sums exact: ``base >= max(2, n)`` for two vectors of length ``n``
    (``n`` copies of ``v`` weigh as much as one ``v + 1`` only when they
    fill a whole vector, and then the other vector's remaining elements
    break the tie), and a base above both lengths otherwise; such a base
    makes the inherited multiset ``check`` agree with the weight sums.
    """

    def __init__(
        self, xs: Sequence[int], ys: Sequence[int], base: int, strict: bool = False
    ) -> None:
        super().__init__(xs, ys, strict)
        if base < max(2, len(xs)):
            raise ValueError("base must be at least 2 and at least the vector length")
        if len(xs) != len(ys) and base <= max(len(xs), len(ys)):
            raise ValueError("with unequal lengths the base must exceed both lengths")
        self.base = base
        self._powers: list[int] = []

    def attach(self, store: Store) -> None:
        if self._powers:  # a second set-up would size the table to another store
            raise ValueError("this ArithmeticMultiset is already attached; post a new one")
        vs = self.xs + self.ys
        if any(store.min(v) < 0 for v in vs):
            raise ValueError("arithmetic encoding requires non-negative values")
        # set up on the declared domains, which only shrink from there, so
        # the table covers every weight
        top = max((store.max(v) for v in vs), default=0)
        self._powers = [self.base**k for k in range(top + 1)]

    def propagate(self, store: Store) -> Status:
        powers = self._powers
        xdoms, ydoms = store.domains(self.xs), store.domains(self.ys)
        lhs_min = sum(powers[d[0]] for d in xdoms)
        room = sum(powers[d[-1]] for d in ydoms) - (1 if self.strict else 0) - lhs_min
        if room < 0:
            raise Inconsistent("arithmetic multiset encoding disentailed")
        # powers rise strictly, so a cut is made exactly when it moves a bound
        for x, d in zip(self.xs, xdoms):
            slack = room + powers[d[0]]
            if powers[d[-1]] > slack:
                store.set_max(x, bisect_right(powers, slack) - 1)
        for y, d in zip(self.ys, ydoms):
            need = powers[d[-1]] - room
            if need > 0 and powers[d[0]] < need:
                store.set_min(y, bisect_left(powers, need))
        return Status.ACTIVE


class AllDifferent(Propagator):
    """Instantiation-triggered all-different (weaker than matching-based GAC).

    The values of the fixed variables are removed from every other domain,
    cascading within one call, so a call is idempotent.  A call reads every
    domain at once: the fixed values go in a set (a repeated one is a
    failure), and one ``retain`` narrows an unfixed variable that meets it to
    the rest of the domain read.  The next round looks only for the values
    this fixed; unfixed variables are never pruned against each other.
    """

    idempotent = True

    def __init__(self, xs: Sequence[int]) -> None:
        self.xs = list(xs)

    def subscriptions(self):
        for v in self.xs:
            yield v, EventKind.INSTANTIATED

    def propagate(self, store: Store) -> Status:
        domain = store.values
        fresh: set[int] = set()  # values fixed since the last narrowing
        unfixed = []
        for x, dom in zip(self.xs, store.domains(self.xs)):
            if len(dom) > 1:
                unfixed.append((x, dom))
            elif dom[0] in fresh:
                raise Inconsistent("all-different: duplicate value")
            else:
                fresh.add(dom[0])
        while fresh and unfixed:
            rest = []
            newly: set[int] = set()
            for x, dom in unfixed:
                if fresh.isdisjoint(dom):
                    rest.append((x, dom))
                    continue
                store.retain(x, dom, tuple([v for v in dom if v not in fresh]))
                dom = domain(x)
                if len(dom) > 1:
                    rest.append((x, dom))
                elif dom[0] in newly:
                    raise Inconsistent("all-different: duplicate value")
                else:
                    newly.add(dom[0])
            unfixed, fresh = rest, newly
        if not unfixed:
            return Status.ENTAILED
        return Status.ACTIVE

    def check(self, values: Sequence[int]) -> bool:
        vals = [values[v] for v in self.xs]
        return len(set(vals)) == len(vals)


class TableConstraint(Propagator):
    """GAC on an explicit list of allowed tuples, by support bitsets.

    Bit ``i`` of ``masks[p][v]`` is set when tuple ``i`` has ``v`` at position
    ``p``; the masks are built once.  A call reads each domain once and ANDs,
    over the positions, the OR of the masks of the values still in the
    domain: the result holds the live tuples.  No live tuple is a failure; a
    value whose mask misses the live set has no support, and only a variable
    holding such a value is narrowed.  The constraint is entailed when
    exactly one live tuple is left, since every domain is then that tuple's
    value.  The live set is recomputed from the domains, so nothing is trailed.
    Every tuple live before the narrowing is live after it, so a second call
    finds the same live set and narrows nothing: the filter is idempotent.

    The masks, the allowed-tuple set and the full mask depend on the tuples
    alone and are never written after they are built, so :meth:`on` posts the
    same relation over other variables without building them again: a model
    that posts one relation many times, such as the sport schedule's game
    channel, compiles it once.  Nothing is kept beyond the tables themselves,
    so two models share nothing unless they share a table.
    """

    idempotent = True

    def __init__(self, xs: Sequence[int], tuples: Sequence[tuple[int, ...]]) -> None:
        arity = len(xs)
        if any(len(t) != arity for t in tuples):
            raise ValueError("tuple arity mismatch")
        self.xs = list(xs)
        self.tuples = [tuple(t) for t in tuples]
        self._allowed = frozenset(self.tuples)
        self._all = (1 << len(self.tuples)) - 1
        self.masks: list[dict[int, int]] = [{} for _ in self.xs]
        for i, t in enumerate(self.tuples):
            for masks, v in zip(self.masks, t):
                masks[v] = masks.get(v, 0) | 1 << i

    def on(self, xs: Sequence[int]) -> "TableConstraint":
        """The same relation over ``xs``: a new table that shares this one's
        tuples, allowed set and support masks."""
        if len(xs) != len(self.xs):
            raise ValueError("tuple arity mismatch")
        # attributes set one by one in the order of __init__, as reading
        # ``__dict__`` would turn the new table's attributes into a plain dict
        # that every attribute read in ``propagate`` then searches
        table = object.__new__(type(self))
        table.xs = list(xs)
        table.tuples = self.tuples
        table._allowed = self._allowed
        table._all = self._all
        table.masks = self.masks
        return table

    def subscriptions(self):
        for v in self.xs:
            yield v, EventKind.ANY

    def propagate(self, store: Store) -> Status:
        doms = store.domains(self.xs)
        live = self._all
        for dom, masks in zip(doms, self.masks):
            support = 0
            for v in dom:
                support |= masks.get(v, 0)
            live &= support
        if not live:
            raise Inconsistent("table constraint: no tuple survives")
        for x, dom, masks in zip(self.xs, doms, self.masks):
            for v in dom:
                if not masks.get(v, 0) & live:
                    store.retain(x, dom, tuple([w for w in dom if masks.get(w, 0) & live]))
                    break
        if not live & (live - 1):
            return Status.ENTAILED
        return Status.ACTIVE

    def check(self, values: Sequence[int]) -> bool:
        return tuple(values[x] for x in self.xs) in self._allowed


KERNEL_TERMS = 16  # longest sum that runs a compiled kernel; compile time grows with length


@functools.cache
def _sum_kernel_factory(signs: tuple[bool, ...], relation: str):
    """Compile ``LinearSum``'s straight-line body for one sign pattern (True
    for ``c_i > 0``) and relation.  The returned factory takes ``|c_i|`` and
    ``x_i`` per term, the variable tuple and the constant as arguments."""
    eq, terms = relation == "==", list(enumerate(signs))
    fail = "raise Inconsistent('linear sum infeasible')"
    body = ["".join(f"d{i}, " for i, _ in terms) + "= store.domains(xs)", "lo = hi = 0"]
    for i, pos in terms:  # lo takes each term's least value, hi its greatest
        op, low, high = ("+=", "l", "h") if pos else ("-=", "h", "l")
        body.append(f"l{i} = d{i}[0]; h{i} = d{i}[-1]")
        body.append(f"lo {op} a{i} * {low}{i}; hi {op} a{i} * {high}{i}")
    body += [f"if lo > k: {fail}", "above = k - lo"]
    if eq:
        body += [f"if hi < k: {fail}", "if lo == hi: return ENTAILED", "below = hi - k"]
    else:
        body.append("if hi <= k: return ENTAILED")
    for i, pos in terms:  # the loop's cuts, in its order
        cap, lift = f"set_max(x{i}, l{i} + ", f"set_min(x{i}, h{i} - "
        up, down = (cap, lift) if pos else (lift, cap)
        body += [f"s{i} = a{i} * (h{i} - l{i})", f"if s{i} > above: store.{up}above // a{i})"]
        body += [f"if s{i} > below: store.{down}below // a{i})"] if eq else []
    args = "".join(f"a{i}, x{i}, " for i, _ in terms)
    src = f"def factory({args}xs, k):\n    def kernel(store):\n"
    src += "".join(f"        {line}\n" for line in body + ["return ACTIVE"]) + "    return kernel\n"
    name = f"<LinearSum kernel {''.join('+' if pos else '-' for pos in signs)} {relation}>"
    linecache.cache[name] = (len(src), None, src.splitlines(True), name)  # shown in tracebacks
    scope = {"Inconsistent": Inconsistent, "ENTAILED": Status.ENTAILED, "ACTIVE": Status.ACTIVE}
    exec(compile(src, name, "exec"), scope)
    return scope["factory"]


class LinearSum(Propagator):
    """Bounds consistency on ``sum(c_i * x_i) <= k`` or ``== k``.

    One call reads every domain once, then works on that snapshot: the least
    sum ``lo`` and the greatest sum ``hi`` decide failure (``lo > k``, or
    ``hi < k`` for ``==``) and entailment (``hi <= k`` for ``<=``, ``lo == hi``
    for ``==``), so a sum that holds in the worst case is entailed while its
    variables are still unfixed.  Otherwise a term is cut only when its span
    ``|c_i| * (max x_i - min x_i)`` exceeds the room left, ``k - lo`` (and
    ``hi - k`` from below for ``==``); a term that fits in the room has no
    value to lose, so the skipped cuts are exactly the ones that would change
    nothing.  Cuts on one side may leave the other side's bounds of the
    snapshot a little stale; what they cut is still implied, and the engine
    re-queues the sum on its own events, so the fixpoint is the textbook one.
    A ``<=`` sum is idempotent: its cuts never move ``lo``, so after one call
    every span fits the room and a second call cuts nothing.  An ``==`` sum
    is not, as its lower-side cuts raise ``lo``.

    A sum of 1 to ``KERNEL_TERMS`` terms runs a kernel with the loop of
    :meth:`_loop` unrolled, one statement per term, making the same store
    calls in the same order.  Its text is compiled once per (sign pattern,
    relation) per process, under a file name that names that shape; the
    coefficients, variables and constant are bound as values, so no model
    data enters the text given to ``exec``.  Longer sums, whose compile time
    grows with length, and sums with no term left run :meth:`_loop`, which
    is also the kernel's reference.
    """

    def __init__(
        self,
        coeffs: Sequence[int],
        xs: Sequence[int],
        relation: str,
        constant: int,
    ) -> None:
        if relation not in ("<=", "=="):
            raise ValueError("relation must be '<=' or '=='")
        if len(coeffs) != len(xs):
            raise ValueError("one coefficient per variable required")
        pairs = [(c, x) for c, x in zip(coeffs, xs) if c != 0]
        self.coeffs = [c for c, _ in pairs]
        self.xs = [x for _, x in pairs]
        self.relation = relation
        self.constant = constant
        self.idempotent = relation == "<="
        self._kernel = None
        if 0 < len(pairs) <= KERNEL_TERMS:
            signs = tuple(c > 0 for c in self.coeffs)
            args = [v for c, x in pairs for v in (abs(c), x)]
            self._kernel = _sum_kernel_factory(signs, relation)(*args, tuple(self.xs), constant)

    def subscriptions(self):
        for v in self.xs:
            yield v, EventKind.BOUNDS

    def propagate(self, store: Store) -> Status:
        kernel = self._kernel
        return self._loop(store) if kernel is None else kernel(store)

    def _loop(self, store: Store) -> Status:
        k = self.constant
        terms = list(zip(self.coeffs, self.xs, store.domains(self.xs)))
        lo = hi = 0
        for c, _, dom in terms:
            if c > 0:
                lo += c * dom[0]
                hi += c * dom[-1]
            else:
                lo += c * dom[-1]
                hi += c * dom[0]
        if lo > k:
            raise Inconsistent("linear sum infeasible")
        above = k - lo
        if self.relation == "<=":
            if hi <= k:
                return Status.ENTAILED
            below = None
        else:
            if hi < k:
                raise Inconsistent("linear sum infeasible")
            if lo == hi:
                return Status.ENTAILED
            below = hi - k
        for c, x, dom in terms:
            least, most = dom[0], dom[-1]
            a = c if c > 0 else -c
            span = a * (most - least)
            if span > above:  # the term's largest value overruns k
                if c > 0:
                    store.set_max(x, least + above // a)
                else:
                    store.set_min(x, most - above // a)
            if below is not None and span > below:  # its least falls short
                if c > 0:
                    store.set_min(x, most - below // a)
                else:
                    store.set_max(x, least + below // a)
        return Status.ACTIVE

    def check(self, values: Sequence[int]) -> bool:
        total = sum(c * values[x] for c, x in zip(self.coeffs, self.xs))
        return total <= self.constant if self.relation == "<=" else total == self.constant


def sum_eq(xs: Sequence[int], constant: int) -> LinearSum:
    return LinearSum([1] * len(xs), xs, "==", constant)


class LessThan(LexOrdering):
    """GAC on ``x < y``: the strict lex ordering of the one-element vectors
    ``[x]`` and ``[y]``, whose filter cuts ``max x`` below ``max y`` and then
    ``min y`` above ``min x``, and is entailed once ``max x < min y``."""

    def __init__(self, x: int, y: int) -> None:
        super().__init__([x], [y], strict=True)


class HostCapacity(Propagator):
    """Progressive party capacity in one period: guest ``j`` sits at host
    ``hs[j]`` with ``crew[j]`` people, and the guests at host ``k`` number at
    most ``spare[k]`` people.

    A host's load is the crew of the guests fixed to it; a load above the
    spare fails, and host ``k`` is removed from an unfixed guest whose crew
    exceeds ``spare[k]`` minus that load.  Loads change only when a guest is
    fixed, so the filter wakes on instantiations alone; it is not idempotent,
    since a removal may fix a guest and raise a load.
    """

    def __init__(self, hs: Sequence[int], crew: Sequence[int], spare: Sequence[int]) -> None:
        if len(hs) != len(crew):
            raise ValueError("one crew size per guest required")
        self.hs = list(hs)
        self.crew = list(crew)
        self.spare = list(spare)

    def subscriptions(self):
        for v in self.hs:
            yield v, EventKind.INSTANTIATED

    def attach(self, store: Store) -> None:
        top = len(self.spare) - 1
        if any(store.min(x) < 0 or store.max(x) > top for x in self.hs):
            raise ValueError(f"host variables must range over 0..{top}")

    def propagate(self, store: Store) -> Status:
        doms = store.domains(self.hs)
        room = list(self.spare)
        for dom, c in zip(doms, self.crew):
            if len(dom) == 1:
                room[dom[0]] -= c
        if min(room, default=0) < 0:
            raise Inconsistent("host capacity exceeded")
        for x, dom, c in zip(self.hs, doms, self.crew):
            if len(dom) > 1 and any(room[k] < c for k in dom):
                store.retain(x, dom, tuple([k for k in dom if room[k] >= c]))
        return Status.ACTIVE

    def check(self, values: Sequence[int]) -> bool:
        room = list(self.spare)
        for x, c in zip(self.hs, self.crew):
            room[values[x]] -= c
        return min(room, default=0) >= 0


class MeetOnce(Propagator):
    """Two guests, whose hosts over the periods are ``row_a`` and ``row_b``,
    share a host in at most one period.

    A second period where both rows are fixed equal fails; once the guests
    have met, a host fixed for one of them in any other period is removed
    from the other.  Only instantiations decide a meeting or a removal, so
    the filter wakes on them alone.  A removal is made only opposite a fixed
    host, so it can neither make a second meeting nor call for another
    removal: the filter is idempotent.
    """

    idempotent = True

    def __init__(self, row_a: Sequence[int], row_b: Sequence[int]) -> None:
        if len(row_a) != len(row_b):
            raise ValueError("both rows need one host per period")
        self.pairs = list(zip(row_a, row_b))

    def subscriptions(self):
        for a, b in self.pairs:
            yield a, EventKind.INSTANTIATED
            yield b, EventKind.INSTANTIATED

    def propagate(self, store: Store) -> Status:
        domain = store.values
        doms = [(domain(a), domain(b)) for a, b in self.pairs]
        met = None
        for i, (da, db) in enumerate(doms):
            if len(da) == 1 and da == db:
                if met is not None:
                    raise Inconsistent("meet-once: guests meet twice")
                met = i
        if met is not None:
            for i, ((a, b), (da, db)) in enumerate(zip(self.pairs, doms)):
                if i != met:
                    if len(da) == 1:
                        store.remove(b, da[0])
                    if len(db) == 1:
                        store.remove(a, db[0])
        return Status.ACTIVE

    def check(self, values: Sequence[int]) -> bool:
        return sum(values[a] == values[b] for a, b in self.pairs) <= 1


class ReifiedEquals(Propagator):
    """``b = 1  <->  x = y`` with a 0/1 variable ``b``; a ``b`` declared
    over any other value is refused when attached."""

    def __init__(self, x: int, y: int, b: int) -> None:
        self.x = x
        self.y = y
        self.b = b

    def subscriptions(self):
        yield self.x, EventKind.ANY
        yield self.y, EventKind.ANY
        yield self.b, EventKind.INSTANTIATED

    def attach(self, store: Store) -> None:
        if store.min(self.b) < 0 or store.max(self.b) > 1:
            raise ValueError("ReifiedEquals needs b to range within 0..1")

    def propagate(self, store: Store) -> Status:
        x, y, b = self.x, self.y, self.b
        if store.is_fixed(b):
            if store.min(b) == 1:
                dx, dy = store.values(x), store.values(y)
                common = tuple(filter(set(dy).__contains__, dx))
                if not common:
                    raise Inconsistent("reified equality: forced equal but disjoint")
                store.retain(x, dx, common)
                store.retain(y, dy, common)
                if store.is_fixed(x) and store.is_fixed(y):
                    return Status.ENTAILED
            else:
                if store.is_fixed(x):
                    store.remove(y, store.min(x))
                if store.is_fixed(y):
                    store.remove(x, store.min(y))
                if store.is_fixed(x) and store.is_fixed(y):
                    if store.min(x) == store.min(y):
                        raise Inconsistent("reified equality: forced different but equal")
                    return Status.ENTAILED
            return Status.ACTIVE
        if store.is_fixed(x) and store.is_fixed(y):
            store.assign(b, 1 if store.min(x) == store.min(y) else 0)
            return self.propagate(store)
        if store.max(x) < store.min(y) or store.max(y) < store.min(x) or not (
            set(store.values(x)) & set(store.values(y))
        ):
            store.assign(b, 0)
            return Status.ENTAILED
        return Status.ACTIVE

    def check(self, values: Sequence[int]) -> bool:
        return (values[self.b] == 1) == (values[self.x] == values[self.y])


class Conditional(Propagator):
    """Run a body constraint only once two guard variables are fixed equal.

    While the guards are undecided nothing is filtered; once they are proven
    different the wrapper is entailed.  Attaching the wrapper attaches the
    body, when the solver is built and on the declared domains, so its
    set-up (validation, incremental state, watchers) is done, and a refused
    one fails, even where the guards never meet; the body's ``propagate``
    first runs at whatever depth they do.
    """

    def __init__(self, guard_a: int, guard_b: int, body: Propagator) -> None:
        self.guard_a = guard_a
        self.guard_b = guard_b
        self.body = body

    def subscriptions(self):
        yield self.guard_a, EventKind.ANY
        yield self.guard_b, EventKind.ANY
        yield from self.body.subscriptions()

    def attach(self, store: Store) -> None:
        self.body.attach(store)

    def propagate(self, store: Store) -> Status:
        da, db = store.values(self.guard_a), store.values(self.guard_b)
        if len(da) == 1 and len(db) == 1:
            if da[0] == db[0]:
                return self.body.propagate(store)
            return Status.ENTAILED
        if set(da).isdisjoint(db):
            return Status.ENTAILED
        return Status.ACTIVE

    def check(self, values: Sequence[int]) -> bool:
        if values[self.guard_a] != values[self.guard_b]:
            return True
        return self.body.check(values)
