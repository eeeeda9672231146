"""Constraint library for the benchmark models and the alternative encodings.

Filtering strengths are deliberately heterogeneous and documented per class:
the lexicographic ordering filter is GAC; the cardinality filter and the
sortedness channel are bounds-and-counting filters (not full GAC) built on
one per-value tally and one force/forbid rule, one pass per call, left to the
engine's queue to re-run; all-different only reacts to instantiations.  The
linear sums are bounds consistent from one read of the domains per call: a
term is cut only when its span exceeds the slack, and a sum is entailed as
soon as its worst case holds, fixed variables or not.  The table constraint
is GAC by support bitsets (one bit per allowed tuple, one AND per variable)
and is entailed when exactly one allowed tuple is left.  The arithmetic
encoding of the multiset ordering uses exact big-integer weights and is
bounds consistent, which for that constraint coincides with GAC.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from typing import Sequence

from .engine import Propagator, Status
from .mset import MultisetPair
from .mset import StatelessMultisetOrdering  # re-exported beside Conditional, its host
from .order import Ordering, lex_cmp, sort_desc
from .store import EventKind, Inconsistent, Store


class LexOrdering(Propagator):
    """GAC filter for ``X <=lex Y`` (``<lex`` with strict), equal lengths.

    Walks the most significant indices whose pairs are not yet fixed equal;
    at the first such index the pair is forced weakly or strictly ordered
    depending on whether the remaining suffix can still rescue equality.
    """

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

    def _suffix_can_equalize(self, store: Store, start: int) -> bool:
        """True when the vectors from ``start`` on can still satisfy the
        (strictness-adjusted) ordering under forced equality above."""
        for t in range(start, len(self.xs)):
            lo = store.min(self.xs[t])
            hi = store.max(self.ys[t])
            if lo < hi:
                return True
            if lo > hi:
                return False
        return not self.strict

    def propagate(self, store: Store) -> Status:
        xs, ys = self.xs, self.ys
        n = len(xs)
        i = 0
        while i < n:
            x, y = xs[i], ys[i]
            if (
                store.is_fixed(x)
                and store.is_fixed(y)
                and store.min(x) == store.min(y)
            ):
                i += 1
                continue
            can_eq = self._suffix_can_equalize(store, i + 1)
            if can_eq:
                store.set_max(x, store.max(y))
                store.set_min(y, store.min(x))
            else:
                store.set_max(x, store.max(y) - 1)
                store.set_min(y, store.min(x) + 1)
            if store.min(x) < store.max(y):
                break
            i += 1  # pair just became fixed equal
        else:
            if self.strict:
                raise Inconsistent("lex ordering: vectors fixed equal")
            return Status.ENTAILED
        worst = lex_cmp(
            tuple(store.max(v) for v in xs), tuple(store.min(v) for v in ys)
        )
        if worst is Ordering.LESS or (worst is Ordering.EQUAL and not self.strict):
            return Status.ENTAILED
        return Status.ACTIVE

    def check(self, values: Sequence[int]) -> bool:
        cmp = lex_cmp([values[v] for v in self.xs], [values[v] for v in self.ys])
        if self.strict:
            return cmp is Ordering.LESS
        return cmp is not Ordering.GREATER


def _tally(store: Store, variables: Sequence[int]) -> dict[int, list]:
    """``{value: [fixed, candidates]}`` over the union of the domains: how many
    of ``variables`` are fixed to each value and which unfixed ones can still
    take it.  Reads each domain tuple once."""
    tally: dict[int, list] = defaultdict(lambda: [0, []])
    for x, dom in zip(variables, map(store.values, variables)):
        if len(dom) == 1:
            tally[dom[0]][0] += 1
        else:
            for val in dom:
                tally[val][1].append(x)
    return tally


def _settle(store: Store, val: int, fixed: int, cands: Sequence[int], lo: int, hi: int) -> None:
    """Force or forbid ``val``, which occurs ``lo..hi`` times among variables
    of which ``fixed`` take it and ``cands`` still may: every candidate takes
    it when ``lo`` needs them all, none when ``fixed`` already reaches ``hi``.
    A tally taken before cuts made since is a superset of the domains, so both
    cuts stay implied and fail exactly when the counts are infeasible."""
    if lo == fixed + len(cands):
        for x in cands:
            store.assign(x, val)
    elif hi == fixed:
        for x in cands:
            store.remove(x, val)


class Cardinality(Propagator):
    """Counting-based cardinality filter linking values to occurrence variables.

    ``occ[k]`` counts how many of ``xs`` take ``values[k]``; the value list is
    strictly decreasing and must cover every value the variables can take.
    Occurrence bounds are tightened from the fixed/candidate counts, and
    saturated bounds force or forbid values on the variable side, in one pass
    per call: the engine re-runs it on its own events.
    """

    def __init__(self, xs: Sequence[int], values: Sequence[int], occ: Sequence[int]) -> None:
        if len(values) != len(occ):
            raise ValueError("one occurrence variable per value required")
        if any(a <= b for a, b in zip(values, values[1:])):
            raise ValueError("value list must be strictly decreasing")
        self.xs = list(xs)
        self.vals = list(values)
        self.occ = list(occ)

    def subscriptions(self):
        for v in self.xs:
            yield v, EventKind.ANY
        for v in self.occ:
            yield v, EventKind.BOUNDS

    def post(self, store: Store) -> Status:
        allowed = set(self.vals)
        for x in self.xs:
            store.retain(x, allowed)
        return self.propagate(store)

    def propagate(self, store: Store) -> Status:
        tally = _tally(store, self.xs)
        for val, o in zip(self.vals, self.occ):
            fixed, cands = tally[val]
            store.set_min(o, fixed)
            store.set_max(o, fixed + len(cands))
            _settle(store, val, fixed, cands, store.min(o), store.max(o))
        return Status.ACTIVE

    def check(self, values: Sequence[int]) -> bool:
        for val, o in zip(self.vals, self.occ):
            if sum(1 for x in self.xs if values[x] == val) != values[o]:
                return False
        return True


class SortednessLink(Propagator):
    """Channel ``sorted_desc`` between ``xs`` and its non-increasing view ``sxs``.

    Bounds-and-counting filter: position k of the sorted vector is confined by
    the k-th largest domain bounds of ``xs``, per-value occurrence counts must
    agree on both sides (so values absent from one side are dropped from the
    other), and the sorted vector is kept non-increasing, in one pass per call
    as for :class:`Cardinality`.  Not full GAC, but strong enough to dominate
    the pure counting decomposition.
    """

    def __init__(self, xs: Sequence[int], sxs: Sequence[int]) -> None:
        if len(xs) != len(sxs):
            raise ValueError("sorted view must have the same length")
        self.xs = list(xs)
        self.sxs = list(sxs)

    def subscriptions(self):
        for v in self.xs:
            yield v, EventKind.ANY
        for v in self.sxs:
            yield v, EventKind.ANY

    def propagate(self, store: Store) -> Status:
        xs, sxs = self.xs, self.sxs
        n = len(xs)
        # keep the sorted view non-increasing
        for k in range(n - 1):
            store.set_min(sxs[k], store.min(sxs[k + 1]))
            store.set_max(sxs[k + 1], store.max(sxs[k]))
        # position bounds: k-th largest of the per-variable bounds
        maxs = sorted((store.max(x) for x in xs), reverse=True)
        mins = sorted((store.min(x) for x in xs), reverse=True)
        for k in range(n):
            store.set_max(sxs[k], maxs[k])
            store.set_min(sxs[k], mins[k])
        # per-value occurrence counts must agree
        x_tally = _tally(store, xs)
        s_tally = _tally(store, sxs)
        for val in x_tally.keys() | s_tally.keys():
            x_fixed, x_cands = x_tally[val]
            s_fixed, s_cands = s_tally[val]
            lo = max(x_fixed, s_fixed)
            hi = min(x_fixed + len(x_cands), s_fixed + len(s_cands))
            if lo > hi:
                raise Inconsistent(f"sortedness: value {val} count mismatch")
            _settle(store, val, x_fixed, x_cands, lo, hi)
            _settle(store, val, s_fixed, s_cands, lo, hi)
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
    two produce identical search trees.  Requires non-negative values and a
    base that keeps the sums exact: ``base >= max(2, n)`` for two vectors of
    length ``n`` (``n`` copies of ``v`` weigh as much as one ``v + 1`` only
    when they fill a whole vector, and then the other vector's remaining
    elements break the tie), and a base above both lengths otherwise; such a
    base makes the inherited multiset ``check`` agree with the weight sums.
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
        vs = self.xs + self.ys
        if any(store.min(v) < 0 for v in vs):
            raise ValueError("arithmetic encoding requires non-negative values")
        # domains only shrink after set-up, so the table covers every weight
        top = max((store.max(v) for v in vs), default=0)
        self._powers = [self.base**k for k in range(top + 1)]

    def propagate(self, store: Store) -> Status:
        powers = self._powers
        margin = 1 if self.strict else 0
        lhs_min = sum(powers[store.min(x)] for x in self.xs)
        rhs_max = sum(powers[store.max(y)] for y in self.ys)
        if lhs_min + margin > rhs_max:
            raise Inconsistent("arithmetic multiset encoding disentailed")
        for x in self.xs:
            slack = rhs_max - margin - (lhs_min - powers[store.min(x)])
            store.set_max(x, bisect_right(powers, slack) - 1)
        for y in self.ys:
            need = lhs_min + margin - (rhs_max - powers[store.max(y)])
            if need > 0:
                store.set_min(y, bisect_left(powers, need))
        return Status.ACTIVE


class AllDifferent(Propagator):
    """Instantiation-triggered all-different (weaker than matching-based GAC).

    A fixed variable's value is removed from every other domain; cascades
    within one call.  Unfixed variables are never pruned against each other.
    """

    def __init__(self, xs: Sequence[int]) -> None:
        self.xs = list(xs)

    def subscriptions(self):
        for v in self.xs:
            yield v, EventKind.INSTANTIATED

    def propagate(self, store: Store) -> Status:
        xs = self.xs
        domain = store.values
        done: set[int] = set()
        while True:
            progress = False
            for x in xs:
                if x in done:
                    continue
                dom = domain(x)
                if len(dom) != 1:
                    continue
                val = dom[0]
                for other in xs:
                    if other != x and val in domain(other):
                        if len(domain(other)) == 1:
                            raise Inconsistent("all-different: duplicate value")
                        store.remove(other, val)
                done.add(x)
                progress = True
            if not progress:
                break
        if len(done) == len(xs):
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
    """

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

    def subscriptions(self):
        for v in self.xs:
            yield v, EventKind.ANY

    def propagate(self, store: Store) -> Status:
        doms = [store.values(x) for x in self.xs]
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
                    store.retain(x, {w for w in dom if masks.get(w, 0) & live})
                    break
        if not live & (live - 1):
            return Status.ENTAILED
        return Status.ACTIVE

    def check(self, values: Sequence[int]) -> bool:
        return tuple(values[x] for x in self.xs) in self._allowed


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

    def subscriptions(self):
        for v in self.xs:
            yield v, EventKind.BOUNDS

    def propagate(self, store: Store) -> Status:
        k = self.constant
        terms = list(zip(self.coeffs, self.xs, map(store.values, self.xs)))
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


class LessThan(Propagator):
    """GAC on ``x < y``."""

    def __init__(self, x: int, y: int) -> None:
        self.x = x
        self.y = y

    def subscriptions(self):
        yield self.x, EventKind.BOUNDS
        yield self.y, EventKind.BOUNDS

    def propagate(self, store: Store) -> Status:
        store.set_max(self.x, store.max(self.y) - 1)
        store.set_min(self.y, store.min(self.x) + 1)
        if store.max(self.x) < store.min(self.y):
            return Status.ENTAILED
        return Status.ACTIVE

    def check(self, values: Sequence[int]) -> bool:
        return values[self.x] < values[self.y]


class ReifiedEquals(Propagator):
    """``b = 1  <->  x = y`` with a 0/1 variable ``b``."""

    def __init__(self, x: int, y: int, b: int) -> None:
        self.x = x
        self.y = y
        self.b = b

    def subscriptions(self):
        yield self.x, EventKind.ANY
        yield self.y, EventKind.ANY
        yield self.b, EventKind.INSTANTIATED

    def propagate(self, store: Store) -> Status:
        x, y, b = self.x, self.y, self.b
        if store.is_fixed(b):
            if store.min(b) == 1:
                common = set(store.values(x)) & set(store.values(y))
                if not common:
                    raise Inconsistent("reified equality: forced equal but disjoint")
                store.retain(x, common)
                store.retain(y, common)
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
    different the wrapper is entailed.  Posting the wrapper attaches the body
    at the root, where the domains are widest, so its set-up (validation,
    incremental state, watchers) is done before its ``propagate`` first runs
    at whatever depth the guards meet.  A body's own ``post`` is not run, so
    a body must not rely on root pruning done there.
    """

    def __init__(self, guard_a: int, guard_b: int, body: Propagator) -> None:
        self.guard_a = guard_a
        self.guard_b = guard_b
        self.body = body

    def subscriptions(self):
        yield self.guard_a, EventKind.ANY
        yield self.guard_b, EventKind.ANY
        yield from self.body.subscriptions()

    def post(self, store: Store) -> Status:
        self.body.attach(store)
        return self.propagate(store)

    def propagate(self, store: Store) -> Status:
        a, b = self.guard_a, self.guard_b
        if store.is_fixed(a) and store.is_fixed(b):
            if store.min(a) == store.min(b):
                return self.body.propagate(store)
            return Status.ENTAILED
        if not set(store.values(a)) & set(store.values(b)):
            return Status.ENTAILED
        return Status.ACTIVE

    def check(self, values: Sequence[int]) -> bool:
        if values[self.guard_a] != values[self.guard_b]:
            return True
        return self.body.check(values)
