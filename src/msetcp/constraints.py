"""Constraint library for the benchmark models and the alternative encodings.

Filtering strengths are deliberately heterogeneous and documented per class:
the lexicographic ordering filter is GAC; the cardinality filter does
counting-based bounds reasoning in both directions; the sortedness channel is
a bounds-and-counting filter (not full GAC); all-different only reacts to
instantiations.  The arithmetic encoding of the multiset ordering uses exact
big-integer weights and is bounds consistent, which for that constraint
coincides with GAC.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
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


class Cardinality(Propagator):
    """Counting-based cardinality filter linking values to occurrence variables.

    ``occ[k]`` counts how many of ``xs`` take ``values[k]``; the value list is
    strictly decreasing and must cover every value the variables can take.
    Occurrence bounds are tightened from the fixed/candidate counts, and
    saturated bounds force or forbid values on the variable side.
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
        xs = self.xs
        changed = True
        while changed:
            changed = False
            for val, o in zip(self.vals, self.occ):
                fixed = 0
                cands = []
                for x in xs:
                    if store.contains(x, val):
                        if store.is_fixed(x):
                            fixed += 1
                        else:
                            cands.append(x)
                changed |= store.set_min(o, fixed)
                changed |= store.set_max(o, fixed + len(cands))
                if cands and store.min(o) == fixed + len(cands):
                    for x in cands:
                        store.assign(x, val)
                    changed = True
                elif cands and store.max(o) == fixed:
                    for x in cands:
                        store.remove(x, val)
                    changed = True
        return Status.ACTIVE

    def check(self, values: Sequence[int]) -> bool:
        for val, o in zip(self.vals, self.occ):
            if sum(1 for x in self.xs if values[x] == val) != values[o]:
                return False
        return True


class SortednessLink(Propagator):
    """Channel ``sorted_desc`` between ``xs`` and its non-increasing view ``sxs``.

    Bounds-and-counting filter: position k of the sorted vector is confined by
    the k-th largest domain bounds of ``xs``, values absent from one side are
    dropped from the other, per-value occurrence counts must agree on both
    sides, and the sorted vector is kept non-increasing.  Not full GAC, but
    strong enough to dominate the pure counting decomposition.
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

    def _pass(self, store: Store) -> bool:
        xs, sxs = self.xs, self.sxs
        n = len(xs)
        changed = False
        # keep the sorted view non-increasing
        for k in range(n - 1):
            changed |= store.set_min(sxs[k], store.min(sxs[k + 1]))
            changed |= store.set_max(sxs[k + 1], store.max(sxs[k]))
        # position bounds: k-th largest of the per-variable bounds
        maxs = sorted((store.max(x) for x in xs), reverse=True)
        mins = sorted((store.min(x) for x in xs), reverse=True)
        for k in range(n):
            changed |= store.set_max(sxs[k], maxs[k])
            changed |= store.set_min(sxs[k], mins[k])
        # values present on one side only can be dropped from the other
        x_union = set()
        for x in xs:
            x_union.update(store.values(x))
        s_union = set()
        for s in sxs:
            s_union.update(store.values(s))
        for s in sxs:
            changed |= store.retain(s, x_union)
        for x in xs:
            changed |= store.retain(x, s_union)
        # per-value occurrence counts must agree
        for val in sorted(x_union | s_union, reverse=True):
            x_fixed, x_cand = 0, []
            for x in xs:
                if store.contains(x, val):
                    if store.is_fixed(x):
                        x_fixed += 1
                    else:
                        x_cand.append(x)
            s_fixed, s_cand = 0, []
            for s in sxs:
                if store.contains(s, val):
                    if store.is_fixed(s):
                        s_fixed += 1
                    else:
                        s_cand.append(s)
            lo = max(x_fixed, s_fixed)
            hi = min(x_fixed + len(x_cand), s_fixed + len(s_cand))
            if lo > hi:
                raise Inconsistent(f"sortedness: value {val} count mismatch")
            if lo == x_fixed + len(x_cand) and x_cand:
                for x in x_cand:
                    store.assign(x, val)
                changed = True
            if lo == s_fixed + len(s_cand) and s_cand:
                for s in s_cand:
                    store.assign(s, val)
                changed = True
            if hi == x_fixed:
                for x in x_cand:
                    store.remove(x, val)
                changed = changed or bool(x_cand)
            if hi == s_fixed:
                for s in s_cand:
                    store.remove(s, val)
                changed = changed or bool(s_cand)
        return changed

    def propagate(self, store: Store) -> Status:
        while self._pass(store):
            pass
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
    elements break the tie), and a base above both lengths otherwise.
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
        self._powers: list[int] = [1]

    def _pow(self, v: int) -> int:
        powers = self._powers
        while len(powers) <= v:
            powers.append(powers[-1] * self.base)
        return powers[v]

    def post(self, store: Store) -> Status:
        for v in self.xs + self.ys:
            if store.min(v) < 0:
                raise ValueError("arithmetic encoding requires non-negative values")
        return self.propagate(store)

    def propagate(self, store: Store) -> Status:
        pw = self._pow
        margin = 1 if self.strict else 0
        lhs_min = sum(pw(store.min(x)) for x in self.xs)
        rhs_max = sum(pw(store.max(y)) for y in self.ys)
        if lhs_min + margin > rhs_max:
            raise Inconsistent("arithmetic multiset encoding disentailed")
        for x in self.xs:
            pw(store.max(x))  # make sure the power table covers the domain
            slack = rhs_max - margin - (lhs_min - pw(store.min(x)))
            ub = bisect_right(self._powers, slack) - 1
            store.set_max(x, ub)
        for y in self.ys:
            need = lhs_min + margin - (rhs_max - pw(store.max(y)))
            if need > 0:
                store.set_min(y, bisect_left(self._powers, need))
        return Status.ACTIVE

    def check(self, values: Sequence[int]) -> bool:
        lhs = sum(self.base ** values[x] for x in self.xs)
        rhs = sum(self.base ** values[y] for y in self.ys)
        return lhs < rhs if self.strict else lhs <= rhs


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
        done: set[int] = set()
        while True:
            progress = False
            for x in xs:
                if x in done or not store.is_fixed(x):
                    continue
                val = store.min(x)
                for other in xs:
                    if other != x:
                        if store.is_fixed(other) and store.min(other) == val:
                            raise Inconsistent("all-different: duplicate value")
                        if store.remove(other, val):
                            progress = True
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
    """GAC on an explicit list of allowed tuples, by support scan."""

    def __init__(self, xs: Sequence[int], tuples: Sequence[tuple[int, ...]]) -> None:
        arity = len(xs)
        if any(len(t) != arity for t in tuples):
            raise ValueError("tuple arity mismatch")
        self.xs = list(xs)
        self.tuples = [tuple(t) for t in tuples]

    def subscriptions(self):
        for v in self.xs:
            yield v, EventKind.ANY

    def propagate(self, store: Store) -> Status:
        xs = self.xs
        supported = [set() for _ in xs]
        alive = 0
        for t in self.tuples:
            if all(store.contains(x, v) for x, v in zip(xs, t)):
                alive += 1
                for s, v in zip(supported, t):
                    s.add(v)
        if alive == 0:
            raise Inconsistent("table constraint: no tuple survives")
        for x, s in zip(xs, supported):
            store.retain(x, s)
        if alive == 1:
            return Status.ENTAILED
        return Status.ACTIVE

    def check(self, values: Sequence[int]) -> bool:
        return tuple(values[x] for x in self.xs) in set(self.tuples)


class LinearSum(Propagator):
    """Bounds consistency on ``sum(c_i * x_i) <= k`` or ``== k``."""

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

    def _enforce_le(self, store: Store, sign: int, bound: int) -> None:
        """Propagate sum(sign * c_i * x_i) <= bound."""
        total_min = 0
        for c, x in zip(self.coeffs, self.xs):
            sc = sign * c
            total_min += sc * (store.min(x) if sc > 0 else store.max(x))
        if total_min > bound:
            raise Inconsistent("linear sum infeasible")
        for c, x in zip(self.coeffs, self.xs):
            sc = sign * c
            own_min = sc * (store.min(x) if sc > 0 else store.max(x))
            slack = bound - (total_min - own_min)
            if sc > 0:
                store.set_max(x, slack // sc)
            else:
                store.set_min(x, -((-slack) // sc))  # ceil(slack / sc), sc < 0

    def propagate(self, store: Store) -> Status:
        self._enforce_le(store, 1, self.constant)
        if self.relation == "==":
            self._enforce_le(store, -1, -self.constant)
        if all(store.is_fixed(x) for x in self.xs):
            return Status.ENTAILED
        return Status.ACTIVE

    def check(self, values: Sequence[int]) -> bool:
        total = sum(c * values[x] for c, x in zip(self.coeffs, self.xs))
        return total <= self.constant if self.relation == "<=" else total == self.constant


def sum_eq(xs: Sequence[int], constant: int) -> LinearSum:
    return LinearSum([1] * len(xs), xs, "==", constant)


def sum_le(xs: Sequence[int], constant: int) -> LinearSum:
    return LinearSum([1] * len(xs), xs, "<=", constant)


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
    different the wrapper is entailed.  The body must filter statelessly (its
    ``propagate`` may be first called at any search depth), so incremental
    variants are not suitable bodies; use their stateless counterparts.
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
