"""Brute-force ground truth for differential testing of propagators.

Everything here works by plain enumeration of total assignments against a
black-box predicate, so the same machinery validates the multiset orderings,
lex orderings, chains, and arbitrary conjunctions.  No cleverness on purpose:
the oracle's value is that it cannot share a bug with the filtering code.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Callable, Iterable, Optional, Sequence

from .order import Ordering, lex_cmp, mset_cmp

DEFAULT_CAP = 10_000_000

Checker = Callable[..., bool]


class CapExceeded(Exception):
    """The instance is too large to enumerate under the configured cap."""


def _candidates(domains: Sequence[Iterable[int]]) -> list[tuple[int, ...]]:
    return list(product(*[sorted(set(d)) for d in domains]))


def _check_cap(vector_domains: Sequence[Sequence[Iterable[int]]], cap: int) -> None:
    total = math.prod(
        math.prod(len(set(d)) for d in doms) for doms in vector_domains
    )
    if total > cap:
        raise CapExceeded(f"{total} assignments exceed cap {cap}")


def brute_force_gac(
    checker: Checker,
    *vector_domains: Sequence[Iterable[int]],
    cap: int = DEFAULT_CAP,
) -> Optional[list[list[set[int]]]]:
    """Exact GAC domains by enumeration, or None when unsatisfiable.

    ``checker`` receives one ground vector (a tuple of ints) per domain group
    and decides satisfaction.  A value survives iff it appears in some
    satisfying total assignment.
    """
    _check_cap(vector_domains, cap)
    groups = [_candidates(doms) for doms in vector_domains]
    supported = [[False] * len(g) for g in groups]
    any_sat = False
    for combo in product(*[range(len(g)) for g in groups]):
        if checker(*[g[i] for g, i in zip(groups, combo)]):
            any_sat = True
            for marks, i in zip(supported, combo):
                marks[i] = True
    if not any_sat:
        return None
    out: list[list[set[int]]] = []
    for doms, cands, marks in zip(vector_domains, groups, supported):
        sets: list[set[int]] = [set() for _ in doms]
        for cand, ok in zip(cands, marks):
            if ok:
                for s, v in zip(sets, cand):
                    s.add(v)
        out.append(sets)
    return out


def brute_force_disentailed(
    checker: Checker, *vector_domains: Sequence[Iterable[int]], cap: int = DEFAULT_CAP
) -> bool:
    """True iff every total assignment violates the checker."""
    _check_cap(vector_domains, cap)
    groups = [_candidates(doms) for doms in vector_domains]
    return not any(checker(*vecs) for vecs in product(*groups))


def brute_force_entailed(
    checker: Checker, *vector_domains: Sequence[Iterable[int]], cap: int = DEFAULT_CAP
) -> bool:
    """True iff every total assignment satisfies the checker."""
    _check_cap(vector_domains, cap)
    groups = [_candidates(doms) for doms in vector_domains]
    return all(checker(*vecs) for vecs in product(*groups))


# -- ready-made checkers -------------------------------------------------------


def mset_leq(x: tuple[int, ...], y: tuple[int, ...]) -> bool:
    return mset_cmp(x, y) is not Ordering.GREATER


def mset_less(x: tuple[int, ...], y: tuple[int, ...]) -> bool:
    return mset_cmp(x, y) is Ordering.LESS


def lex_leq(x: tuple[int, ...], y: tuple[int, ...]) -> bool:
    return lex_cmp(x, y) is not Ordering.GREATER


def lex_less(x: tuple[int, ...], y: tuple[int, ...]) -> bool:
    return lex_cmp(x, y) is Ordering.LESS


def chain(pair_checker: Checker, adjacent_only: bool = True) -> Checker:
    """Conjunction of a pairwise checker over a sequence of vectors."""

    def checked(*vecs: tuple[int, ...]) -> bool:
        n = len(vecs)
        if adjacent_only:
            return all(pair_checker(vecs[i], vecs[i + 1]) for i in range(n - 1))
        return all(
            pair_checker(vecs[i], vecs[j]) for i in range(n) for j in range(i + 1, n)
        )

    return checked


# -- fixpoint comparison --------------------------------------------------------


class Relation(Enum):
    EQUAL = "equal"
    LEFT_STRICTLY_STRONGER = "left_strictly_stronger"
    RIGHT_STRICTLY_STRONGER = "right_strictly_stronger"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class FixpointRelation:
    relation: Relation
    witness: Optional[tuple[int, int]] = None  # (position, value) present on one side only


def classify_fixpoints(
    left: Sequence[Iterable[int]], right: Sequence[Iterable[int]]
) -> FixpointRelation:
    """Pointwise strength comparison of two domain lists of the same shape.

    Left strictly stronger means every left domain is a subset of the right
    one with at least one strict inclusion; the witness names a value the
    stronger side pruned.
    """
    if len(left) != len(right):
        raise ValueError("fixpoint shapes differ")
    ls = [set(d) for d in left]
    rs = [set(d) for d in right]
    left_extra = None  # value present only on the left
    right_extra = None
    for pos, (a, b) in enumerate(zip(ls, rs)):
        only_left = a - b
        only_right = b - a
        if only_left and left_extra is None:
            left_extra = (pos, min(only_left))
        if only_right and right_extra is None:
            right_extra = (pos, min(only_right))
    if left_extra is None and right_extra is None:
        return FixpointRelation(Relation.EQUAL)
    if left_extra is None:
        return FixpointRelation(Relation.LEFT_STRICTLY_STRONGER, right_extra)
    if right_extra is None:
        return FixpointRelation(Relation.RIGHT_STRICTLY_STRONGER, left_extra)
    return FixpointRelation(Relation.INCOMPARABLE, None)


# -- seeded instance generation ---------------------------------------------------


@dataclass(frozen=True)
class InstanceSpec:
    """Shape of a random two-vector instance; same seed, same instance."""

    n_x: int
    n_y: int
    num_values: int
    max_domain_size: int
    seed: int

    def generate(self) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
        rng = random.Random(self.seed)

        def domain() -> tuple[int, ...]:
            size = 1 + rng.randrange(min(self.max_domain_size, self.num_values))
            vals: set[int] = set()
            while len(vals) < size:
                vals.add(rng.randrange(self.num_values))
            return tuple(sorted(vals))

        xs = [domain() for _ in range(self.n_x)]
        ys = [domain() for _ in range(self.n_y)]
        return xs, ys


def random_instances(
    count: int,
    seed: int,
    max_len: int = 5,
    max_values: int = 5,
    max_domain_size: int = 3,
    equal_lengths: bool = True,
) -> Iterable[tuple[list[tuple[int, ...]], list[tuple[int, ...]]]]:
    """Stream of reproducible random instances (lengths and ranges vary)."""
    rng = random.Random(seed)
    for _ in range(count):
        n_x = 1 + rng.randrange(max_len)
        n_y = n_x if equal_lengths else 1 + rng.randrange(max_len)
        spec = InstanceSpec(
            n_x=n_x,
            n_y=n_y,
            num_values=1 + rng.randrange(max_values),
            max_domain_size=max_domain_size,
            seed=rng.getrandbits(64),
        )
        yield spec.generate()
