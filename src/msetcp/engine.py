"""Constraint network and search: fixpoint loop, DFS labelling, branch and bound.

Propagators subscribe to variable events through an int mask; the fixpoint
loop is a FIFO queue with per-propagator deduplication.  A propagator is
re-queued by the events its own pruning raises, so a filter subscribed to all
of them need not loop to its own fixpoint: one pass per call suffices.  A
propagator that reports ENTAILED is deactivated for the rest of the branch
(the flag is trailed, so backtracking reactivates it).  Search uses static
variable orders with per-model value orders.  The DFS keeps its open nodes on
an explicit stack, so its depth is not bounded by the interpreter's recursion
limit, and each node resumes the scan for the next unfixed variable where its
parent's scan stopped (domains only shrink down a branch).  Every emitted
solution is re-checked against the ground semantics of all posted constraints.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .store import Inconsistent, Store


class Status(Enum):
    ACTIVE = "active"
    ENTAILED = "entailed"


class SearchTimeout(Exception):
    """Raised when the search deadline expires."""


class Propagator:
    """One constraint's filtering algorithm.

    ``post`` runs once when the network starts up: by default it is
    ``attach`` followed by ``propagate``.  ``attach`` is the one-off set-up
    (state allocation, watcher registration, input validation) and prunes
    nothing; ``post`` is overridden only where the root needs more, such as a
    one-off pruning.
    ``propagate`` is re-run whenever a subscribed event fires.  Both ``post``
    and ``propagate`` raise :class:`Inconsistent` on disentailment.  ``check``
    is the ground-level semantic test used to verify emitted solutions
    independently.
    """

    def subscriptions(self) -> Iterable[tuple[int, int]]:
        return ()

    def attach(self, store: Store) -> None:
        pass

    def post(self, store: Store) -> Status:
        self.attach(store)
        return self.propagate(store)

    def propagate(self, store: Store) -> Status:
        raise NotImplementedError

    def check(self, values: Sequence[int]) -> bool:
        raise NotImplementedError


class Model:
    """Variable declarations plus posted propagators and an optional objective."""

    def __init__(self) -> None:
        self.store = Store()
        self.propagators: list[Propagator] = []
        self.objective: Optional[int] = None

    def new_var(self, values: Iterable[int]) -> int:
        return self.store.new_var(values)

    def post(self, prop: Propagator) -> None:
        self.propagators.append(prop)

    def minimize(self, var: int) -> None:
        self.objective = var


@dataclass
class SearchStats:
    fails: int = 0
    choice_points: int = 0
    wall_time: float = 0.0
    solutions: int = 0
    best_objective: Optional[int] = None


ValueOrder = Callable[[int, tuple[int, ...]], Sequence[int]]


def ascending(var: int, values: tuple[int, ...]) -> Sequence[int]:
    return values


def descending(var: int, values: tuple[int, ...]) -> Sequence[int]:
    return values[::-1]


@dataclass
class Branching:
    """Static variable order plus a value order (ties break toward smaller)."""

    order: Sequence[int]
    value_order: ValueOrder = ascending

    @staticmethod
    def by_key(order: Sequence[int], key: Callable[[int, int], object]) -> "Branching":
        """Order values by ``key(var, value)``, smaller values first on ties."""

        def vo(var: int, values: tuple[int, ...]) -> Sequence[int]:
            return sorted(values, key=lambda v: (key(var, v), v))

        return Branching(order, vo)


class Solver:
    """Propagation network over one model; drives fixpoint and search."""

    def __init__(self, model: Model) -> None:
        self.model = model
        self.store = model.store
        self.props = list(model.propagators)
        n = len(self.props)
        self._subs: dict[int, list[tuple[int, int]]] = {}
        for idx, prop in enumerate(self.props):
            for var, mask in prop.subscriptions():
                self._subs.setdefault(var, []).append((idx, mask))
        self._active = [True] * n
        self._posted = [False] * n
        self._queue: deque[int] = deque(range(n))
        self._queued = [True] * n
        self.stats = SearchStats()
        self._deadline: Optional[float] = None

    # -- propagation ---------------------------------------------------------

    def _deactivate(self, idx: int) -> None:
        self._active[idx] = False

        def undo() -> None:
            self._active[idx] = True

        self.store.trail_undo(undo)

    def _wake_for(self, raw_events: list[tuple[int, int]]) -> None:
        subs, active, queued = self._subs, self._active, self._queued
        enqueue = self._queue.append
        for var, kinds in raw_events:
            for idx, mask in subs.get(var, ()):
                if mask & kinds and active[idx] and not queued[idx]:
                    queued[idx] = True
                    enqueue(idx)

    def fixpoint(self) -> None:
        """Run queued propagators until no propagator changes any domain."""
        store = self.store
        queue = self._queue
        try:
            while queue:
                idx = queue.popleft()
                self._queued[idx] = False
                if not self._active[idx]:
                    continue
                prop = self.props[idx]
                if self._posted[idx]:
                    status = prop.propagate(store)
                else:
                    self._posted[idx] = True
                    status = prop.post(store)
                if status is Status.ENTAILED:
                    self._deactivate(idx)
                self._wake_for(store.take_raw_events())
        except Inconsistent:
            queue.clear()
            for i in range(len(self._queued)):
                self._queued[i] = False
            store.discard_events()
            raise

    def propagate_root(self) -> bool:
        """Initial propagation; False when the model fails at the root."""
        try:
            self.fixpoint()
        except Inconsistent:
            self.stats.fails += 1
            return False
        return True

    # -- search ---------------------------------------------------------------

    def _check_deadline(self) -> None:
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise SearchTimeout

    def _full_order(self, branching: Branching) -> list[int]:
        seen = set(branching.order)
        extra = [v for v in range(self.store.num_vars()) if v not in seen]
        return list(branching.order) + extra

    def _snapshot(self) -> list[int]:
        return [self.store.value(v) for v in range(self.store.num_vars())]

    def _verify(self, values: Sequence[int]) -> None:
        for prop in self.props:
            if not prop.check(values):
                raise RuntimeError(
                    f"solution violates {type(prop).__name__}: propagation is unsound"
                )

    def _branch(self, var: int, values: Iterator[int]) -> bool:
        """Open the next child: push a checkpoint and assign ``var`` the next
        value of ``values`` whose propagation does not fail.  False once
        ``values`` is used up, with no checkpoint left behind.  The deadline
        is checked before each child, so a long run of failing siblings
        cannot overrun it."""
        store = self.store
        stats = self.stats
        for val in values:
            if not store.contains(var, val):
                continue  # bound propagation inside this loop may prune
            self._check_deadline()
            store.push()
            stats.choice_points += 1
            try:
                store.assign(var, val)
                self._wake_for(store.take_raw_events())
                self.fixpoint()
                return True
            except Inconsistent:
                stats.fails += 1
                store.pop()
        return False

    def solve(
        self,
        branching: Branching,
        minimize: Optional[int] = None,
        timeout: Optional[float] = None,
        first_only: bool = True,
    ) -> tuple[Optional[list[int]], SearchStats]:
        """DFS labelling; with ``minimize`` set, branch-and-bound to the optimum.

        Returns the (last) solution as a value list indexed by variable id,
        or None when unsatisfiable.  Raises :class:`SearchTimeout` when the
        time budget runs out.
        """
        stats = self.stats
        order = self._full_order(branching)
        if minimize is not None and minimize not in order:
            order.append(minimize)
        self._deadline = None if timeout is None else time.monotonic() + timeout
        best_sol: Optional[list[int]] = None
        bound: Optional[int] = None
        start = time.monotonic()
        try:
            if not self.propagate_root():
                return None, stats
            store = self.store
            value_order = branching.value_order
            is_fixed = store.is_fixed
            n = len(order)
            # One frame per open node: (var, its index in order, the values
            # not tried yet).  On entering a node the store holds one
            # checkpoint per frame (none at the root); while the deepest frame
            # picks its next child, it holds one fewer.
            stack: list[tuple[int, int, Iterator[int]]] = []
            index = 0
            while True:
                self._check_deadline()
                opened = False
                try:
                    if bound is not None and store.set_max(minimize, bound - 1):
                        self._wake_for(store.take_raw_events())
                        self.fixpoint()
                except Inconsistent:
                    stats.fails += 1  # charged to the choice that led here
                else:
                    # order[:index] was fixed at the parent, and domains only
                    # shrink down a branch, so the scan resumes there
                    while index < n and is_fixed(order[index]):
                        index += 1
                    if index < n:
                        var = order[index]
                        stack.append((var, index, iter(value_order(var, store.values(var)))))
                        opened = True
                    else:
                        sol = self._snapshot()
                        self._verify(sol)
                        stats.solutions += 1
                        best_sol = sol
                        if minimize is not None:
                            bound = sol[minimize]
                            stats.best_objective = bound
                        if minimize is None or first_only:
                            for _ in stack:
                                store.pop()
                            return best_sol, stats
                if not opened:
                    if not stack:
                        break  # the root itself closed
                    store.pop()
                # descend into the next child of the deepest open node,
                # closing the nodes whose values are used up
                while stack:
                    var, index, values = stack[-1]
                    if self._branch(var, values):
                        break
                    stack.pop()
                    if stack:
                        store.pop()
                else:
                    break
            return best_sol, stats
        finally:
            stats.wall_time = time.monotonic() - start


def propagate_to_fixpoint(model: Model) -> bool:
    """Post everything and propagate once; False when the root fails."""
    return Solver(model).propagate_root()


def solve_first(
    model: Model, branching: Branching, timeout: Optional[float] = None
) -> tuple[Optional[list[int]], SearchStats]:
    """First solution of a satisfaction model (verified), or None + stats."""
    return Solver(model).solve(branching, timeout=timeout)


def solve_optimal(
    model: Model, branching: Branching, timeout: Optional[float] = None
) -> tuple[Optional[list[int]], SearchStats]:
    """Minimize the model objective by branch and bound; proof by exhaustion.

    Every incumbent posts a strict-improvement bound on the objective
    variable, so the returned solution (if any) is the global minimum.
    """
    if model.objective is None:
        raise ValueError("solve_optimal requires model.minimize(var)")
    return Solver(model).solve(
        branching, minimize=model.objective, timeout=timeout, first_only=False
    )
