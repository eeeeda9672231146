"""Constraint network and search: fixpoint loop, DFS labelling, branch and bound.

Propagators subscribe to variable events through an int mask; the fixpoint
loop is a FIFO queue with per-propagator deduplication, and only propagates:
the solver attaches every propagator, in post order, when it is built, so a
set-up that refuses its input fails the construction.  The solver registers
the subscriptions on the model's store and hands it the queue, so every
shrink queues its subscribers itself, in the order the events are raised and
each variable's subscribers in post order (the queued flag drops repeated
wakes).  A search decision is therefore just a store mutation, which queues
what it wakes, followed by :meth:`Solver.fixpoint`.  A propagator that is not
declared idempotent is re-queued by the events its own pruning raises, so a
filter subscribed to all of them need not loop to its own fixpoint: one pass
per call suffices.  An idempotent propagator (one call always leaves it at
its own fixpoint; trusted only when it subscribes to no variable twice) is
not woken by its own events, only by other propagators' and by search
decisions (Schulte & Stuckey, "Efficient Constraint Propagation Engines",
TOPLAS 2008).  A propagator that reports ENTAILED is deactivated for the rest
of the branch (the flag is trailed, so backtracking reactivates it).  Search
uses static variable orders with per-model value orders.  The DFS keeps its
open nodes on an explicit stack, so its depth is not bounded by the
interpreter's recursion limit, and each node resumes the scan for the next
unfixed variable where its parent's scan stopped (domains only shrink down a
branch).  Every emitted solution is re-checked against the ground semantics
of all posted constraints.
"""

from __future__ import annotations

import math
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

    ``attach`` is the one-off set-up (state allocation, watcher
    registration, input validation) and prunes nothing; :class:`Solver`
    runs it for every propagator when it is built, and from then on calls
    only ``propagate``, from the root queue and whenever a subscribed event
    fires.  ``post`` (``attach``, then ``propagate``) is the stand-alone
    entry on a bare store, which the engine never calls, so every pruning
    a constraint makes is in ``propagate``.  Both raise
    :class:`Inconsistent` on disentailment.  ``check`` is the ground-level
    semantic test used to verify emitted solutions independently.

    ``idempotent`` declares that one ``propagate`` always leaves
    the propagator at its own fixpoint: run again at once, it would change no
    domain and raise nothing.  The engine then does not re-queue it on the
    events of its own call.  Declare it on the class, and only when it holds
    for every domain over distinct variables: the engine ignores it for a
    propagator that subscribes to a variable twice.  A wrong declaration
    loses pruning silently.
    """

    idempotent = False

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
    """Variable declarations plus posted propagators and an optional objective.

    One :class:`Solver` runs a model: it attaches the propagators to the
    model's store, so the model cannot be handed to a second one.
    """

    def __init__(self) -> None:
        self.store = Store()
        self.propagators: list[Propagator] = []
        self.objective: Optional[int] = None
        self._taken = False  # whether a Solver runs this model

    def new_var(self, values: Iterable[int]) -> int:
        return self.store.new_var(values)

    def post(self, prop: Propagator) -> None:
        self.propagators.append(prop)

    def minimize(self, var: int) -> None:
        self.objective = var


@dataclass
class SearchStats:
    """What a solver's searches did.  Every field counts over the solver's
    life: each ``solve`` adds its fails, choice points, solutions and
    ``wall_time`` (seconds), and ``best_objective`` is the objective of the
    last solution found."""

    fails: int = 0
    choice_points: int = 0
    wall_time: float = 0.0
    solutions: int = 0
    best_objective: Optional[int] = None


ValueOrder = Callable[[int, tuple[int, ...]], Sequence[int]]


def ascending(var: int, values: tuple[int, ...]) -> Sequence[int]:
    return values


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
        # a second network would attach every propagator again on the same
        # store, so a dedicated filter would watch its variables twice and
        # count every bound change twice
        if model._taken:
            raise ValueError("this Model already has a Solver; build a new Model for another one")
        self.model = model
        self.store = model.store
        self.props = list(model.propagators)
        n = len(self.props)
        by_var: dict[int, list[tuple[int, int]]] = {}
        self._idempotent: list[bool] = []
        for idx, prop in enumerate(self.props):
            subs = list(prop.subscriptions())
            for var, mask in subs:
                by_var.setdefault(var, []).append((idx, mask))
            # a declared idempotence holds only over distinct variables
            self._idempotent.append(prop.idempotent and len(dict(subs)) == len(subs))
        # an unheld variable is never woken, and -1 would read the last one
        for var, subs in by_var.items():
            if var not in range(self.store.num_vars()):
                name = type(self.props[subs[0][0]]).__name__
                raise ValueError(f"{name} subscribes to variable {var}, which the store lacks")
        # taken first: a refused set-up may already have registered watchers
        model._taken = True
        for prop in self.props:
            prop.attach(self.store)
        self._active = [True] * n
        self._queue: deque[int] = deque(range(n))
        self._queued = [True] * n
        self.store.dispatch_to(by_var, self._active, self._queued, self._queue.append)
        self.stats = SearchStats()
        self._deadline: Optional[float] = None
        self._root_failed = False

    # -- propagation ---------------------------------------------------------

    def _deactivate(self, idx: int) -> None:
        self._active[idx] = False

        def undo() -> None:
            self._active[idx] = True

        self.store.trail_undo(undo)

    def fixpoint(self) -> None:
        """Run queued propagators until no propagator changes any domain.

        A search decision made before it starts has already queued the
        propagators it wakes.  An idempotent propagator stays marked as
        queued during its own call, so the events it raises do not wake it
        again.  A failure while the store holds no checkpoint is final:
        nothing can undo its partial pruning, so :meth:`propagate_root`
        reports failure from then on."""
        store = self.store
        queue = self._queue
        popleft = queue.popleft
        props, active = self.props, self._active
        queued, idempotent = self._queued, self._idempotent
        entailed = Status.ENTAILED
        try:
            while queue:
                idx = popleft()
                if not active[idx]:
                    queued[idx] = False
                    continue
                idem = idempotent[idx]
                if not idem:
                    queued[idx] = False
                if props[idx].propagate(store) is entailed:
                    self._deactivate(idx)
                if idem:
                    queued[idx] = False
        except Inconsistent:
            for i in queue:
                queued[i] = False
            queue.clear()
            queued[idx] = False
            if not store.depth():
                self._root_failed = True
            raise

    def propagate_root(self) -> bool:
        """Initial propagation; False when the model fails at the root, and
        on every call after a failure at the root (counted once, when it
        happened), so a failed model is never searched."""
        if self._root_failed:
            return False
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
        first_only: bool = False,
    ) -> tuple[Optional[list[int]], SearchStats]:
        """DFS labelling; with ``minimize`` set, branch-and-bound to the optimum.

        Returns the (last) solution as a value list indexed by variable id,
        or None when unsatisfiable.  Without ``minimize`` the first solution
        ends the search; with it, the search goes on until the last incumbent
        is proved optimal, unless ``first_only`` stops it at the first one.
        Raises :class:`SearchTimeout` when the time budget runs out, and
        ValueError, before any search, on a NaN budget, which never would, or
        on a branching or objective variable that the store does not hold.
        Every exit, by a return or by an exception (the deadline's, or one
        raised by the value order), leaves the store at the depth it had on
        entry, so a later ``solve`` starts from the same domains.
        """
        if timeout is not None and math.isnan(timeout):
            raise ValueError("timeout is NaN")
        # an index past the store crashes, and -1 would replay as a trail tag
        held = range(self.store.num_vars())
        if minimize is not None and minimize not in held:
            raise ValueError(f"minimize names variable {minimize!r}, which the store lacks")
        for var in branching.order:
            if var not in held:
                raise ValueError(f"branching names variable {var!r}, which the store lacks")
        stats = self.stats
        store = self.store
        order = self._full_order(branching)
        self._deadline = None if timeout is None else time.monotonic() + timeout
        best_sol: Optional[list[int]] = None
        bound: Optional[int] = None
        start = time.monotonic()
        depth = store.depth()
        try:
            if not self.propagate_root():
                return None, stats
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
            # a first solution, or an exception that stops the search, leaves
            # the checkpoints of the open branch
            while store.depth() > depth:
                store.pop()
            stats.wall_time += time.monotonic() - start


def propagate_to_fixpoint(model: Model) -> bool:
    """Attach everything and propagate once; False when the root fails."""
    return Solver(model).propagate_root()
