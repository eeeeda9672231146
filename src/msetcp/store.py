"""Trailed finite integer domains with modification events and bound watchers.

A domain is a sorted tuple of ints; every mutation shrinks it.  Shrinks are
recorded on a trail so that :meth:`Store.pop` restores each domain bit-exactly
to its state at the matching :meth:`Store.push`.  Bound watchers fire on every
min/max transition, in both directions (shrink and restore), which lets
propagators keep derived state such as occurrence vectors in sync with the
domains at all times.  Modification events are plain int bit masks (the
:class:`EventKind` constants), so building, merging and testing them costs
one int operation each.

A propagator reads a vector's domains in one call (:meth:`Store.domains`)
and narrows a variable in one write (:meth:`Store.retain`) to ``kept``, the
sorted sub-tuple it computed from the domain it read.  Only a stale read, as
of a variable listed twice, is filtered again, against the current domain.

Each shrink queues, at once, every subscriber of the variable whose kind
mask meets the shrink's kinds, once a solver has handed the store its
propagation queue (:meth:`Store.dispatch_to`); a store that no solver owns
has no subscribers, so the shrink queues nothing.  The trail is the one
record of what changed: :meth:`Store.take_raw_events` reads it to report
each variable shrunk since the last take and not restored since by a pop.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Callable, Iterable, Optional


class Inconsistent(Exception):
    """A domain was wiped out or a constraint proved disentailed."""


class EventKind:
    """Event bits, plain ints: a kind mask is an OR of these constants."""

    DOMAIN_CHANGED = 1
    MIN_CHANGED = 2
    MAX_CHANGED = 4
    INSTANTIATED = 8

    ANY = DOMAIN_CHANGED | MIN_CHANGED | MAX_CHANGED | INSTANTIATED
    BOUNDS = MIN_CHANGED | MAX_CHANGED


# Watcher signature: (var, old_min, old_max, new_min, new_max).
BoundWatcher = Callable[[int, int, int, int, int], None]

_UNDO = -1  # trail tag for generic undo closures


class Store:
    """Variable store: domains, trail, checkpoints, events, watchers.

    Domains are read one or a vector at a time (:meth:`domains`) and narrowed
    to a sub-tuple of the domain read (:meth:`retain`) or by bound or value.
    Every shrink queues the variable's subscribers whose mask meets its
    kinds, and :meth:`take_raw_events` reads the trail for what changed.
    """

    __slots__ = (
        "_values", "_trail", "_marks", "_watchers", "_taken", "_subs",
        "_active", "_queued", "_enqueue",
    )

    def __init__(self) -> None:
        self._values: list[tuple[int, ...]] = []
        self._trail: list[tuple] = []
        self._marks: list[int] = []
        self._watchers: list[list[BoundWatcher]] = []
        self._taken = 0  # trail position up to which take_raw_events has read
        # the owning solver's subscriptions and queue state; while no solver
        # owns the store there is no subscription, so no shrink reads the rest
        self._subs: dict[int, list[tuple[int, int]]] = {}
        self._active: Optional[list[bool]] = None
        self._queued: Optional[list[bool]] = None
        self._enqueue: Optional[Callable[[int], None]] = None

    # -- variables ---------------------------------------------------------

    def new_var(self, values: Iterable[int]) -> int:
        """A new variable over ``values``; a value that is not an int (a bool,
        a float, any subclass of int) is a ``TypeError``."""
        vals = tuple(values)  # checked before deduplication, which lets 1 hide True
        if set(map(type, vals)) - {int}:
            bad = next(v for v in vals if type(v) is not int)
            raise TypeError(f"domain value {bad!r} is not an int")
        vals = tuple(sorted(set(vals)))
        if not vals:
            raise ValueError("variable created with empty domain")
        self._values.append(vals)
        self._watchers.append([])
        return len(self._values) - 1

    def num_vars(self) -> int:
        return len(self._values)

    def values(self, var: int) -> tuple[int, ...]:
        return self._values[var]

    def domains(self, variables: Iterable[int]) -> list[tuple[int, ...]]:
        """The domains of ``variables``, in order, from one call."""
        return list(map(self._values.__getitem__, variables))

    def min(self, var: int) -> int:
        return self._values[var][0]

    def max(self, var: int) -> int:
        return self._values[var][-1]

    def is_fixed(self, var: int) -> bool:
        return len(self._values[var]) == 1

    def value(self, var: int) -> int:
        vals = self._values[var]
        if len(vals) != 1:
            raise ValueError(f"variable {var} is not fixed")
        return vals[0]

    def contains(self, var: int, value: int) -> bool:
        vals = self._values[var]
        i = bisect_left(vals, value)
        return i < len(vals) and vals[i] == value

    # -- mutation ----------------------------------------------------------

    def _shrink(self, var: int, new_vals: tuple[int, ...]) -> None:
        old = self._values[var]
        self._trail.append((var, old))
        self._values[var] = new_vals
        # EventKind bits as int literals: no attribute lookup per shrink
        kinds = 1  # DOMAIN_CHANGED
        if new_vals[0] != old[0]:
            kinds |= 2  # MIN_CHANGED
        if new_vals[-1] != old[-1]:
            kinds |= 4  # MAX_CHANGED
        if len(new_vals) == 1 and len(old) > 1:
            kinds |= 8  # INSTANTIATED
        active, queued = self._active, self._queued
        for idx, mask in self._subs.get(var, ()):
            if mask & kinds and active[idx] and not queued[idx]:
                queued[idx] = True
                self._enqueue(idx)
        if kinds & 6:  # BOUNDS
            for cb in self._watchers[var]:
                cb(var, old[0], old[-1], new_vals[0], new_vals[-1])

    def set_max(self, var: int, bound: int) -> bool:
        """Remove all values above ``bound``; no event when nothing changes."""
        vals = self._values[var]
        if vals[-1] <= bound:
            return False
        cut = bisect_right(vals, bound)
        if cut == 0:
            raise Inconsistent(f"set_max({var}, {bound}) wipes out the domain")
        self._shrink(var, vals[:cut])
        return True

    def set_min(self, var: int, bound: int) -> bool:
        """Remove all values below ``bound``; no event when nothing changes."""
        vals = self._values[var]
        if vals[0] >= bound:
            return False
        cut = bisect_left(vals, bound)
        if cut == len(vals):
            raise Inconsistent(f"set_min({var}, {bound}) wipes out the domain")
        self._shrink(var, vals[cut:])
        return True

    def assign(self, var: int, value: int) -> bool:
        vals = self._values[var]
        if len(vals) == 1:
            if vals[0] != value:
                raise Inconsistent(f"assign({var}, {value}) conflicts with {vals[0]}")
            return False
        if not self.contains(var, value):
            raise Inconsistent(f"assign({var}, {value}): value not in domain")
        self._shrink(var, (value,))
        return True

    def remove(self, var: int, value: int) -> bool:
        vals = self._values[var]
        i = bisect_left(vals, value)
        if i >= len(vals) or vals[i] != value:
            return False
        if len(vals) == 1:
            raise Inconsistent(f"remove({var}, {value}) wipes out the domain")
        self._shrink(var, vals[:i] + vals[i + 1 :])
        return True

    def retain(self, var: int, dom: tuple[int, ...], kept: tuple[int, ...]) -> bool:
        """Narrow ``var`` to ``kept``, a sorted sub-tuple of ``dom``, the domain
        the caller read; if ``var`` has shrunk since that read (a variable
        listed twice), keep what is left of ``kept`` in the current domain."""
        vals = self._values[var]
        if vals is not dom:
            kept = tuple(filter(set(vals).__contains__, kept))
            dom = vals
        if len(kept) == len(dom):
            return False
        if not kept:
            raise Inconsistent(f"retain({var}) wipes out the domain")
        self._shrink(var, kept)
        return True

    # -- trail / checkpoints ------------------------------------------------

    def push(self) -> None:
        self._marks.append(len(self._trail))

    def pop(self) -> None:
        mark = self._marks.pop()
        trail = self._trail
        while len(trail) > mark:
            var, payload = trail.pop()
            if var == _UNDO:
                payload()
                continue
            cur = self._values[var]
            self._values[var] = payload
            if cur[0] != payload[0] or cur[-1] != payload[-1]:
                for cb in self._watchers[var]:
                    cb(var, cur[0], cur[-1], payload[0], payload[-1])
        if self._taken > mark:
            self._taken = mark

    def trail_undo(self, fn: Callable[[], None]) -> None:
        """Register a closure run when the current checkpoint is popped."""
        self._trail.append((_UNDO, fn))

    def depth(self) -> int:
        return len(self._marks)

    # -- events / watchers ---------------------------------------------------

    def watch_bounds(self, variables: Iterable[int], cb: BoundWatcher) -> None:
        """Call ``cb`` on every bound change of each of ``variables``."""
        for var in variables:
            self._watchers[var].append(cb)

    def dispatch_to(
        self,
        subs: dict[int, list[tuple[int, int]]],
        active: list[bool],
        queued: list[bool],
        enqueue: Callable[[int], None],
    ) -> None:
        """Hand the store a solver's queue.  From now on a shrink of ``var``
        calls ``enqueue(idx)`` for each ``(idx, mask)`` of ``subs[var]``, in
        order, whose mask meets the shrink's kinds and that ``active`` marks
        live and ``queued`` idle, and sets its ``queued`` flag."""
        self._subs, self._active, self._queued, self._enqueue = subs, active, queued, enqueue

    def take_raw_events(self) -> list[tuple[int, int]]:
        """One (var, kind-mask) pair per variable shrunk since the last take
        and not restored since by a :meth:`pop`, in the order of the first
        such shrink; the kinds compare the domain before that shrink with
        the domain now."""
        trail, values = self._trail, self._values
        before: dict[int, tuple[int, ...]] = {}
        for var, old in trail[self._taken :]:
            if var != _UNDO and var not in before:
                before[var] = old
        self._taken = len(trail)
        events = []
        for var, old in before.items():
            now = values[var]
            kinds = 1  # DOMAIN_CHANGED: a trailed shrink not yet popped
            if now[0] != old[0]:
                kinds |= 2  # MIN_CHANGED
            if now[-1] != old[-1]:
                kinds |= 4  # MAX_CHANGED
            if len(now) == 1 and len(old) > 1:
                kinds |= 8  # INSTANTIATED
            events.append((var, kinds))
        return events
