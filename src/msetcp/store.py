"""Trailed finite integer domains with modification events and bound watchers.

A domain is a sorted tuple of ints; every mutation shrinks it.  Shrinks are
recorded on a trail so that :meth:`Store.pop` restores each domain bit-exactly
to its state at the matching :meth:`Store.push`.  Bound watchers fire on every
min/max transition, in both directions (shrink and restore), which lets
propagators keep derived state such as occurrence vectors in sync with the
domains at all times.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from enum import IntFlag
from typing import Callable, Iterable


class Inconsistent(Exception):
    """A domain was wiped out or a constraint proved disentailed."""


class EventKind(IntFlag):
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
    """Variable store: domains, trail, checkpoints, events, watchers."""

    __slots__ = ("_values", "_trail", "_marks", "_watchers", "_events")

    def __init__(self) -> None:
        self._values: list[tuple[int, ...]] = []
        self._trail: list[tuple] = []
        self._marks: list[int] = []
        self._watchers: list[list[BoundWatcher]] = []
        self._events: list[tuple[int, EventKind]] = []

    # -- variables ---------------------------------------------------------

    def new_var(self, values: Iterable[int]) -> int:
        vals = tuple(sorted(set(values)))
        if not vals:
            raise ValueError("variable created with empty domain")
        self._values.append(vals)
        self._watchers.append([])
        return len(self._values) - 1

    def num_vars(self) -> int:
        return len(self._values)

    def values(self, var: int) -> tuple[int, ...]:
        return self._values[var]

    def min(self, var: int) -> int:
        return self._values[var][0]

    def max(self, var: int) -> int:
        return self._values[var][-1]

    def size(self, var: int) -> int:
        return len(self._values[var])

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
        kinds = EventKind.DOMAIN_CHANGED
        if new_vals[0] != old[0]:
            kinds |= EventKind.MIN_CHANGED
        if new_vals[-1] != old[-1]:
            kinds |= EventKind.MAX_CHANGED
        if len(new_vals) == 1 and len(old) > 1:
            kinds |= EventKind.INSTANTIATED
        self._events.append((var, kinds))
        if kinds & EventKind.BOUNDS:
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

    def retain(self, var: int, allowed) -> bool:
        """Keep only the values present in ``allowed`` (a set-like)."""
        vals = self._values[var]
        kept = tuple(v for v in vals if v in allowed)
        if len(kept) == len(vals):
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

    def trail_undo(self, fn: Callable[[], None]) -> None:
        """Register a closure run when the current checkpoint is popped."""
        self._trail.append((_UNDO, fn))

    def depth(self) -> int:
        return len(self._marks)

    # -- events / watchers ---------------------------------------------------

    def watch_bounds(self, var: int, cb: BoundWatcher) -> None:
        self._watchers[var].append(cb)

    def take_raw_events(self) -> list[tuple[int, EventKind]]:
        """Drain pending (var, kind-mask) pairs, coalesced per variable."""
        if not self._events:
            return []
        merged: dict[int, EventKind] = {}
        for var, kinds in self._events:
            merged[var] = merged.get(var, EventKind(0)) | kinds
        self._events.clear()
        return list(merged.items())

    def discard_events(self) -> None:
        self._events.clear()
