"""Speed of the host during a run, from a fixed pure-Python reference block.

The benchmark runs on shared machines whose speed for interpreted Python
swings by up to 2x over periods of seconds to minutes, far more than the
differences a change to msetcp makes.  A :class:`SpeedProbe` times
:func:`reference_block` before every set-up and filter round, and at most
every ``EVERY_S`` seconds when polled at a search node.  The block is a fixed
mix of what the solver does (method calls, tuple slicing, bisection, dict
updates, a trail with undo, exceptions) that imports nothing from msetcp, so
no change to the program under test can alter it.  The mean time of the
blocks taken during (or right before) a timed region, relative to
``REFERENCE_S``, is the host's slowness there; dividing the region's time by
it gives seconds at the reference speed.  The time spent in the probe is
taken out of every timed region it falls into.
"""

from __future__ import annotations

import gc
import time
from bisect import bisect_left

# Time of one reference_block() at the reference speed: about the median on
# a 2-CPU Intel Xeon cloud VM running CPython 3.11.7.
REFERENCE_S = 0.002
# Least time between two samples polled during a search.
EVERY_S = 0.05
# Loop iterations of one reference block.
BLOCK_N = 3000


class _Domains:
    __slots__ = ("vals", "trail")

    def __init__(self) -> None:
        self.vals = [tuple(range(i % 7 + 1)) for i in range(64)]
        self.trail: list[tuple] = []

    def get(self, i: int) -> tuple:
        return self.vals[i & 63]

    def shrink(self, i: int, vals: tuple) -> None:
        self.trail.append((i & 63, self.vals[i & 63]))
        self.vals[i & 63] = vals

    def undo(self) -> None:
        while self.trail:
            i, vals = self.trail.pop()
            self.vals[i] = vals


def reference_block() -> int:
    doms, counts, acc = _Domains(), {}, 0
    for i in range(BLOCK_N):
        vals = doms.get(i)
        j = bisect_left(vals, i % 5)
        if 0 < j < len(vals):
            doms.shrink(i, vals[: j + 1])
        counts[i & 255] = counts.get(i & 255, 0) | j
        try:
            if i % 97 == 0:
                raise ValueError(i)
        except ValueError:
            acc += 1
        acc += len(vals)
    doms.undo()
    return acc


class SpeedProbe:
    """Samples the reference block, at most every ``EVERY_S`` seconds when
    polled."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent taking samples
        self._last = time.perf_counter()

    def poll(self) -> None:
        """Take a sample when the last one is ``EVERY_S`` seconds old."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    def sample(self) -> float:
        """Time one reference block now; returns its slowness."""
        entered = time.perf_counter()
        # paused, so that garbage left by the program under test cannot be
        # collected inside the timed block
        gc.disable()
        try:
            start = time.perf_counter()
            reference_block()
            took = time.perf_counter() - start
        finally:
            gc.enable()
        self.samples.append(took)
        self._last = time.perf_counter()
        self.spent += self._last - entered
        return took / REFERENCE_S

    def slowness(self, since: int = 0) -> float:
        """Mean time of the blocks from sample ``since`` on, relative to the
        reference speed; the last few blocks when none was taken since, 1.0
        when none was taken at all."""
        window = self.samples[since:] or self.samples[-5:]
        if not window:
            return 1.0
        return sum(window) / len(window) / REFERENCE_S
