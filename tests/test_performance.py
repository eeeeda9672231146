"""Scaling smoke tests backing the complexity contracts (trend checks and
counts of domain reads, never absolute times)."""

import random
import time

import pytest

from msetcp import mset
from msetcp.mset import MultisetOrdering, SortedMultisetOrdering, StatelessMultisetOrdering
from msetcp.store import Inconsistent, Store


def _instance(n: int, seed: int, num_values: int = 4):
    rng = random.Random(seed)
    s = Store()
    mk = lambda: s.new_var(range(rng.randrange(num_values), num_values))
    xs = [mk() for _ in range(n)]
    ys = [mk() for _ in range(n)]
    return s, xs, ys


def _best_time(n: int, factory, trials: int = 5) -> float:
    import gc

    best = float("inf")
    for t in range(trials):
        s, xs, ys = _instance(n, seed=t)
        p = factory(xs, ys)
        gc.collect()
        gc.disable()  # keep collector pauses out of the trend measurement
        try:
            t0 = time.perf_counter()
            try:
                p.post(s)
            except Inconsistent:
                pass
            best = min(best, time.perf_counter() - t0)
        finally:
            gc.enable()
    return best


def test_occurrence_filter_subquadratic_trend():
    t3 = _best_time(1_000, MultisetOrdering)
    t4 = _best_time(10_000, MultisetOrdering)
    t5 = _best_time(100_000, MultisetOrdering)
    assert t4 / t3 < 20.0, (t3, t4)
    assert t5 / t4 < 20.0, (t4, t5)


def test_sorted_variant_init_scales_like_sorting():
    # the contract is O(n log n) dominated by the sort, so a decade of n may
    # cost at most a small multiple over linear growth
    t4 = _best_time(10_000, SortedMultisetOrdering)
    t5 = _best_time(100_000, SortedMultisetOrdering)
    assert t5 / t4 < 20.0, (t4, t5)


def test_incremental_update_cost_independent_of_value_range():
    # count maintenance is two cell updates regardless of how wide the range is
    s = Store()
    xs = [s.new_var(range(0, 1000, 7)) for _ in range(50)]
    ys = [s.new_var(range(3, 1000, 11)) for _ in range(50)]
    p = MultisetOrdering(xs, ys)
    p.post(s)
    before = list(p.xmin_counts)
    s.set_min(xs[0], s.values(xs[0])[1])
    changed = sum(1 for a, b in zip(before, p.xmin_counts) if a != b)
    assert changed == 2


class CountingStore(Store):
    """A store that counts the domain reads a propagator makes."""

    __slots__ = ("reads",)

    def __init__(self) -> None:
        super().__init__()
        self.reads = 0

    def values(self, var):
        self.reads += 1
        return super().values(var)

    def domains(self, variables):
        doms = super().domains(variables)
        self.reads += len(doms)  # one read per variable, as ``values`` counts
        return doms

    def min(self, var):
        self.reads += 1
        return super().min(var)

    def max(self, var):
        self.reads += 1
        return super().max(var)


DEDICATED = pytest.mark.parametrize(
    "factory",
    [
        MultisetOrdering,
        lambda xs, ys: MultisetOrdering(xs, ys, entailment=True),
        SortedMultisetOrdering,
    ],
    ids=["occ", "occ-entail", "sorted"],
)


@DEDICATED
def test_attach_reads_each_domain_once(factory):
    """Set-up derives the rank map, the vectors and both max indexes from one
    snapshot, so it reads each domain once, not once per structure."""
    n = 1_000
    s = CountingStore()
    xs = [s.new_var(range(i % 7, i % 7 + 3)) for i in range(n)]
    ys = [s.new_var(range(i % 5, i % 5 + 4)) for i in range(n + 10)]
    p = factory(xs, ys)
    p.attach(s)
    assert s.reads <= len(xs) + len(ys), s.reads


@DEDICATED
def test_prune_reads_only_variables_reaching_first_lt(factory):
    """At n = 10^4 the top value 9 is held by the max of k = 3 Y variables
    and by no X, so first_lt is 9; the prune pass may read only the domains
    whose max reaches it, not all 2 * 10^4."""
    n, k = 10_000, 3
    rng = random.Random(5)
    s = CountingStore()
    xs = [s.new_var(range(rng.randrange(6), 6)) for _ in range(n)]
    ys = [s.new_var(range(rng.randrange(6), 6)) for _ in range(n - k)]
    ys += [s.new_var(range(rng.randrange(6), 10)) for _ in range(k)]
    p = factory(xs, ys)
    p.post(s)
    assert p.last_flags.first_lt == 9
    s.push()
    assert s.set_min(xs[0], 5)  # a bound change, as in search
    s.reads = 0
    p.propagate(s)
    assert p.last_flags.first_lt == 9
    assert s.reads <= 4 * k, s.reads
    s.pop()


@pytest.mark.parametrize(
    "factory",
    [
        MultisetOrdering,
        lambda xs, ys: MultisetOrdering(xs, ys, entailment=True),
        SortedMultisetOrdering,
        StatelessMultisetOrdering,
    ],
    ids=["occ", "occ-entail", "sorted", "stateless"],
)
def test_scan_stops_at_first_lt_outside_the_critical_case(factory, monkeypatch):
    """At n = 10^4 every X min is 0 and the Y maxes are 1..n (d ~ n), with
    k = 3 of them raised to the top value n + 5.  There first_lt is the top
    value and x_at_lt + 1 != y_at_lt = 3, so one call may read only a few
    (value, X count, Y count) runs; scanning on to first_gt = 0 reads ~d."""
    n, k = 10_000, 3
    rng = random.Random(7)
    s = Store()
    xs = [s.new_var((0, rng.randrange(1, n))) for _ in range(n)]
    ys = [s.new_var((i, i + 1)) for i in range(n - k)]
    ys += [s.new_var((i, n + 5)) for i in range(k)]
    p = factory(xs, ys)
    p.post(s)
    consumed = 0
    summary = mset._summary

    def counting_summary(runs, *args, **kwargs):
        def counted():
            nonlocal consumed
            for run in runs:
                consumed += 1
                yield run

        return summary(counted(), *args, **kwargs)

    monkeypatch.setattr(mset, "_summary", counting_summary)
    s.push()
    assert s.set_min(xs[0], s.max(xs[0]))  # a bound change, as in search
    p.propagate(s)
    assert consumed <= 2, consumed
    if hasattr(p, "last_flags"):
        assert p.last_flags.first_lt == n + 5
    s.pop()
