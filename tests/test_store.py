"""Trailed domain store: mutation, events, watchers, and restore fidelity."""

import random

import pytest
from hypothesis import given, strategies as st

from msetcp.store import EventKind, Inconsistent, Store


def test_new_var_sorts_and_dedups():
    s = Store()
    v = s.new_var([3, 1, 3, 2])
    assert s.values(v) == (1, 2, 3)
    assert s.min(v) == 1 and s.max(v) == 3


def test_empty_domain_rejected():
    s = Store()
    with pytest.raises(ValueError):
        s.new_var([])


def test_set_max_and_min_trim_bounds():
    s = Store()
    v = s.new_var(range(10))
    assert s.set_max(v, 6)
    assert s.set_min(v, 3)
    assert s.values(v) == (3, 4, 5, 6)


def test_noop_bound_changes_emit_no_event():
    s = Store()
    v = s.new_var(range(5))
    s.discard_events()
    assert not s.set_max(v, 10)
    assert not s.set_min(v, -2)
    assert s.take_raw_events() == []


def test_wipeout_raises():
    s = Store()
    v = s.new_var([2, 3])
    with pytest.raises(Inconsistent):
        s.set_max(v, 1)
    w = s.new_var([5])
    with pytest.raises(Inconsistent):
        s.remove(w, 5)


def test_event_kinds():
    s = Store()
    v = s.new_var([1, 2, 3, 4])
    s.take_raw_events()
    s.remove(v, 2)  # interior
    assert s.take_raw_events() == [(v, EventKind.DOMAIN_CHANGED)]
    s.set_max(v, 3)
    assert s.take_raw_events() == [(v, EventKind.DOMAIN_CHANGED | EventKind.MAX_CHANGED)]
    s.assign(v, 3)
    assert s.take_raw_events() == [
        (v, EventKind.DOMAIN_CHANGED | EventKind.MIN_CHANGED | EventKind.INSTANTIATED)
    ]


def test_events_coalesce_per_round():
    s = Store()
    v = s.new_var(range(10))
    s.take_raw_events()
    s.set_min(v, 2)
    s.set_min(v, 4)
    s.set_max(v, 7)
    assert s.take_raw_events() == [
        (v, EventKind.DOMAIN_CHANGED | EventKind.MIN_CHANGED | EventKind.MAX_CHANGED)
    ]


def test_restore_round_trip_exact():
    s = Store()
    vs = [s.new_var(range(8)) for _ in range(5)]
    before = [s.values(v) for v in vs]
    s.push()
    s.set_max(vs[0], 3)
    s.remove(vs[1], 4)
    s.assign(vs[2], 5)
    s.push()
    s.set_min(vs[0], 2)
    s.pop()
    assert s.values(vs[0]) == (0, 1, 2, 3)
    s.pop()
    assert [s.values(v) for v in vs] == before


@given(st.integers(0, 2**32 - 1))
def test_restore_round_trip_random_ops(seed):
    rng = random.Random(seed)
    s = Store()
    vs = [s.new_var(range(rng.randint(1, 6))) for _ in range(4)]
    snapshot = [s.values(v) for v in vs]
    s.push()
    for _ in range(12):
        v = rng.choice(vs)
        vals = s.values(v)
        try:
            op = rng.randrange(3)
            if op == 0:
                s.set_max(v, rng.choice(vals))
            elif op == 1:
                s.set_min(v, rng.choice(vals))
            else:
                s.remove(v, rng.choice(vals))
        except Inconsistent:
            pass
    s.pop()
    assert [s.values(v) for v in vs] == snapshot


def test_watchers_fire_on_shrink_and_restore():
    s = Store()
    v = s.new_var(range(5))
    log = []
    s.watch_bounds(v, lambda var, omn, omx, nmn, nmx: log.append((omn, omx, nmn, nmx)))
    s.push()
    s.set_max(v, 2)
    assert log == [(0, 4, 0, 2)]
    s.remove(v, 1)  # interior: bounds unchanged, no callback
    assert len(log) == 1
    s.pop()
    assert log[-1] == (0, 2, 0, 4)


def test_trail_undo_runs_on_pop():
    s = Store()
    flag = []
    s.push()
    s.trail_undo(lambda: flag.append("undone"))
    s.pop()
    assert flag == ["undone"]


def test_assign_and_contains():
    s = Store()
    v = s.new_var([1, 3, 5])
    assert s.contains(v, 3) and not s.contains(v, 2)
    s.assign(v, 3)
    assert s.is_fixed(v) and s.value(v) == 3
    with pytest.raises(Inconsistent):
        s.assign(v, 5)


def test_retain():
    s = Store()
    v = s.new_var(range(6))
    assert s.retain(v, {1, 3, 9})
    assert s.values(v) == (1, 3)
    with pytest.raises(Inconsistent):
        s.retain(v, {7})
