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


@pytest.mark.parametrize(
    "values, bad",
    [([0.5, 1.5], "0.5"), ([True, 2], "True"), ([1, True], "True"), ([3, "4"], "'4'")],
)
def test_non_int_values_rejected_by_name(values, bad):
    """A float would later index a filter's tables and a bool would be
    stored as a domain value, so both are refused where they enter."""
    s = Store()
    with pytest.raises(TypeError, match=bad):
        s.new_var(values)
    assert s.num_vars() == 0


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


def test_event_masks_are_plain_ints():
    assert EventKind.BOUNDS == EventKind.MIN_CHANGED | EventKind.MAX_CHANGED
    s = Store()
    v = s.new_var(range(6))
    w = s.new_var(range(6))
    s.take_raw_events()
    s.remove(v, 3)
    s.set_min(v, 1)
    s.assign(w, 2)
    events = s.take_raw_events()
    assert [var for var, _ in events] == [v, w]
    assert all(type(kinds) is int for _, kinds in events)


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


def test_drain_events_raw_in_order():
    s = Store()
    v = s.new_var(range(10))
    w = s.new_var(range(10))
    s.take_raw_events()
    assert not s.drain_events()
    s.set_min(v, 2)
    s.assign(w, 5)
    s.set_max(v, 7)
    D, MIN, MAX, INST = (
        EventKind.DOMAIN_CHANGED,
        EventKind.MIN_CHANGED,
        EventKind.MAX_CHANGED,
        EventKind.INSTANTIATED,
    )
    assert list(s.drain_events()) == [(v, D | MIN), (w, D | MIN | MAX | INST), (v, D | MAX)]
    assert not s.drain_events()
    assert s.take_raw_events() == []


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
    s.watch_bounds([v], lambda var, omn, omx, nmn, nmx: log.append((omn, omx, nmn, nmx)))
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
    assert s.retain(v, s.values(v), (1, 3))
    assert s.values(v) == (1, 3)
    with pytest.raises(Inconsistent):
        s.retain(v, s.values(v), ())


def test_domains_equal_per_variable_values():
    s = Store()
    vs = [s.new_var(range(i, 2 * i + 3)) for i in range(6)]
    s.set_max(vs[2], 3)
    s.remove(vs[4], 6)
    picked = [vs[3], vs[0], vs[3], vs[5], vs[2], vs[4]]
    assert s.domains(picked) == [s.values(v) for v in picked]
    assert s.domains(iter(picked)) == [s.values(v) for v in picked]
    assert s.domains([]) == []


def test_retain_with_a_stale_read_keeps_what_is_left_of_kept():
    """A variable listed twice is read once per listing, so the second
    narrowing hands over ``kept`` computed from a domain that has shrunk."""
    s = Store()
    v = s.new_var(range(8))
    stale = s.values(v)
    assert s.retain(v, stale, (1, 2, 4, 6))
    assert s.retain(v, stale, (0, 2, 3, 4, 7))  # 0, 3 and 7 are gone already
    assert s.values(v) == (2, 4)
    assert not s.retain(v, stale, (2, 4, 5))  # nothing of the domain left out
    assert s.values(v) == (2, 4)
    with pytest.raises(Inconsistent):
        s.retain(v, stale, (0, 1, 3))


def test_retain_keeping_everything_changes_and_trails_nothing():
    s = Store()
    v = s.new_var([1, 4, 6])
    log = []
    s.watch_bounds([v], lambda *args: log.append(args))
    s.discard_events()
    s.push()
    dom = s.values(v)
    assert not s.retain(v, dom, dom)
    assert not s.retain(v, dom, tuple(dom))
    assert s._trail == [] and s.take_raw_events() == [] and log == []
    s.pop()
    assert s.values(v) is dom


def test_vector_watch_fires_once_per_variable_per_bound_change():
    s = Store()
    vs = [s.new_var(range(6)) for _ in range(4)]
    other = s.new_var(range(6))
    log = []
    s.watch_bounds(vs, lambda var, omn, omx, nmn, nmx: log.append((var, omn, omx, nmn, nmx)))
    s.push()
    s.set_max(vs[0], 3)
    s.set_min(vs[2], 2)
    s.assign(vs[3], 4)  # both bounds in one change: one call
    s.remove(vs[1], 3)  # interior: no call
    s.set_max(other, 1)  # not watched
    assert log == [(vs[0], 0, 5, 0, 3), (vs[2], 0, 5, 2, 5), (vs[3], 0, 5, 4, 4)]
    del log[:]
    s.pop()
    # restored in reverse order of the shrinks, one call each
    assert log == [(vs[3], 4, 4, 0, 5), (vs[2], 2, 5, 0, 5), (vs[0], 0, 3, 0, 5)]
