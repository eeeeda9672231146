"""Trailed domain store: mutation, events, watchers, and restore fidelity."""

import random

import pytest
from hypothesis import given, strategies as st

from msetcp.constraints import TableConstraint
from msetcp.engine import Model, propagate_to_fixpoint
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
    with pytest.raises(ValueError):
        s.new_vars(3, [])
    assert s.num_vars() == 0


@pytest.mark.parametrize(
    "values, bad",
    [
        ([0.5, 1.5], "0.5"),
        ([True, 2], "True"),
        ([1, True], "True"),
        ([3, "4"], "'4'"),
        ([1, 1.0], "1.0"),
    ],
)
def test_non_int_values_rejected_by_name(values, bad):
    """A float would later index a filter's tables and a bool would be
    stored as a domain value, so both are refused where they enter; one
    equal to an int before it would vanish in the deduplication, so the
    check reads the values before it, once for a whole vector."""
    s = Store()
    with pytest.raises(TypeError, match=bad):
        s.new_var(values)
    with pytest.raises(TypeError, match=bad):
        s.new_vars(3, values)
    assert s.num_vars() == 0


def test_new_vars_hands_out_consecutive_ids_sharing_one_tuple():
    s = Store()
    first = s.new_var([7])
    vs = s.new_vars(4, [3, 1, 3, 2])
    assert vs == [first + 1, first + 2, first + 3, first + 4]
    assert s.num_vars() == 5 and s.new_var([0]) == 5
    assert s.values(vs[0]) == (1, 2, 3)
    assert all(s.values(v) is s.values(vs[0]) for v in vs)


def test_new_vars_of_none_adds_nothing():
    s = Store()
    assert s.new_vars(0, range(3)) == []
    assert s.num_vars() == 0
    with pytest.raises(ValueError):
        s.new_vars(-1, range(3))
    assert s.num_vars() == 0


def test_one_variable_of_a_vector_shrinks_and_is_restored_alone():
    s = Store()
    vs = s.new_vars(3, range(5))
    shared = s.values(vs[0])
    log = []
    s.watch_bounds(vs, lambda *args: log.append(args))
    s.push()
    assert s.set_max(vs[1], 2)
    assert s.values(vs[1]) == (0, 1, 2)
    assert s.values(vs[0]) is shared and s.values(vs[2]) is shared
    s.pop()
    assert [s.values(v) for v in vs] == [shared] * 3
    assert log == [(vs[1], 0, 4, 0, 2), (vs[1], 0, 2, 0, 4)]


def test_variable_listed_twice_in_a_vector_reaches_the_fixpoint():
    """The table reads ``a`` twice and ``b`` once, all three the one shared
    tuple.  Narrowing ``a`` to its first position's support (0, 1, 2) leaves
    the second read stale, and ``retain`` keeps of the second support
    (1, 2, 3) what is left, (1, 2); ``b`` has not shrunk, so its read is
    current.  Only (2, 2, 2) has ``a`` equal in both places."""
    m = Model()
    a, b = m.new_vars(2, range(4))
    m.post(TableConstraint([a, a, b], [(0, 1, 0), (1, 2, 1), (2, 2, 2), (1, 3, 3)]))
    assert propagate_to_fixpoint(m)
    assert (m.store.values(a), m.store.values(b)) == ((2,), (2,))


def test_set_max_and_min_trim_bounds():
    s = Store()
    v = s.new_var(range(10))
    assert s.set_max(v, 6)
    assert s.set_min(v, 3)
    assert s.values(v) == (3, 4, 5, 6)


def test_noop_bound_changes_emit_no_event():
    s = Store()
    v = s.new_var(range(5))
    s.take_raw_events()
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


D, MIN, MAX, INST = (
    EventKind.DOMAIN_CHANGED,
    EventKind.MIN_CHANGED,
    EventKind.MAX_CHANGED,
    EventKind.INSTANTIATED,
)


class RecordingStore(Store):
    """A store that also records one (var, kind-mask) pair per shrink, in
    the order raised, for tests that need every shrink rather than the
    per-variable report of :meth:`Store.take_raw_events`."""

    __slots__ = ("events",)

    def __init__(self):
        super().__init__()
        self.events = []

    def _shrink(self, var, new_vals):
        old = self.values(var)
        kinds = D
        if new_vals[0] != old[0]:
            kinds |= MIN
        if new_vals[-1] != old[-1]:
            kinds |= MAX
        if len(new_vals) == 1 and len(old) > 1:
            kinds |= INST
        self.events.append((var, kinds))
        super()._shrink(var, new_vals)

    def drain(self):
        events, self.events = self.events, []
        return events


def test_drain_events_raw_in_order():
    """The recording store keeps each shrink, and the trail reader reports
    the same changes merged per variable."""
    s = RecordingStore()
    v = s.new_var(range(10))
    w = s.new_var(range(10))
    assert not s.drain()
    s.set_min(v, 2)
    s.assign(w, 5)
    s.set_max(v, 7)
    assert s.drain() == [(v, D | MIN), (w, D | MIN | MAX | INST), (v, D | MAX)]
    assert not s.drain()
    assert s.take_raw_events() == [(v, D | MIN | MAX), (w, D | MIN | MAX | INST)]
    assert s.take_raw_events() == []


def test_shrink_undone_by_pop_is_not_reported():
    """Only the shrink the pop kept is reported, and a pop does not skip a
    shrink made before its push that has not been taken yet."""
    s = Store()
    v = s.new_var(range(5))
    w = s.new_var(range(5))
    s.set_max(v, 3)
    s.push()
    s.set_min(w, 2)
    s.pop()
    assert s.take_raw_events() == [(v, D | MAX)]
    s.push()
    s.remove(w, 1)
    s.pop()
    assert s.take_raw_events() == []


def test_shrunk_popped_and_shrunk_again_reports_against_restored_domain():
    s = Store()
    v = s.new_var(range(10))
    s.push()
    s.set_max(v, 5)
    s.pop()
    s.set_min(v, 3)
    assert s.take_raw_events() == [(v, D | MIN)]
    s.push()
    s.set_min(v, 5)
    assert s.take_raw_events() == [(v, D | MIN)]
    s.pop()
    s.set_max(v, 8)
    assert s.take_raw_events() == [(v, D | MAX)]


def test_shrinks_after_push_take_and_pop_are_all_reported():
    s = Store()
    v = s.new_var(range(6))
    w = s.new_var(range(6))
    s.push()
    s.set_max(v, 4)
    s.set_max(w, 4)
    assert s.take_raw_events() == [(v, D | MAX), (w, D | MAX)]
    s.pop()
    s.set_min(v, 1)
    s.set_max(w, 2)
    assert s.take_raw_events() == [(v, D | MIN), (w, D | MAX)]


def test_trail_undo_entries_are_not_reported():
    s = Store()
    v = s.new_var(range(4))
    s.push()
    s.trail_undo(lambda: None)
    s.set_max(v, 2)
    s.trail_undo(lambda: None)
    assert s.take_raw_events() == [(v, D | MAX)]
    s.pop()


MASKS = (D, MIN, MAX, INST, EventKind.BOUNDS, EventKind.ANY)


@pytest.mark.parametrize(
    "mutate, kinds",
    [
        (lambda s, v: s.remove(v, 2), D),
        (lambda s, v: s.set_max(v, 3), D | MAX),
        (lambda s, v: s.set_min(v, 1), D | MIN),
        (lambda s, v: s.assign(v, 2), D | MIN | MAX | INST),
        (lambda s, v: s.retain(v, s.values(v), (0,)), D | MAX | INST),
    ],
    ids=["remove-interior", "set_max", "set_min", "assign", "retain-to-one"],
)
def test_shrink_queues_exactly_the_subscribers_its_kinds_meet(mutate, kinds):
    """Each mask of ``MASKS`` subscribes once to ``v``; a subscriber that
    meets the kinds but is inactive or already queued, and one on another
    variable, are not queued."""
    s = Store()
    v = s.new_var(range(5))
    other = s.new_var(range(5))
    n = len(MASKS)
    subs = {
        v: [*enumerate(MASKS), (n, EventKind.ANY), (n + 1, EventKind.ANY)],
        other: [(n + 2, EventKind.ANY)],
    }
    active = [True] * (n + 3)
    active[n] = False
    queued = [False] * (n + 3)
    queued[n + 1] = True
    order = []
    s.dispatch_to(subs, active, queued, order.append)
    assert mutate(s, v)
    expected = [idx for idx, mask in enumerate(MASKS) if mask & kinds]
    assert order == expected
    assert queued == [idx in expected or idx == n + 1 for idx in range(n + 3)]
    assert s.take_raw_events() == [(v, kinds)]


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
    s.take_raw_events()
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
