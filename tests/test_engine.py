"""Fixpoint engine and search: queue semantics, stats, soundness, determinism."""

import itertools
import random
import time
from collections import deque
from functools import partial
from importlib import resources
from types import SimpleNamespace

import pytest

from msetcp import oracle
from msetcp.bench import RunConfig, build, load_instance, run
from msetcp.constraints import (
    AllDifferent,
    ArithmeticMultiset,
    Cardinality,
    Conditional,
    HostCapacity,
    LessThan,
    LinearSum,
    TableConstraint,
    sum_eq,
)
from msetcp.engine import (
    Branching,
    Model,
    Propagator,
    SearchTimeout,
    Solver,
    Status,
    propagate_to_fixpoint,
)
from msetcp.mset import MultisetOrdering
from msetcp.store import EventKind, Inconsistent
from test_store import RecordingStore


def domains(model):
    return [set(model.store.values(v)) for v in range(model.store.num_vars())]


class TestFixpoint:
    def test_single_constraint_equals_direct_output(self):
        m = Model()
        xs = [m.new_var(d) for d in [{0, 3}, {2}]]
        ys = [m.new_var(d) for d in [{2, 3}, {1}]]
        m.post(MultisetOrdering(xs, ys))
        assert propagate_to_fixpoint(m)
        assert domains(m) == [{0}, {2}, {2, 3}, {1}]

    def test_adjacent_chain_misses_global_inference(self):
        """Pairwise fixpoint keeps a value the conjunction oracle prunes."""
        m = Model()
        v0 = [m.new_var(d) for d in [{0, 3}, {2}]]
        v1 = [m.new_var(d) for d in [{0, 1, 2, 3}, {0, 1, 2, 3}]]
        v2 = [m.new_var(d) for d in [{2, 3}, {1}]]
        m.post(MultisetOrdering(v0, v1))
        m.post(MultisetOrdering(v1, v2))
        assert propagate_to_fixpoint(m)
        assert 3 in m.store.values(v0[0])
        gac = oracle.brute_force_gac(
            oracle.chain(oracle.mset_leq),
            [{0, 3}, {2}],
            [{0, 1, 2, 3}, {0, 1, 2, 3}],
            [{2, 3}, {1}],
        )
        assert 3 not in gac[0][0]

    def test_failed_propagator_at_root(self):
        m = Model()
        xs = [m.new_var({3}), m.new_var({2})]
        ys = [m.new_var({3}), m.new_var({1})]
        m.post(MultisetOrdering(xs, ys))
        assert not propagate_to_fixpoint(m)

    def test_cooperating_propagators_reach_joint_fixpoint(self):
        m = Model()
        a = m.new_var(range(10))
        b = m.new_var(range(10))
        c = m.new_var(range(10))
        m.post(LessThan(a, b))
        m.post(LessThan(b, c))
        m.post(sum_eq([a, b, c], 24))
        assert propagate_to_fixpoint(m)
        assert m.store.values(c) == (9,)
        assert m.store.values(b) == (8,)
        assert m.store.values(a) == (7,)

    def test_entailed_propagator_not_reinvoked(self):
        calls = []

        class Spy(LessThan):
            def propagate(self, store):
                calls.append(1)
                return super().propagate(store)

        m = Model()
        a = m.new_var({0})
        b = m.new_var({5, 6})
        other = m.new_var(range(3))
        m.post(Spy(a, b))
        s = Solver(m)
        assert s.propagate_root()
        n_calls = len(calls)
        m.store.push()
        m.store.set_max(b, 5)
        s.fixpoint()
        assert len(calls) == n_calls  # entailed at root, never woken again

    def test_pending_change_wakes_subscribers(self):
        """A change made before ``fixpoint`` starts, as a search decision is,
        wakes its subscribers although the queue is empty."""
        m = Model()
        x = m.new_var(range(10))
        y = m.new_var(range(10))
        m.post(LessThan(x, y))
        s = Solver(m)
        assert s.propagate_root()
        assert not s._queue
        m.store.push()
        m.store.set_max(y, 4)
        s.fixpoint()
        assert m.store.values(x) == (0, 1, 2, 3)

    def test_second_solver_over_one_model_refused(self):
        """A second Solver would post the filter again on the shared store,
        so each bound change would reach its vectors twice."""
        m = Model()
        xs = [m.new_var(range(3)) for _ in range(3)]
        ys = [m.new_var(range(3)) for _ in range(3)]
        prop = MultisetOrdering(xs, ys)
        m.post(prop)
        assert Solver(m).propagate_root()
        with pytest.raises(ValueError, match="already has a Solver"):
            Solver(m)
        with pytest.raises(ValueError, match="already has a Solver"):
            propagate_to_fixpoint(m)
        m.store.set_min(xs[0], 1)
        assert prop.xmin_counts == [2, 1, 0]
        assert prop.rebuilt_counts(m.store) == (prop.xmin_counts, prop.ymax_counts)

    def test_subscription_to_a_negative_variable_refused(self):
        """Python would read the last variable through index -1."""
        m = Model()
        x = m.new_var(range(3))
        m.new_var(range(3))
        m.post(LessThan(x, -1))
        with pytest.raises(ValueError, match="LessThan subscribes to variable -1"):
            Solver(m)

    def test_subscription_past_the_last_variable_refused(self):
        """Such a variable is never woken, so its constraint never filters."""
        m = Model()
        xs = [m.new_var(range(3)) for _ in range(2)]
        m.post(AllDifferent(xs))
        m.post(LessThan(xs[0], m.store.num_vars()))
        with pytest.raises(ValueError, match="LessThan subscribes to variable 2"):
            Solver(m)
        m.propagators.pop()
        assert Solver(m).propagate_root()  # a refused model is not taken

    @staticmethod
    def _two_var_solver():
        m = Model()
        xs = [m.new_var(range(3)) for _ in range(2)]
        m.post(LessThan(*xs))
        return Solver(m), xs

    def test_branching_past_the_last_variable_refused(self):
        """It used to raise IndexError from inside the search."""
        s, _ = self._two_var_solver()
        with pytest.raises(ValueError, match="branching names variable 5"):
            s.solve(Branching([5]))
        assert s.stats.choice_points == 0

    def test_objective_past_the_last_variable_refused(self):
        """It used to raise IndexError from inside the search."""
        s, xs = self._two_var_solver()
        with pytest.raises(ValueError, match="minimize names variable 7"):
            s.solve(Branching(xs), minimize=7)
        assert s.stats.choice_points == 0

    def test_negative_branching_variable_refused(self):
        """-1 is the trail's undo tag, so its shrink was replayed as an undo
        closure by ``Store.pop`` (TypeError: 'tuple' object is not callable)."""
        s, _ = self._two_var_solver()
        with pytest.raises(ValueError, match="branching names variable -1"):
            s.solve(Branching([-1]))
        assert s.stats.choice_points == 0

    def test_negative_objective_refused(self):
        """Python's negative indexing used to minimise the last variable."""
        s, xs = self._two_var_solver()
        with pytest.raises(ValueError, match="minimize names variable -1"):
            s.solve(Branching(xs), minimize=-1)
        assert s.stats.choice_points == 0
        sol, _ = s.solve(Branching(xs), minimize=xs[1])  # the solver is still usable
        assert sol == [0, 1]


class SetUpSpy(Propagator):
    """Logs its ``attach``, ``post`` and ``propagate`` calls by name and
    prunes nothing."""

    def __init__(self, log, name, var):
        self.log, self.name, self.var = log, name, var

    def subscriptions(self):
        yield self.var, EventKind.ANY

    def attach(self, store):
        self.log.append(("attach", self.name))

    def post(self, store):
        self.log.append(("post", self.name))
        return super().post(store)

    def propagate(self, store):
        self.log.append(("propagate", self.name))
        return Status.ACTIVE

    def check(self, values):
        return True


class TestSetUp:
    """The solver attaches every propagator when it is built, so a set-up
    that refuses its input fails there, judged on the declared domains."""

    def test_refused_host_range_refuses_the_solver(self):
        """It used to be refused by the first ``propagate_root`` alone: a
        second one succeeded without set-up, and ``solve`` returned host -1,
        which ``check`` read as the last host."""
        m = Model()
        h = m.new_var([-1, 0])
        m.post(HostCapacity([h], [3], [1, 5]))
        with pytest.raises(ValueError, match="host variables must range over 0..1"):
            Solver(m)
        with pytest.raises(ValueError, match="already has a Solver"):
            Solver(m)

    @pytest.mark.parametrize("pruned_first", [False, True])
    def test_negative_arithmetic_values_refused_whatever_the_post_order(self, pruned_first):
        """A sum posted before the encoding used to cut the negative values
        before its set-up ran, and the model was accepted; without it, the
        same model was refused (and a retry raised IndexError)."""
        m = Model()
        xs = [m.new_var(range(-1, 3)) for _ in range(2)]
        ys = [m.new_var(range(3)) for _ in range(2)]
        if pruned_first:
            m.post(LinearSum([-1, -1], xs, "<=", -4))  # leaves xs at 2
        m.post(ArithmeticMultiset(xs, ys, base=2))
        with pytest.raises(ValueError, match="non-negative"):
            Solver(m)

    def test_every_attach_runs_once_in_post_order_before_any_propagate(self):
        log = []
        m = Model()
        x = m.new_var(range(3))
        for name in "abc":
            m.post(SetUpSpy(log, name, x))
        s = Solver(m)
        assert log == [("attach", "a"), ("attach", "b"), ("attach", "c")]
        sol, _ = s.solve(Branching([x]))
        assert sol == [0]
        assert log[3:6] == [("propagate", "a"), ("propagate", "b"), ("propagate", "c")]
        assert {call for call, _ in log[3:]} == {"propagate"}

    def test_conditional_body_attached_though_its_guards_never_meet(self):
        log = []
        m = Model()
        g1, g2, x = m.new_var([0]), m.new_var([1]), m.new_var(range(3))
        m.post(Conditional(g1, g2, SetUpSpy(log, "body", x)))
        s = Solver(m)
        assert log == [("attach", "body")]
        assert s.solve(Branching([x]))[0] is not None
        assert log == [("attach", "body")]


class EvenCap(Propagator):
    """Spy: caps ``x`` at its largest even value, so each of its calls may
    prune ``x`` and a second call in a row never does."""

    def __init__(self, x, idempotent, copies=1):
        self.x = x
        self.idempotent = idempotent
        self.copies = copies  # how many times ``subscriptions`` lists x
        self.calls = 0

    def subscriptions(self):
        for _ in range(self.copies):
            yield self.x, EventKind.BOUNDS

    def propagate(self, store):
        self.calls += 1
        store.set_max(self.x, store.max(self.x) // 2 * 2)
        return Status.ACTIVE

    def check(self, values):
        return values[self.x] % 2 == 0


class TestOwnEvents:
    @pytest.mark.parametrize(
        "idempotent, copies, runs",
        [(True, 1, 1), (False, 1, 2), (True, 2, 2)],
        ids=["True-1", "False-2", "aliased-True-2"],
    )
    def test_own_events_requeue_only_a_non_idempotent_propagator(self, idempotent, copies, runs):
        """A declared idempotence over a variable subscribed twice is not
        trusted: that propagator is re-queued like a non-idempotent one."""
        m = Model()
        x = m.new_var(range(10))
        spy = EvenCap(x, idempotent, copies)
        m.post(spy)
        s = Solver(m)
        assert s.propagate_root()
        assert m.store.values(x) == (0, 1, 2, 3, 4, 5, 6, 7, 8)
        assert spy.calls == runs  # the cap's own MAX_CHANGED wakes it only when not idempotent
        m.store.push()
        m.store.set_max(x, 7)  # a decision: an event the spy did not raise
        s.fixpoint()
        assert max(m.store.values(x)) == 6
        assert spy.calls == 2 * runs

    def test_idempotent_propagator_woken_by_another_propagator(self):
        m = Model()
        x = m.new_var(range(10))
        y = m.new_var(range(10))
        spy = EvenCap(x, True)
        m.post(spy)
        m.post(LessThan(x, y))  # caps x at 8 once the spy has run
        s = Solver(m)
        assert s.propagate_root()
        m.store.push()
        m.store.set_max(y, 8)  # LessThan cuts x to 7, which wakes the spy
        s.fixpoint()
        assert max(m.store.values(x)) == 6
        assert spy.calls == 2

    def test_failed_fixpoint_leaves_no_queued_flag(self):
        m = Model()
        a = m.new_var(range(5))
        b = m.new_var(range(5))
        c = m.new_var(range(5))
        first = LessThan(a, b)  # idempotent; the first to run in the failing branch
        m.post(first)
        m.post(LinearSum([1, 1], [b, c], "<=", 6))
        m.post(AllDifferent([a, b, c]))
        m.post(LinearSum([1, -1], [a, c], "==", 0))
        s = Solver(m)
        assert first.idempotent
        assert s.propagate_root()
        m.store.push()
        m.store.assign(a, 3)
        m.store.set_max(b, 2)  # two decisions at once: a < b cannot hold
        assert len(s._queue) > 1  # LessThan fails first, the others wait
        with pytest.raises(Inconsistent):
            s.fixpoint()
        assert not s._queue
        assert not any(s._queued)
        m.store.pop()
        # the propagator that raised is woken again in the next branch
        m.store.push()
        m.store.assign(b, 2)
        s.fixpoint()
        assert m.store.values(a) == (0, 1)


class ReferenceEngine:
    """The engine's former dispatch, kept as a reference: it runs over a
    :class:`RecordingStore` that no solver owns, and after every propagator
    call it drains the recorded shrinks and wakes the subscribers it finds
    in a dict.  Set-up (every ``attach`` when it is built), queue
    discipline, idempotence and entailment are the solver's."""

    def __init__(self, model):
        self.store = model.store
        self.props = list(model.propagators)
        n = len(self.props)
        self.subs = {}
        self.idempotent = []
        for idx, prop in enumerate(self.props):
            subs = list(prop.subscriptions())
            for var, mask in subs:
                self.subs.setdefault(var, []).append((idx, mask))
            self.idempotent.append(prop.idempotent and len(dict(subs)) == len(subs))
            prop.attach(self.store)
        self.active = [True] * n
        self.queue = deque(range(n))
        self.queued = [True] * n

    def wake(self, events):
        for var, kinds in events:
            for idx, mask in self.subs.get(var, ()):
                if mask & kinds and self.active[idx] and not self.queued[idx]:
                    self.queued[idx] = True
                    self.queue.append(idx)

    def fixpoint(self):
        store, active, queued = self.store, self.active, self.queued
        self.wake(store.drain())
        try:
            while self.queue:
                idx = self.queue.popleft()
                if not active[idx]:
                    queued[idx] = False
                    continue
                idem = self.idempotent[idx]
                if not idem:
                    queued[idx] = False
                if self.props[idx].propagate(store) is Status.ENTAILED:
                    active[idx] = False
                    store.trail_undo(partial(active.__setitem__, idx, True))
                self.wake(store.drain())
                if idem:
                    queued[idx] = False
        except Inconsistent:
            for i in self.queue:
                queued[i] = False
            self.queue.clear()
            queued[idx] = False
            store.drain()
            raise


def random_model(seed, store=None):
    """A small model mixing the engine's subscription masks, over ``store``
    when given, and the log its propagators append (call, index) pairs to,
    one per ``post`` or ``propagate`` call.  Neither engine calls ``post``,
    so a ``post`` entry in one log alone fails the comparison."""
    rng = random.Random(seed)
    m = Model()
    if store is not None:
        m.store = store
    xs = [m.new_var(rng.sample(range(5), rng.randint(2, 5))) for _ in range(rng.randint(5, 8))]

    def pick(k):
        return rng.sample(xs, k)

    for _ in range(rng.randint(3, 7)):
        kind = rng.choice(
            ["less", "sum<=", "sum==", "alldiff", "table", "card", "cond", "mset"]
        )
        if kind == "less":
            m.post(LessThan(*pick(2)))
        elif kind.startswith("sum"):
            k = rng.randint(2, 3)
            coeffs = [rng.choice([-2, -1, 1, 2]) for _ in range(k)]
            m.post(LinearSum(coeffs, pick(k), kind[3:], rng.randint(-2, 6)))
        elif kind == "alldiff":
            m.post(AllDifferent(pick(rng.randint(2, 3))))
        elif kind == "table":
            tuples = {(rng.randrange(5), rng.randrange(5)) for _ in range(rng.randint(3, 12))}
            m.post(TableConstraint(pick(2), sorted(tuples)))
        elif kind == "card":
            scope = pick(rng.randint(2, 3))
            occ = [m.new_var(range(len(scope) + 1)) for _ in range(5)]
            m.post(Cardinality(scope, [4, 3, 2, 1, 0], occ))
        elif kind == "cond":
            g1, g2, a, b = pick(4)
            m.post(Conditional(g1, g2, LessThan(a, b)))
        else:
            vs = pick(4)
            m.post(MultisetOrdering(vs[:2], vs[2:], strict=rng.random() < 0.5))
    log = []
    for idx, prop in enumerate(m.propagators):
        for name in ("post", "propagate"):
            method = getattr(prop, name)

            def logged(store, method=method, key=(name, idx)):
                log.append(key)
                return method(store)

            setattr(prop, name, logged)
    return m, log


class TestDispatch:
    def test_inline_wakes_run_the_reference_call_sequence(self):
        """On random models the solver, whose store queues subscribers as it
        shrinks, runs exactly the propagator calls the drain-then-wake
        reference runs, at the root and over random dives."""
        failed = compared = 0
        for seed in range(300):
            (m, log), (ref_m, ref_log) = random_model(seed), random_model(seed, RecordingStore())
            solver, ref = Solver(m), ReferenceEngine(ref_m)
            stores = m.store, ref_m.store

            def outcome(engine):
                try:
                    engine.fixpoint()
                    return True
                except Inconsistent:
                    return False

            def same_state():
                assert log == ref_log, seed
                assert domains(m) == domains(ref_m), seed

            ok = outcome(solver)
            assert ok == outcome(ref)
            same_state()
            if not ok:
                failed += 1
                continue
            rng = random.Random(seed)
            for _ in range(4):  # dives from the root, undone after each
                for _ in range(rng.randint(1, 4)):
                    free = [v for v in range(m.store.num_vars()) if not m.store.is_fixed(v)]
                    if not free:
                        break
                    var = rng.choice(free)
                    val = rng.choice(m.store.values(var))
                    act = rng.choice(["assign", "set_min", "set_max", "remove"])
                    for store in stores:
                        store.push()
                        getattr(store, act)(var, val)
                    ok = outcome(solver)
                    assert ok == outcome(ref)
                    same_state()
                    compared += 1
                    if not ok:
                        failed += 1
                        break
                while m.store.depth():
                    for store in stores:
                        store.pop()
                assert domains(m) == domains(ref_m)
        assert failed > 60 and compared > 1200, (failed, compared)

    def test_decision_queues_its_subscribers(self):
        """A shrink on a solver's store queues the subscribers whose mask it
        meets at once, before the fixpoint runs."""
        m = Model()
        x = m.new_var(range(10))
        y = m.new_var(range(10))
        m.post(AllDifferent([x, y]))  # wakes on instantiation only
        m.post(LessThan(x, y))  # wakes on bounds
        s = Solver(m)
        assert s.propagate_root()
        assert not s._queue
        m.store.push()
        m.store.set_max(y, 4)
        assert list(s._queue) == [1] and s._queued == [False, True]
        s.fixpoint()
        assert m.store.values(x) == (0, 1, 2, 3)
        assert not s._queue and not any(s._queued)

    def test_solver_store_reports_its_decisions(self):
        """The trail reader works on a solver's store too: it reports the
        root pruning, then a decision and what the fixpoint pruned after it,
        and after the pop only what a later decision changes."""
        m = Model()
        x = m.new_var(range(10))
        y = m.new_var(range(10))
        m.post(LessThan(x, y))
        s = Solver(m)
        assert s.propagate_root()
        bounds = EventKind.DOMAIN_CHANGED | EventKind.MAX_CHANGED
        assert m.store.take_raw_events() == [
            (x, bounds),
            (y, EventKind.DOMAIN_CHANGED | EventKind.MIN_CHANGED),
        ]
        m.store.push()
        m.store.set_max(y, 4)
        s.fixpoint()
        assert m.store.take_raw_events() == [(y, bounds), (x, bounds)]
        m.store.pop()
        m.store.push()
        m.store.set_min(x, 7)
        assert m.store.take_raw_events() == [(x, EventKind.DOMAIN_CHANGED | EventKind.MIN_CHANGED)]
        m.store.pop()

    def test_variable_made_after_the_solver_can_shrink(self):
        m = Model()
        x = m.new_var(range(3))
        y = m.new_var(range(3))
        m.post(LessThan(x, y))
        s = Solver(m)
        late = m.new_var(range(5))
        assert s.propagate_root()
        m.store.push()
        assert m.store.set_max(late, 2)
        s.fixpoint()
        assert m.store.values(late) == (0, 1, 2)
        m.store.pop()
        assert m.store.values(late) == (0, 1, 2, 3, 4)


class TestRootFailure:
    """A failure at the root leaves partial pruning that no checkpoint can
    undo, so the solver keeps reporting it."""

    def test_failed_root_stays_failed(self):
        m = Model()
        x, y, z = (m.new_var(range(3)) for _ in range(3))
        m.post(LessThan(x, y))
        m.post(LessThan(y, z))
        m.post(LinearSum([1], [z], "<=", 1))
        s = Solver(m)
        assert not s.propagate_root()
        assert not s.propagate_root()  # although the failure emptied the queue
        sol, stats = s.solve(Branching([x, y, z]))
        assert sol is None
        assert stats.choice_points == 0 and stats.fails == 1

    def test_second_solve_opens_no_choice_point(self):
        m = Model()
        a = m.new_var(range(3))
        b = m.new_var(range(3))
        m.post(LessThan(a, b))
        m.post(LessThan(b, a))
        s = Solver(m)
        for _ in range(2):
            sol, stats = s.solve(Branching([a, b]))
            assert sol is None
            assert stats.choice_points == 0 and stats.fails == 1


class TestSolveFirst:
    def test_trivial_model(self):
        m = Model()
        x = m.new_var({0, 1})
        sol, stats = Solver(m).solve(Branching([x]))
        assert sol[x] == 0
        assert stats.choice_points == 1 and stats.fails == 0

    def test_unsat_strict_pair_zero_choice_points(self):
        m = Model()
        x = m.new_var({1})
        y = m.new_var({1})
        m.post(MultisetOrdering([x], [y], strict=True))
        sol, stats = Solver(m).solve(Branching([x, y]))
        assert sol is None
        assert stats.choice_points == 0 and stats.fails == 1

    def test_descending_value_order(self):
        m = Model()
        x = m.new_var({0, 1, 2})
        sol, _ = Solver(m).solve(Branching([x], lambda var, values: values[::-1]))
        assert sol[x] == 2

    def test_all_different_labelling(self):
        m = Model()
        vs = [m.new_var({1, 2, 3}) for _ in range(3)]
        m.post(AllDifferent(vs))
        sol, stats = Solver(m).solve(Branching(vs))
        assert sorted(sol[v] for v in vs) == [1, 2, 3]

    def test_unfixed_vars_outside_order_get_labelled(self):
        m = Model()
        x = m.new_var({0, 1})
        y = m.new_var({0, 1})
        m.post(LessThan(x, y))
        sol, _ = Solver(m).solve(Branching([x]))
        assert sol is not None and sol[x] < sol[y]

    def test_solution_is_recheck_verified(self):
        # a deliberately unsound propagator must be caught by the re-check
        from msetcp.engine import Propagator, Status

        class Bogus(Propagator):
            def __init__(self, v):
                self.v = v

            def propagate(self, store):
                return Status.ACTIVE

            def check(self, values):
                return False

        m = Model()
        x = m.new_var({0})
        m.post(Bogus(x))
        with pytest.raises(RuntimeError):
            Solver(m).solve(Branching([x]))

    def test_determinism(self):
        def run():
            m = Model()
            vs = [m.new_var({0, 1, 2}) for _ in range(4)]
            m.post(MultisetOrdering(vs[:2], vs[2:], strict=True))
            return Solver(m).solve(Branching(vs))

        s1, st1 = run()
        s2, st2 = run()
        assert s1 == s2
        assert (st1.fails, st1.choice_points, st1.solutions) == (
            st2.fails,
            st2.choice_points,
            st2.solutions,
        )

    def test_deep_order_no_recursion_error(self):
        # one search level per variable, far deeper than the interpreter's
        # recursion limit
        m = Model()
        vs = [m.new_var({0, 1}) for _ in range(3000)]
        sol, stats = Solver(m).solve(Branching(vs))
        assert sol == [0] * 3000
        assert stats.choice_points == 3000 and stats.fails == 0
        assert m.store.depth() == 0  # every checkpoint popped after the solution

    def test_deadline_checked_between_failing_siblings(self):
        # every child of x fails (x == y, yet x != y); the value order sleeps
        # past the deadline after the first, so the next child must not open
        m = Model()
        x = m.new_var(range(5))
        y = m.new_var(range(5))
        m.post(LinearSum([1, -1], [x, y], "==", 0))
        m.post(AllDifferent([x, y]))

        def slow_after_first(var, values):
            yield values[0]
            time.sleep(0.05)
            yield from values[1:]

        with pytest.raises(SearchTimeout):
            Solver(m).solve(Branching([x, y], slow_after_first), timeout=0.01)

    def test_nan_timeout_rejected(self):
        # time.monotonic() + nan compares false with every clock reading
        m = Model()
        x = m.new_var(range(3))
        with pytest.raises(ValueError, match="NaN"):
            Solver(m).solve(Branching([x]), timeout=float("nan"))


class TestSolveOptimal:
    def test_unconstrained_minimum(self):
        m = Model()
        x = m.new_var({2, 5})
        sol, stats = Solver(m).solve(Branching([x]), minimize=x, first_only=False)
        assert sol[x] == 2 and stats.best_objective == 2

    def test_bound_drives_exhaustive_proof(self):
        m = Model()
        a = m.new_var(range(4))
        b = m.new_var(range(4))
        obj = m.new_var(range(10))
        m.post(LessThan(a, b))
        m.post(sum_eq([a, b], 3))
        m.post(LinearSum([1, 1, -1], [a, b, obj], "==", 0))
        sol, stats = Solver(m).solve(Branching([a, b]), minimize=obj, first_only=False)
        assert stats.best_objective == 3
        assert sol[a] + sol[b] == 3 and sol[a] < sol[b]

    def test_default_proves_the_optimum(self):
        # descending values make the first solution the worst one, so only a
        # search that goes on past it finds and proves x = 0
        def solve(**kwargs):
            m = Model()
            x = m.new_var(range(4))
            descending = Branching([x], lambda var, values: reversed(values))
            sol, stats = Solver(m).solve(descending, minimize=x, **kwargs)
            return sol[x], stats

        best, stats = solve()
        assert best == 0 and stats.best_objective == 0 and stats.solutions == 4
        first, stats = solve(first_only=True)
        assert first == 3 and stats.solutions == 1

    def test_infeasible_model(self):
        m = Model()
        a = m.new_var({3})
        obj = m.new_var(range(3))
        m.post(LinearSum([1, -1], [a, obj], "==", 0))  # obj = 3, out of range
        sol, stats = Solver(m).solve(Branching([a]), minimize=obj, first_only=False)
        assert sol is None


class TestSearchCompleteness:
    """Search must agree with exhaustive enumeration on tiny random models."""

    def test_satisfiability_matches_enumeration(self):
        import itertools
        import random

        from msetcp.order import Ordering, lex_cmp, mset_cmp

        rng = random.Random(17)
        for trial in range(150):
            n = rng.randint(1, 3)
            xd = [sorted(rng.sample(range(3), rng.randint(1, 2))) for _ in range(n)]
            yd = [sorted(rng.sample(range(3), rng.randint(1, 2))) for _ in range(n)]
            strict = rng.random() < 0.5
            use_lex = rng.random() < 0.3
            m = Model()
            xs = [m.new_var(d) for d in xd]
            ys = [m.new_var(d) for d in yd]
            if use_lex:
                from msetcp.constraints import LexOrdering

                m.post(LexOrdering(xs, ys, strict=strict))
                cmp_fn = lex_cmp
            else:
                m.post(MultisetOrdering(xs, ys, strict=strict))
                cmp_fn = mset_cmp
            sol, _ = Solver(m).solve(Branching(xs + ys))
            expected_sat = any(
                cmp_fn(xv, yv) is Ordering.LESS
                or (not strict and cmp_fn(xv, yv) is Ordering.EQUAL)
                for xv in itertools.product(*xd)
                for yv in itertools.product(*yd)
            )
            assert (sol is not None) == expected_sat, (xd, yd, strict, use_lex)

    def test_optimum_matches_enumeration(self):
        import itertools
        import random

        from msetcp.order import Ordering, mset_cmp

        rng = random.Random(23)
        for trial in range(80):
            n = rng.randint(1, 3)
            xd = [sorted(rng.sample(range(3), rng.randint(1, 2))) for _ in range(n)]
            yd = [sorted(rng.sample(range(3), rng.randint(1, 2))) for _ in range(n)]
            m = Model()
            xs = [m.new_var(d) for d in xd]
            ys = [m.new_var(d) for d in yd]
            m.post(MultisetOrdering(xs, ys))
            obj = m.new_var(range(3 * n + 1))
            m.post(LinearSum([1] * n + [-1], xs + [obj], "==", 0))
            sol, stats = Solver(m).solve(
                Branching(xs + ys), minimize=obj, first_only=False
            )
            feasible = [
                sum(xv)
                for xv in itertools.product(*xd)
                for yv in itertools.product(*yd)
                if mset_cmp(xv, yv) is not Ordering.GREATER
            ]
            if not feasible:
                assert sol is None
            else:
                assert stats.best_objective == min(feasible), (xd, yd)


class TestStatsInvariants:
    def test_fails_bounded_by_choice_points_plus_one(self):
        import random

        rng = random.Random(3)
        for _ in range(30):
            m = Model()
            n = rng.randint(1, 3)
            xs = [m.new_var([rng.randrange(3) for _ in range(rng.randint(1, 3))]) for _ in range(n)]
            ys = [m.new_var([rng.randrange(3) for _ in range(rng.randint(1, 3))]) for _ in range(n)]
            m.post(MultisetOrdering(xs, ys, strict=True))
            sol, stats = Solver(m).solve(Branching(xs + ys))
            assert stats.fails <= stats.choice_points + 1
            if sol is not None:
                assert stats.solutions == 1


# (choice_points, fails, status, objective) of bench.run.  A change to the
# engine, the store or a propagator that only makes it faster keeps every one.
PINNED_TREES = [
    ({"problem": "sport", "teams": 5}, "none", "algorithm", (16, 4, "solved", None)),
    ({"problem": "sport", "teams": 5}, "lex", "algorithm", (23, 10, "solved", None)),
    ({"problem": "sport", "teams": 6}, "none", "algorithm", (21, 6, "solved", None)),
    ({"problem": "sport", "teams": 6}, "lex", "algorithm", (40, 19, "solved", None)),
    ({"problem": "sport", "teams": 7}, "lex", "algorithm", (1496, 920, "solved", None)),
    ({"problem": "sport", "teams": 5}, "mset", "algorithm", (11, 1, "solved", None)),
    ({"problem": "sport", "teams": 5}, "mset", "gcc", (13, 2, "solved", None)),
    ({"problem": "sport", "teams": 5}, "mset", "arith", (11, 1, "solved", None)),
    ({"problem": "sport", "teams": 7}, "mset", "sort", (135, 71, "solved", None)),
    ({"problem": "sport", "teams": 7}, "mset", "gcc", (137, 73, "solved", None)),
    ("rack_1", "none", "algorithm", (45, 31, "solved", 650)),
    ("rack_1", "mset", "algorithm", (40, 27, "solved", 650)),
    ("rack_2", "mset", "algorithm", (356, 275, "solved", 800)),
    ("rack_5", "none", "algorithm", (32, 25, "solved", 800)),
    ("rack_5", "mset", "algorithm", (2276, 1799, "solved", 800)),
    ("rack_5", "mset", "arith", (2276, 1799, "solved", 800)),
    ("party_toy", "lex", "algorithm", (1, 0, "solved", None)),
    ("party_toy", "mset", "algorithm", (3, 1, "solved", None)),
    ("party_2", "none", "algorithm", (133, 5, "solved", None)),
    ("party_2", "lex", "algorithm", (3319, 2078, "solved", None)),
    ("rack_4", "mset", "algorithm-sorted", (190, 132, "solved", 750)),
    ("rack_6", "mset", "arith", (356, 275, "solved", 800)),
    ({"problem": "sport", "teams": 7}, "mset", "algorithm", (131, 69, "solved", None)),
    ("rack_3", "mset", "algorithm", (50, 35, "solved", 700)),
    ("party_3", "none", "algorithm", (130, 3, "solved", None)),
    ("party_6", "lex", "algorithm", (252, 81, "solved", None)),
    ("party_4", "lex", "algorithm", (6449, 4050, "solved", None)),
]


def test_search_tree_fingerprints_pinned():
    """A hot-path change that alters any search tree shows up here."""
    got, expected = [], []
    for source, symmetry, encoding, fingerprint in PINNED_TREES:
        if isinstance(source, str):
            source = str(resources.files("msetcp").joinpath(f"data/{source}.json"))
        rec = run(RunConfig(symmetry=symmetry, encoding=encoding), load_instance(source))
        got.append((rec.choice_points, rec.fails, rec.status, rec.objective))
        expected.append(fingerprint)
    assert got == expected


class BudgetReached(Exception):
    """A budgeted search used up its choice points."""


def budgeted(branching, solver, budget):
    """``branching`` with values handed out only while ``solver`` is below
    ``budget`` choice points, so the search stops at exactly ``budget``."""
    inner = branching.value_order

    def value_order(var, values):
        for val in inner(var, values):
            if solver.stats.choice_points >= budget:
                raise BudgetReached
            yield val

    return Branching(branching.order, value_order)


# (choice_points, fails) after a search stopped at its first number of choice
# points: runs too long to solve in a test, whose tree prefix still pins the
# model.  The source is a shipped instance's name or an instance document.
BUDGETED_TREES = [
    ("party_1", "none", "algorithm", (3000, 1957)),
    ("party_1", "mset", "algorithm", (3000, 2208)),
    ("party_2", "mset", "gcc", (3000, 2203)),
    ("party_3", "mset-rows", "sort", (3000, 2049)),
    ({"problem": "sport", "teams": 9}, "none", "algorithm", (2000, 1313)),
    ({"problem": "sport", "teams": 9}, "lex", "algorithm", (2000, 1298)),
    ({"problem": "sport", "teams": 11}, "lex", "algorithm", (2000, 1465)),
]


def test_budgeted_search_trees_pinned():
    got, expected = [], []
    for source, symmetry, encoding, fingerprint in BUDGETED_TREES:
        if isinstance(source, str):
            source = str(resources.files("msetcp").joinpath(f"data/{source}.json"))
        built = build(load_instance(source), RunConfig(symmetry=symmetry, encoding=encoding))
        solver = Solver(built.model)
        with pytest.raises(BudgetReached):
            solver.solve(budgeted(built.branching, solver, fingerprint[0]))
        got.append((solver.stats.choice_points, solver.stats.fails))
        expected.append(fingerprint)
    assert got == expected


class TestStoppedSearch:
    """A search stopped by an exception leaves the store at the depth it had
    on entry, so a second ``solve`` on the same solver searches from the same
    domains: rack_5 under ``mset`` is proved optimal at 800 again."""

    @staticmethod
    def _rack_5():
        path = str(resources.files("msetcp").joinpath("data/rack_5.json"))
        built = build(load_instance(path), RunConfig(symmetry="mset"))
        return Solver(built.model), built.branching, built.model.objective

    def _assert_solves_again(self, solver, branching, objective):
        assert solver.store.depth() == 0
        sol, _ = solver.solve(branching, minimize=objective)
        assert sol is not None and sol[objective] == 800
        assert solver.store.depth() == 0

    def test_value_order_raising_mid_search(self):
        solver, branching, objective = self._rack_5()
        with pytest.raises(BudgetReached):
            solver.solve(budgeted(branching, solver, 500), minimize=objective)
        self._assert_solves_again(solver, branching, objective)

    def test_deadline_crossed_mid_search(self, monkeypatch):
        # a clock that ticks once per reading crosses the deadline after the
        # same number of deadline checks on every run
        ticks = itertools.count()
        monkeypatch.setattr("msetcp.engine.time", SimpleNamespace(monotonic=lambda: next(ticks)))
        solver, branching, objective = self._rack_5()
        with pytest.raises(SearchTimeout):
            solver.solve(branching, minimize=objective, timeout=500)
        assert solver.stats.choice_points > 0
        self._assert_solves_again(solver, branching, objective)

    def test_wall_time_adds_up_over_a_stopped_and_a_finished_search(self, monkeypatch):
        """Like every other count, ``wall_time`` adds up over the solver's
        life, so nodes/s taken from the stats stays right after a re-solve."""
        ticks = itertools.count()
        monkeypatch.setattr("msetcp.engine.time.monotonic", lambda: next(ticks))
        solver, branching, objective = self._rack_5()
        with pytest.raises(SearchTimeout):
            solver.solve(branching, minimize=objective, timeout=500)
        stopped = solver.stats.wall_time
        assert stopped > 500
        # without a deadline, the clock is read once at the start, once at the end
        _, stats = solver.solve(branching, minimize=objective)
        assert stats.wall_time == stopped + 1
