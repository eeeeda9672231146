"""Fixpoint engine and search: queue semantics, stats, soundness, determinism."""

import time
from importlib import resources

import pytest

from msetcp import oracle
from msetcp.bench import RunConfig, load_instance, run
from msetcp.constraints import AllDifferent, LessThan, LinearSum, sum_eq
from msetcp.engine import (
    Branching,
    Model,
    SearchTimeout,
    Solver,
    descending,
    propagate_to_fixpoint,
    solve_first,
    solve_optimal,
)
from msetcp.mset import MultisetOrdering



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
        s._wake_for(m.store.take_raw_events())
        s.fixpoint()
        assert len(calls) == n_calls  # entailed at root, never woken again


class TestSolveFirst:
    def test_trivial_model(self):
        m = Model()
        x = m.new_var({0, 1})
        sol, stats = solve_first(m, Branching([x]))
        assert sol[x] == 0
        assert stats.choice_points == 1 and stats.fails == 0

    def test_unsat_strict_pair_zero_choice_points(self):
        m = Model()
        x = m.new_var({1})
        y = m.new_var({1})
        m.post(MultisetOrdering([x], [y], strict=True))
        sol, stats = solve_first(m, Branching([x, y]))
        assert sol is None
        assert stats.choice_points == 0 and stats.fails == 1

    def test_descending_value_order(self):
        m = Model()
        x = m.new_var({0, 1, 2})
        sol, _ = solve_first(m, Branching([x], descending))
        assert sol[x] == 2

    def test_all_different_labelling(self):
        m = Model()
        vs = [m.new_var({1, 2, 3}) for _ in range(3)]
        m.post(AllDifferent(vs))
        sol, stats = solve_first(m, Branching(vs))
        assert sorted(sol[v] for v in vs) == [1, 2, 3]

    def test_unfixed_vars_outside_order_get_labelled(self):
        m = Model()
        x = m.new_var({0, 1})
        y = m.new_var({0, 1})
        m.post(LessThan(x, y))
        sol, _ = solve_first(m, Branching([x]))
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
            solve_first(m, Branching([x]))

    def test_determinism(self):
        def run():
            m = Model()
            vs = [m.new_var({0, 1, 2}) for _ in range(4)]
            m.post(MultisetOrdering(vs[:2], vs[2:], strict=True))
            return solve_first(m, Branching(vs))

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
        sol, stats = solve_first(m, Branching(vs))
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


class TestSolveOptimal:
    def test_unconstrained_minimum(self):
        m = Model()
        x = m.new_var({2, 5})
        m.minimize(x)
        sol, stats = solve_optimal(m, Branching([x]))
        assert sol[x] == 2 and stats.best_objective == 2

    def test_bound_drives_exhaustive_proof(self):
        m = Model()
        a = m.new_var(range(4))
        b = m.new_var(range(4))
        obj = m.new_var(range(10))
        m.post(LessThan(a, b))
        m.post(sum_eq([a, b], 3))
        m.post(LinearSum([1, 1, -1], [a, b, obj], "==", 0))
        m.minimize(obj)
        sol, stats = solve_optimal(m, Branching([a, b]))
        assert stats.best_objective == 3
        assert sol[a] + sol[b] == 3 and sol[a] < sol[b]

    def test_infeasible_model(self):
        m = Model()
        a = m.new_var({3})
        obj = m.new_var(range(3))
        m.post(LinearSum([1, -1], [a, obj], "==", 0))  # obj = 3, out of range
        m.minimize(obj)
        sol, stats = solve_optimal(m, Branching([a]))
        assert sol is None

    def test_requires_objective(self):
        m = Model()
        x = m.new_var({0})
        with pytest.raises(ValueError):
            solve_optimal(m, Branching([x]))


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
            sol, _ = solve_first(m, Branching(xs + ys))
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
            m.minimize(obj)
            sol, stats = solve_optimal(m, Branching(xs + ys))
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
            sol, stats = solve_first(m, Branching(xs + ys))
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
