"""Alternative encodings and the benchmark constraint library."""

import pytest

from msetcp import oracle
from msetcp.bench import RunConfig, post_mset_ordering
from msetcp.constraints import (
    KERNEL_TERMS,
    AllDifferent,
    ArithmeticMultiset,
    Cardinality,
    Conditional,
    HostCapacity,
    LessThan,
    LexOrdering,
    LinearSum,
    MeetOnce,
    ReifiedEquals,
    SortednessLink,
    StatelessMultisetOrdering,
    TableConstraint,
    sum_eq,
)
from msetcp.engine import Branching, Model, Solver, Status, propagate_to_fixpoint
from msetcp.mset import MultisetOrdering
from msetcp.store import Inconsistent, Store


def fixpoint(model):
    """Root fixpoint; returns domain list or None on failure."""
    if not propagate_to_fixpoint(model):
        return None
    return [set(model.store.values(v)) for v in range(model.store.num_vars())]


def project(domains, var_ids):
    return None if domains is None else [domains[v] for v in var_ids]


class CutRecordingStore(Store):
    """Records every bound cut a propagator asks for, and whether it moved
    the bound; a cut that fails raises before it is recorded."""

    def __init__(self):
        super().__init__()
        self.cuts = []

    def set_max(self, var, bound):
        changed = super().set_max(var, bound)
        self.cuts.append(("max", var, bound, changed))
        return changed

    def set_min(self, var, bound):
        changed = super().set_min(var, bound)
        self.cuts.append(("min", var, bound, changed))
        return changed


# -- decomposition builders ----------------------------------------------------


def mset_direct(xdoms, ydoms, strict=False):
    m = Model()
    xs = [m.new_var(d) for d in xdoms]
    ys = [m.new_var(d) for d in ydoms]
    m.post(MultisetOrdering(xs, ys, strict=strict))
    return project(fixpoint(m), xs + ys)


def mset_via_gcc(xdoms, ydoms, strict=False):
    m = Model()
    xs = [m.new_var(d) for d in xdoms]
    ys = [m.new_var(d) for d in ydoms]
    values = sorted({v for d in list(xdoms) + list(ydoms) for v in d}, reverse=True)
    ox = [m.new_var(range(len(xs) + 1)) for _ in values]
    oy = [m.new_var(range(len(ys) + 1)) for _ in values]
    m.post(Cardinality(xs, values, ox))
    m.post(Cardinality(ys, values, oy))
    m.post(LexOrdering(ox, oy, strict=strict))
    return project(fixpoint(m), xs + ys)


def mset_via_sort(xdoms, ydoms, strict=False):
    m = Model()
    xs = [m.new_var(d) for d in xdoms]
    ys = [m.new_var(d) for d in ydoms]
    union_x = {v for d in xdoms for v in d}
    union_y = {v for d in ydoms for v in d}
    sxs = [m.new_var(union_x) for _ in xs]
    sys_ = [m.new_var(union_y) for _ in ys]
    m.post(SortednessLink(xs, sxs))
    m.post(SortednessLink(ys, sys_))
    m.post(LexOrdering(sxs, sys_, strict=strict))
    return project(fixpoint(m), xs + ys)


def mset_via_arith(xdoms, ydoms, strict=False, base=None):
    m = Model()
    xs = [m.new_var(d) for d in xdoms]
    ys = [m.new_var(d) for d in ydoms]
    if base is None:
        base = max(2, len(xs))
    m.post(ArithmeticMultiset(xs, ys, base, strict=strict))
    return project(fixpoint(m), xs + ys)


class TestLexOrdering:
    def test_counting_vectors_already_consistent(self):
        m = Model()
        ox = [m.new_var(d) for d in [{0, 1}, {1}, {0}, {0, 1}]]
        oy = [m.new_var(d) for d in [{0, 1}, {0, 1}, {1}, {0}]]
        m.post(LexOrdering(ox, oy))
        doms = fixpoint(m)
        assert project(doms, ox) == [{0, 1}, {1}, {0}, {0, 1}]
        assert project(doms, oy) == [{0, 1}, {0, 1}, {1}, {0}]

    def test_forced_greater_fails(self):
        m = Model()
        xs = [m.new_var(d) for d in [{1}, {0, 1}]]
        ys = [m.new_var(d) for d in [{0}, {0, 1}]]
        m.post(LexOrdering(xs, ys))
        assert fixpoint(m) is None

    def test_sorted_views_already_consistent(self):
        m = Model()
        sx = [m.new_var(d) for d in [{2, 3}, {0, 2}]]
        sy = [m.new_var(d) for d in [{2, 3}, {1}]]
        m.post(LexOrdering(sx, sy))
        doms = fixpoint(m)
        assert project(doms, sx) == [{2, 3}, {0, 2}]

    @pytest.mark.parametrize("strict", [False, True])
    def test_matches_oracle(self, strict):
        checker = oracle.lex_less if strict else oracle.lex_leq
        for xd, yd in oracle.random_instances(800, seed=70 + strict):
            m = Model()
            xs = [m.new_var(d) for d in xd]
            ys = [m.new_var(d) for d in yd]
            m.post(LexOrdering(xs, ys, strict=strict))
            got = project(fixpoint(m), xs + ys)
            gac = oracle.brute_force_gac(checker, xd, yd)
            exp = None if gac is None else [set(d) for d in gac[0] + gac[1]]
            assert got == exp, (xd, yd)


class TestCardinality:
    def test_counting_bounds_both_vectors(self):
        m = Model()
        xs = [m.new_var(d) for d in [{0, 3}, {2}]]
        occ = [m.new_var(range(3)) for _ in range(4)]
        m.post(Cardinality(xs, [3, 2, 1, 0], occ))
        doms = fixpoint(m)
        assert project(doms, occ) == [{0, 1}, {1}, {0}, {0, 1}]

    def test_single_variable(self):
        m = Model()
        xs = [m.new_var({1, 2})]
        occ = [m.new_var(range(2)) for _ in range(3)]
        m.post(Cardinality(xs, [2, 1, 0], occ))
        doms = fixpoint(m)
        assert project(doms, occ) == [{0, 1}, {0, 1}, {0}]

    def test_forced_assignment(self):
        m = Model()
        xs = [m.new_var({1, 2}), m.new_var({2})]
        occ = [m.new_var({1}), m.new_var({0, 1})]
        m.post(Cardinality(xs, [2, 1], occ))
        doms = fixpoint(m)
        # value 1 must occur once and only xs[0] can supply it
        assert project(doms, xs) == [{1}, {2}]

    def test_forbidden_value_removed(self):
        m = Model()
        xs = [m.new_var({1, 2}), m.new_var({1, 3})]
        occ = [m.new_var({0}), m.new_var({0, 1, 2}), m.new_var({0, 1, 2})]
        m.post(Cardinality(xs, [3, 2, 1], occ))
        doms = fixpoint(m)
        assert project(doms, xs) == [{1, 2}, {1}]

    def test_infeasible_counts_fail(self):
        m = Model()
        xs = [m.new_var({1}), m.new_var({1})]
        occ = [m.new_var({1})]
        m.post(Cardinality(xs, [1], occ))
        assert fixpoint(m) is None

    def test_never_prunes_a_supported_assignment(self):
        """Soundness vs enumeration over variables and occurrence counts."""
        import itertools
        import random

        rng = random.Random(37)
        for _ in range(200):
            n = rng.randint(1, 3)
            values = sorted(rng.sample(range(4), rng.randint(1, 3)), reverse=True)
            # half the time the domains also hold a value the list leaves out
            unlisted = [v for v in range(4) if v not in values][: rng.randint(0, 1)]
            pool = values + unlisted
            xd = [sorted(rng.sample(pool, rng.randint(1, len(pool)))) for _ in range(n)]
            od = [sorted(rng.sample(range(n + 1), rng.randint(1, n + 1))) for _ in values]
            m = Model()
            variables = [m.new_var(d) for d in xd + od]  # ids 0, 1, ...
            xs, occ = variables[:n], variables[n:]
            prop = Cardinality(xs, values, occ)
            m.post(prop)
            doms = fixpoint(m)
            solutions = [vals for vals in itertools.product(*xd, *od) if prop.check(vals)]
            if doms is None:
                assert not solutions, (xd, od, values)
                continue
            for vals in solutions:
                assert all(v in doms[x] for v, x in zip(vals, variables)), (xd, od, vals)

    def test_matches_reference_fixpoint(self):
        """Domains and failure agree with applying the counting rules (occ
        bounds from the fixed and holder counts, then force or forbid the
        value) until nothing changes, on random small instances."""
        import random

        def reference(values, xd, od):
            xd = [set(d) & set(values) for d in xd]
            od = [set(d) for d in od]
            if not all(xd):
                return None
            changed = True
            while changed:
                changed = False
                for k, val in enumerate(values):
                    fixed = sum(d == {val} for d in xd)
                    holders = [d for d in xd if len(d) > 1 and val in d]
                    kept = {c for c in od[k] if fixed <= c <= fixed + len(holders)}
                    if not kept:
                        return None
                    if kept != od[k]:
                        od[k] = kept
                        changed = True
                    if holders and min(kept) == fixed + len(holders):
                        for d in holders:
                            d.intersection_update({val})
                        changed = True
                    elif holders and max(kept) == fixed:
                        for d in holders:
                            d.discard(val)
                        changed = True
            return xd + od

        rng = random.Random(41)
        failures = pruned = 0
        for _ in range(800):
            n = rng.randint(1, 4)
            values = sorted(rng.sample(range(4), rng.randint(1, 4)), reverse=True)
            xd = [set(rng.sample(values + [4], rng.randint(1, len(values)))) for _ in range(n)]
            od = [set(rng.sample(range(n + 1), rng.randint(n // 2 + 1, n + 1))) for _ in values]
            m = Model()
            xs = [m.new_var(d) for d in xd]
            occ = [m.new_var(d) for d in od]
            m.post(Cardinality(xs, values, occ))
            got = project(fixpoint(m), xs + occ)
            assert got == reference(values, xd, od), (values, xd, od)
            failures += got is None
            pruned += got is not None and got[:n] != [d & set(values) for d in xd]
        assert 100 < failures < 700
        assert pruned > 100

    def test_value_list_must_decrease(self):
        s = Store()
        v = s.new_var({0})
        o = s.new_var({0, 1})
        with pytest.raises(ValueError):
            Cardinality([v], [0, 1], [o, o])


class TestSortednessLink:
    def test_position_bounds_and_union_filter(self):
        m = Model()
        xs = [m.new_var(d) for d in [{0, 3}, {2}]]
        sxs = [m.new_var(range(4)) for _ in xs]
        m.post(SortednessLink(xs, sxs))
        doms = fixpoint(m)
        assert project(doms, sxs) == [{2, 3}, {0, 2}]

    def test_ground_vector_sorted(self):
        m = Model()
        xs = [m.new_var({v}) for v in (1, 3, 2)]
        sxs = [m.new_var(range(4)) for _ in xs]
        m.post(SortednessLink(xs, sxs))
        doms = fixpoint(m)
        assert project(doms, sxs) == [{3}, {2}, {1}]

    def test_channel_back_to_source(self):
        m = Model()
        ys = [m.new_var({0, 1, 2})]
        sys_ = [m.new_var({1, 2})]  # sorted view min already lifted
        m.post(SortednessLink(ys, sys_))
        doms = fixpoint(m)
        assert project(doms, ys) == [{1, 2}]

    def test_infeasible_bounds_fail(self):
        m = Model()
        xs = [m.new_var({0, 1}), m.new_var({0, 1})]
        sxs = [m.new_var({3}), m.new_var({0, 1})]
        m.post(SortednessLink(xs, sxs))
        assert fixpoint(m) is None

    def test_random_ground_round_trip(self):
        import random

        rng = random.Random(8)
        for _ in range(100):
            n = rng.randint(1, 5)
            vec = [rng.randrange(4) for _ in range(n)]
            m = Model()
            xs = [m.new_var({v}) for v in vec]
            sxs = [m.new_var(range(4)) for _ in range(n)]
            m.post(SortednessLink(xs, sxs))
            doms = fixpoint(m)
            assert [next(iter(d)) for d in project(doms, sxs)] == sorted(vec, reverse=True)

    def test_never_prunes_a_supported_value(self):
        """Soundness vs enumeration: every channel solution survives filtering."""
        import itertools
        import random

        from msetcp.order import sort_desc

        rng = random.Random(31)
        for _ in range(200):
            n = rng.randint(1, 4)
            xd = [sorted(rng.sample(range(4), rng.randint(1, 3))) for _ in range(n)]
            sd = [sorted(rng.sample(range(4), rng.randint(1, 4))) for _ in range(n)]
            m = Model()
            xs = [m.new_var(d) for d in xd]
            sxs = [m.new_var(d) for d in sd]
            m.post(SortednessLink(xs, sxs))
            doms = fixpoint(m)
            solutions = [
                xv
                for xv in itertools.product(*xd)
                if all(s in d for s, d in zip(sort_desc(xv), sd))
            ]
            if doms is None:
                assert not solutions, (xd, sd)
                continue
            for xv in solutions:
                assert all(v in doms[x] for v, x in zip(xv, xs)), (xd, sd, xv)
                assert all(
                    s in doms[sx] for s, sx in zip(sort_desc(xv), sxs)
                ), (xd, sd, xv)


@pytest.mark.parametrize("encoding", ["gcc", "sort"])
def test_counting_fixpoint_is_stable(encoding):
    """At the engine's fixpoint one more call of any propagator of the gcc or
    sort decomposition changes nothing.  The counting filters make one pass
    per call and rely on the queue to run them again, which reaches their
    fixpoint only if every variable they prune wakes them."""
    stable = 0
    for xd, yd in oracle.random_instances(300, seed=61, max_len=4, max_values=4):
        for strict in (False, True):
            m = Model()
            xs = [m.new_var(d) for d in xd]
            ys = [m.new_var(d) for d in yd]
            post_mset_ordering(m, xs, ys, strict, RunConfig(encoding=encoding))
            if not propagate_to_fixpoint(m):
                continue
            # the solver's store records no events, so compare the domains
            doms = [m.store.values(v) for v in range(m.store.num_vars())]
            for prop in m.propagators:
                prop.propagate(m.store)
                after = [m.store.values(v) for v in range(m.store.num_vars())]
                assert after == doms, (type(prop).__name__, xd, yd, strict)
            stable += 1
    assert stable > 200


def _random_table(rng, store):
    arity = rng.randint(1, 3)
    xs = [store.new_var(rng.sample(range(4), rng.randint(1, 4))) for _ in range(arity)]
    tuples = {tuple(rng.randrange(4) for _ in range(arity)) for _ in range(rng.randint(1, 10))}
    return TableConstraint(xs, sorted(tuples))


def _random_all_different(rng, store):
    n = rng.randint(1, 6)
    return AllDifferent([store.new_var(rng.sample(range(5), rng.choice((1, 1, 2, 3)))) for _ in range(n)])


def _random_lex(strict):
    def build(rng, store):
        n = rng.randint(1, 4)
        xs = [store.new_var(rng.sample(range(4), rng.randint(1, 3))) for _ in range(n)]
        ys = [store.new_var(rng.sample(range(4), rng.randint(1, 3))) for _ in range(n)]
        return LexOrdering(xs, ys, strict=strict)

    return build


def _random_less_than(rng, store):
    x, y = (store.new_var(rng.sample(range(6), rng.randint(1, 4))) for _ in range(2))
    return LessThan(x, y)


def _random_sum(relation):
    def build(rng, store):
        n = rng.randint(1, 4)
        coeffs = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(n)]
        xs = [store.new_var(rng.sample(range(-2, 5), rng.randint(1, 4))) for _ in range(n)]
        return LinearSum(coeffs, xs, relation, rng.randint(-6, 6))

    return build


def _random_cardinality(rng, store):
    n = rng.randint(1, 4)
    values = sorted(rng.sample(range(4), rng.randint(1, 4)), reverse=True)
    xs = [store.new_var(rng.sample(values, rng.randint(1, len(values)))) for _ in range(n)]
    occ = [store.new_var(rng.sample(range(n + 1), rng.randint(1, n + 1))) for _ in values]
    return Cardinality(xs, values, occ)


def _random_host_capacity(rng, store):
    g, h = rng.randint(1, 4), rng.randint(1, 3)
    hs = [store.new_var(rng.sample(range(h), rng.randint(1, h))) for _ in range(g)]
    crew = [rng.randint(1, 3) for _ in range(g)]
    return HostCapacity(hs, crew, [rng.randint(0, 4) for _ in range(h)])


def _random_meet_once(rng, store):
    p, h = rng.randint(2, 3), rng.randint(1, 3)
    row_a, row_b = (
        [store.new_var(rng.sample(range(h), min(h, rng.choice((1, 1, 2))))) for _ in range(p)]
        for _ in range(2)
    )
    return MeetOnce(row_a, row_b)


# case -> (random instance builder, whether the propagator declares idempotent)
IDEMPOTENCE_CASES = {
    "table": (_random_table, True),
    "all-different": (_random_all_different, True),
    "lex": (_random_lex(False), True),
    "lex-strict": (_random_lex(True), True),
    "less-than": (_random_less_than, True),
    "sum-le": (_random_sum("<="), True),
    "sum-eq": (_random_sum("=="), False),
    "cardinality": (_random_cardinality, False),
    "host-capacity": (_random_host_capacity, False),
    "meet-once": (_random_meet_once, True),
}


@pytest.mark.parametrize("case", list(IDEMPOTENCE_CASES))
def test_idempotent_declaration_holds(case):
    """A propagator that declares ``idempotent`` is at its own fixpoint after
    one call: on random small instances, after ``post`` and an event drain, a
    second ``propagate`` raises no event and no Inconsistent.  For the two
    that do not declare it, the same check finds second calls that prune."""
    import random

    build, declared = IDEMPOTENCE_CASES[case]
    rng = random.Random(case)
    pruned = second = 0
    for _ in range(1500):
        store = Store()
        prop = build(rng, store)
        assert prop.idempotent is declared
        try:
            prop.post(store)
        except Inconsistent:
            continue
        pruned += bool(store.take_raw_events())
        if declared:
            prop.propagate(store)
            assert store.take_raw_events() == [], (case, prop.__dict__)
            continue
        try:
            prop.propagate(store)
            second += bool(store.take_raw_events())
        except Inconsistent:
            second += 1
    assert pruned > 100
    assert declared or second > 0


class AliasingStore(Store):
    """A store whose ``new_var`` hands back an earlier variable half the
    time, so the random builders above list variables more than once."""

    def __init__(self, rng):
        super().__init__()
        self.rng = rng

    def new_var(self, values):
        if self.num_vars() and self.rng.random() < 0.5:
            return self.rng.randrange(self.num_vars())
        return super().new_var(values)


@pytest.mark.parametrize(
    "case", ["table", "lex", "lex-strict", "less-than", "sum-le", "meet-once"]
)
def test_aliased_variables_reach_own_fixpoint(case):
    """With a variable listed twice one cut can enable another, so the
    engine trusts a declared ``idempotent`` only over distinct variables, and
    its fixpoint equals calling ``propagate`` until nothing changes."""
    import random

    build, _ = IDEMPOTENCE_CASES[case]
    rng = random.Random(case)
    resumed = 0
    for _ in range(1500):
        seeds = rng.random(), rng.random()
        m = Model()
        m.store = AliasingStore(random.Random(seeds[0]))
        m.post(build(random.Random(seeds[1]), m.store))
        got = fixpoint(m)
        store = AliasingStore(random.Random(seeds[0]))
        prop = build(random.Random(seeds[1]), store)
        done = 0  # calls that returned
        try:
            prop.post(store)
            done = 1
            while store.take_raw_events():
                prop.propagate(store)
                done += 1
            expected = [set(store.values(v)) for v in range(store.num_vars())]
        except Inconsistent:
            expected = None
        assert got == expected, (case, prop.__dict__)
        if done > 2 or (done and expected is None):  # a call after the first pruned
            # a Model takes one Solver, so the flag is read from a fresh one
            # over the same propagator
            fresh = Model()
            fresh.store = store
            fresh.post(prop)
            assert not Solver(fresh)._idempotent[0], (case, prop.__dict__)
            resumed += 1
    assert resumed > 0


class TestArithmeticMultiset:
    def test_unsupported_value_pruned(self):
        # base 2: X_0=3 gives lhs 12 > max rhs 10
        m = Model()
        xs = [m.new_var({0, 3}), m.new_var({2})]
        ys = [m.new_var({2, 3}), m.new_var({1})]
        m.post(ArithmeticMultiset(xs, ys, base=2))
        doms = fixpoint(m)
        assert project(doms, xs) == [{0}, {2}]

    def test_ground_satisfying_no_events(self):
        s = Store()
        xs = [s.new_var({1}), s.new_var({0})]
        ys = [s.new_var({1}), s.new_var({1})]
        p = ArithmeticMultiset(xs, ys, base=2)
        s.take_raw_events()
        p.post(s)
        assert s.take_raw_events() == []

    @pytest.mark.parametrize("strict", [False, True])
    def test_fixpoint_equals_direct_filter(self, strict):
        for xd, yd in oracle.random_instances(800, seed=80 + strict, max_len=4, max_values=4):
            direct = mset_direct(xd, yd, strict)
            arith = mset_via_arith(xd, yd, strict)
            assert direct == arith, (xd, yd)

    def test_base_validation(self):
        s = Store()
        xs = [s.new_var({0}) for _ in range(3)]
        ys = [s.new_var({0}) for _ in range(3)]
        with pytest.raises(ValueError):
            ArithmeticMultiset(xs, ys, base=2)  # base below vector length

    def test_unequal_lengths_need_base_above_both_lengths(self):
        # 3 * 3**0 == 3**1 would make {{0, 0, 0}} <m {{1}} look false
        s = Store()
        xs = [s.new_var({0}) for _ in range(3)]
        ys = [s.new_var({1})]
        with pytest.raises(ValueError):
            ArithmeticMultiset(xs, ys, base=3, strict=True)
        xd, yd = [{0}, {0}, {0}], [{1}]
        gac = oracle.brute_force_gac(oracle.mset_less, xd, yd)
        assert mset_via_arith(xd, yd, strict=True, base=4) == [set(d) for d in gac[0] + gac[1]]

    @pytest.mark.parametrize("strict", [False, True])
    def test_unequal_lengths_match_oracle(self, strict):
        checker = oracle.mset_less if strict else oracle.mset_leq
        shapes = 0
        for xd, yd in oracle.random_instances(
            600, seed=85 + strict, max_len=4, max_values=4, equal_lengths=False
        ):
            shapes += len(xd) != len(yd)
            gac = oracle.brute_force_gac(checker, xd, yd)
            exp = None if gac is None else [set(d) for d in gac[0] + gac[1]]
            got = mset_via_arith(xd, yd, strict, base=max(len(xd), len(yd)) + 1)
            assert got == exp, (xd, yd)
        assert shapes > 100

    def test_cuts_only_what_moves_a_bound(self):
        """Every ``set_max``/``set_min`` it makes moves a bound (or fails),
        over the acceptance suite's random corpus and both strictnesses."""
        cuts = 0
        for xd, yd in oracle.random_instances(
            10_000, seed=20260809, max_len=5, max_values=5, max_domain_size=3
        ):
            for strict in (False, True):
                m = Model()
                m.store = CutRecordingStore()
                xs = [m.new_var(d) for d in xd]
                ys = [m.new_var(d) for d in yd]
                m.post(ArithmeticMultiset(xs, ys, base=max(2, len(xs)), strict=strict))
                fixpoint(m)
                assert all(changed for *_, changed in m.store.cuts), (xd, yd, strict)
                cuts += len(m.store.cuts)
        assert cuts > 1000


class TestAllDifferent:
    def test_instantiation_triggers_removal(self):
        m = Model()
        a = m.new_var({1})
        b = m.new_var({1, 2})
        m.post(AllDifferent([a, b]))
        doms = fixpoint(m)
        assert doms[b] == {2}

    def test_duplicate_fixed_fails(self):
        m = Model()
        a = m.new_var({1})
        b = m.new_var({1})
        m.post(AllDifferent([a, b]))
        assert fixpoint(m) is None

    def test_repeated_variable_fails_once_fixed(self):
        # a variable listed twice equals itself, so the constraint cannot hold
        m = Model()
        x = m.new_var({1, 2})
        m.post(AllDifferent([x, x]))
        sol, stats = Solver(m).solve(Branching([x]))
        assert sol is None and stats.fails == 2

    def test_pigeonhole_not_detected_until_instantiation(self):
        # documented weaker-than-GAC behaviour: no pruning while all unfixed
        m = Model()
        vs = [m.new_var({1, 2}) for _ in range(3)]
        m.post(AllDifferent(vs))
        doms = fixpoint(m)
        assert doms is not None and all(doms[v] == {1, 2} for v in vs)

    def test_matches_reference_fixpoint(self):
        """Domains and failure agree with removing fixed values until nothing
        changes, on random small domains with many duplicates."""
        import random

        def reference(doms):
            doms = [set(d) for d in doms]
            changed = True
            while changed:
                changed = False
                for i, dom in enumerate(doms):
                    if len(dom) != 1:
                        continue
                    (val,) = dom
                    for j, other in enumerate(doms):
                        if j != i and val in other:
                            if len(other) == 1:
                                return None
                            other.discard(val)
                            changed = True
            return doms

        rng = random.Random(11)
        failures = 0
        for _ in range(600):
            doms = [
                set(rng.sample(range(5), rng.choice((1, 1, 2, 3)))) for _ in range(rng.randint(1, 6))
            ]
            store = Store()
            xs = [store.new_var(d) for d in doms]
            try:
                AllDifferent(xs).propagate(store)
                got = [set(store.values(x)) for x in xs]
            except Inconsistent:
                got = None
            assert got == reference(doms), doms
            failures += got is None
        assert 50 < failures < 550


class TestTable:
    def test_single_tuple_fixes_all(self):
        from msetcp.constraints import TableConstraint

        m = Model()
        vs = [m.new_var({1, 2}), m.new_var({1, 2}), m.new_var({1, 2, 3})]
        m.post(TableConstraint(vs, [(1, 2, 2)]))
        doms = fixpoint(m)
        assert [doms[v] for v in vs] == [{1}, {2}, {2}]

    def test_game_code_decodes_pair(self):
        from msetcp.constraints import TableConstraint

        n = 4
        tuples = [(h, a, (h - 1) * n + a) for h in range(1, n + 1) for a in range(h + 1, n + 1)]
        m = Model()
        h = m.new_var(range(1, n + 1))
        a = m.new_var(range(1, n + 1))
        g = m.new_var({t[2] for t in tuples})
        m.post(TableConstraint([h, a, g], tuples))
        m.store.assign(g, (2 - 1) * n + 3)
        doms = fixpoint(m)
        assert doms[h] == {2} and doms[a] == {3}

    def test_empty_table_fails(self):
        from msetcp.constraints import TableConstraint

        m = Model()
        v = m.new_var({1})
        m.post(TableConstraint([v], []))
        assert fixpoint(m) is None

    def test_gac_matches_tuple_projection(self):
        import random

        from msetcp.constraints import TableConstraint

        rng = random.Random(5)
        failures = 0
        for _ in range(400):
            arity = rng.randint(1, 4)
            doms = [set(rng.sample(range(4), rng.randint(1, 4))) for _ in range(arity)]
            tuples = {tuple(rng.randrange(4) for _ in range(arity)) for _ in range(rng.randint(0, 12))}
            store = Store()
            xs = [store.new_var(d) for d in doms]
            alive = [t for t in tuples if all(v in d for v, d in zip(t, doms))]
            try:
                TableConstraint(xs, sorted(tuples)).propagate(store)
            except Inconsistent:
                assert not alive, (doms, tuples)
                failures += 1
                continue
            assert [set(store.values(x)) for x in xs] == [
                {t[i] for t in alive} for i in range(arity)
            ], (doms, tuples)
        assert 20 < failures < 380

    def test_degenerate_tables(self):
        from msetcp.constraints import TableConstraint

        assert TableConstraint([], [()]).propagate(Store()) is Status.ENTAILED
        with pytest.raises(Inconsistent):
            TableConstraint([], []).propagate(Store())
        store = Store()
        v = store.new_var({1, 2})
        with pytest.raises(Inconsistent):
            TableConstraint([v], []).propagate(store)
        store = Store()
        xs = [store.new_var({1, 2, 3}), store.new_var({1, 2, 3})]
        TableConstraint(xs, [(1, 2), (3, 3), (1, 2), (3, 3)]).propagate(store)
        assert [store.values(x) for x in xs] == [(1, 3), (2, 3)]

    def test_retain_only_when_a_value_dies_and_entailed_on_one_tuple(self, monkeypatch):
        import random

        from msetcp.constraints import TableConstraint

        retains = []
        real_retain = Store.retain

        def spy(store, var, dom, kept):
            before = store.values(var)
            changed = real_retain(store, var, dom, kept)
            retains.append((before, store.values(var)))
            return changed

        monkeypatch.setattr(Store, "retain", spy)
        rng = random.Random(11)
        entailed = 0
        for _ in range(400):
            arity = rng.randint(1, 4)
            doms = [set(rng.sample(range(4), rng.randint(1, 4))) for _ in range(arity)]
            tuples = {tuple(rng.randrange(4) for _ in range(arity)) for _ in range(rng.randint(1, 12))}
            store = Store()
            xs = [store.new_var(d) for d in doms]
            alive = [t for t in tuples if all(v in d for v, d in zip(t, doms))]
            if not alive:
                continue
            del retains[:]
            status = TableConstraint(xs, sorted(tuples)).propagate(store)
            assert all(after != before for before, after in retains), (doms, tuples)
            narrowed = sum(len(store.values(x)) < len(d) for x, d in zip(xs, doms))
            assert len(retains) == narrowed, (doms, tuples)
            assert (status is Status.ENTAILED) == (len(alive) == 1), (doms, tuples)
            entailed += status is Status.ENTAILED
        assert 20 < entailed < 300

    def test_on_checks_the_arity(self):
        store = Store()
        xs = [store.new_var({1, 2}) for _ in range(3)]
        table = TableConstraint(xs[:2], [(1, 2)])
        with pytest.raises(ValueError):
            table.on(xs)
        shared = table.on(xs[1:])
        assert shared.xs == xs[1:] and table.xs == xs[:2]
        assert shared.masks is table.masks

    def test_shared_tables_propagate_like_independent_ones(self):
        """Tables made with ``on`` over overlapping scopes give the same
        domains and the same failures as tables compiled one by one, at the
        root and down random dives."""
        import random

        rng = random.Random(18)
        failed = 0
        for _ in range(150):
            arity = rng.randint(1, 3)
            n = rng.randint(arity, 6)
            doms = [rng.sample(range(4), rng.randint(1, 4)) for _ in range(n)]
            tuples = sorted(
                {tuple(rng.randrange(4) for _ in range(arity)) for _ in range(rng.randint(0, 10))}
            )
            scopes = [rng.sample(range(n), arity) for _ in range(rng.randint(1, 4))]
            solvers = []
            for shared in (True, False):
                m = Model()
                xs = [m.new_var(d) for d in doms]
                relation = TableConstraint([xs[i] for i in scopes[0]], tuples)
                for scope in scopes:
                    vs = [xs[i] for i in scope]
                    m.post(relation.on(vs) if shared else TableConstraint(vs, tuples))
                solvers.append(Solver(m))
            assert len({id(p.masks) for p in solvers[0].props}) == 1

            def step(act):
                """``act`` then the fixpoint on both sides: same outcome."""
                outcomes = []
                for solver in solvers:
                    try:
                        act(solver.store)
                        solver.fixpoint()
                        outcomes.append([solver.store.values(v) for v in range(n)])
                    except Inconsistent:
                        outcomes.append(None)
                assert outcomes[0] == outcomes[1], (doms, tuples, scopes)
                return outcomes[0]

            if step(lambda store: None) is None:
                failed += 1
                continue
            for _ in range(3):  # dives from the root, undone after each
                for solver in solvers:
                    solver.store.push()
                while True:
                    open_vars = [v for v in range(n) if len(solvers[0].store.values(v)) > 1]
                    if not open_vars:
                        break
                    v = rng.choice(open_vars)
                    val = rng.choice(solvers[0].store.values(v))
                    if step(lambda store: store.assign(v, val)) is None:
                        failed += 1
                        break
                for solver in solvers:
                    solver.store.pop()
        assert failed > 20


def linear_bounds_fixpoint(coeffs, doms, relation, const):
    """Reference: apply the textbook bounds rules of ``sum(c*x) <= k`` (and,
    for ``==``, of ``sum(c*x) >= k``) to every variable until nothing
    changes; None when a domain empties."""
    doms = [sorted(d) for d in doms]

    def least(c, d):
        return min(c * d[0], c * d[-1])

    def most(c, d):
        return max(c * d[0], c * d[-1])

    changed = True
    while changed:
        changed = False
        for i, c in enumerate(coeffs):
            others = [(cj, dj) for j, (cj, dj) in enumerate(zip(coeffs, doms)) if j != i]
            rest_least = sum(least(cj, dj) for cj, dj in others)
            rest_most = sum(most(cj, dj) for cj, dj in others)
            kept = [
                v
                for v in doms[i]
                if rest_least + c * v <= const
                and (relation == "<=" or rest_most + c * v >= const)
            ]
            if not kept:
                return None
            if len(kept) < len(doms[i]):
                doms[i] = kept
                changed = True
    return [set(d) for d in doms]


class TestLinearSum:
    def test_le_bounds(self):
        m = Model()
        a = m.new_var({0, 1, 2})
        b = m.new_var({0, 1, 2})
        m.post(LinearSum([2, 3], [a, b], "<=", 6))
        doms = fixpoint(m)
        assert doms[a] == {0, 1, 2} and doms[b] == {0, 1, 2}

    def test_le_prunes(self):
        m = Model()
        a = m.new_var({0, 1, 2, 3})
        b = m.new_var({1, 2})
        m.post(LinearSum([2, 3], [a, b], "<=", 6))
        doms = fixpoint(m)
        assert doms[a] == {0, 1}  # 2a <= 6 - 3*1

    def test_eq_forces_last_variable(self):
        m = Model()
        a = m.new_var({2})
        b = m.new_var({0, 1, 2, 3})
        m.post(sum_eq([a, b], 5))
        doms = fixpoint(m)
        assert doms[b] == {3}

    def test_negative_coefficients(self):
        m = Model()
        a = m.new_var(range(5))
        b = m.new_var(range(5))
        m.post(LinearSum([1, -1], [a, b], "<=", -2))  # a <= b - 2
        doms = fixpoint(m)
        assert doms[a] == {0, 1, 2} and doms[b] == {2, 3, 4}

    def test_infeasible(self):
        m = Model()
        a = m.new_var({3, 4})
        m.post(LinearSum([1], [a], "<=", 2))
        assert fixpoint(m) is None

    def test_never_prunes_a_supported_assignment(self):
        """Sound, as strong as the textbook bounds rules, and every bound
        cut it makes moves a bound."""
        import itertools
        import random

        rng = random.Random(41)
        for _ in range(300):
            n = rng.randint(1, 4)
            coeffs = [rng.randint(-3, 3) for _ in range(n)]
            xd = [sorted(rng.sample(range(-2, 4), rng.randint(1, 3))) for _ in range(n)]
            relation = rng.choice(["<=", "=="])
            const = rng.randint(-4, 8)
            case = (coeffs, xd, relation, const)
            m = Model()
            m.store = CutRecordingStore()
            xs = [m.new_var(d) for d in xd]
            m.post(LinearSum(coeffs, xs, relation, const))
            doms = fixpoint(m)
            assert all(changed for *_, changed in m.store.cuts), (case, m.store.cuts)
            solutions = [
                xv
                for xv in itertools.product(*xd)
                if (
                    sum(c * v for c, v in zip(coeffs, xv)) <= const
                    if relation == "<="
                    else sum(c * v for c, v in zip(coeffs, xv)) == const
                )
            ]
            expected = linear_bounds_fixpoint(coeffs, xd, relation, const)
            if doms is None:
                assert not solutions and expected is None, case
                continue
            assert doms == expected, case
            for xv in solutions:
                assert all(v in doms[x] for v, x in zip(xv, xs)), (case, xv)

    def test_kernel_matches_the_reference_loop(self):
        """The compiled kernel gives the loop's status or failure, domains and
        bound cuts, call for call, as domains shrink; sums of no term or of
        more than ``KERNEL_TERMS`` terms run the loop on both sides."""
        import random

        class Recording(AliasingStore, CutRecordingStore):
            pass

        def run(call, store):
            try:
                outcome = call(store)
            except Inconsistent:
                outcome = "fail"
            return outcome, store.domains(range(store.num_vars())), store.cuts

        rng = random.Random(2203)
        kernels = compared = 0
        for _ in range(600):
            n = rng.randint(0, KERNEL_TERMS + 3)
            coeffs = [rng.choice([0, 1, -1]) * rng.randint(1, 75) for _ in range(n)]
            doms = [rng.sample(range(-6, 10), rng.randint(1, 8)) for _ in range(n)]
            relation = rng.choice(["<=", "=="])
            seed = rng.random()
            stores = [Recording(random.Random(seed)) for _ in range(2)]
            sums = []
            for store in stores:
                xs = [store.new_var(d) for d in doms]
                lo = sum(min(c * store.min(x), c * store.max(x)) for c, x in zip(coeffs, xs))
                hi = sum(max(c * store.min(x), c * store.max(x)) for c, x in zip(coeffs, xs))
                k = random.Random(seed).randint(lo - 3, hi + 3)
                sums.append(LinearSum(coeffs, xs, relation, k))
            fast, ref = sums
            assert (fast._kernel is not None) == (0 < len(fast.xs) <= KERNEL_TERMS)
            kernels += fast._kernel is not None
            for _ in range(12):
                got = run(fast.propagate, stores[0])
                assert got == run(ref._loop, stores[1]), (coeffs, doms, relation, fast.constant)
                compared += 1
                if got[0] != Status.ACTIVE:
                    break
                open_vars = [x for x in fast.xs if not stores[0].is_fixed(x)]
                if not open_vars:
                    break
                x = rng.choice(open_vars)
                cut = rng.choice(stores[0].values(x)[1:])  # keeps some value
                raise_min = rng.random() < 0.5
                for store in stores:
                    store.set_min(x, cut) if raise_min else store.set_max(x, cut - 1)
        assert kernels > 300 and compared > 1500

    def test_one_compiled_factory_per_shape(self):
        """Sums of one sign pattern and relation share one compiled kernel
        body; their data is bound as values and never enters its text."""
        import linecache

        store = Store()
        v = [store.new_var(range(4)) for _ in range(6)]
        a = LinearSum([2, 3, -1], v[:3], "<=", 987_654)
        b = LinearSum([7, 1, -75], v[3:], "<=", 5)
        c = LinearSum([7, 1, -75], v[3:], "==", 5)
        d = LinearSum([7, -1, -75], v[3:], "<=", 5)
        code = a._kernel.__code__
        assert b._kernel.__code__ is code
        assert c._kernel.__code__ is not code and d._kernel.__code__ is not code
        assert code.co_filename == "<LinearSum kernel ++- <=>"
        text = "".join(linecache.getlines(code.co_filename))
        assert "kernel" in text and "987654" not in text and "75" not in text

    def test_entailed_once_the_worst_case_holds(self):
        store = Store()
        a = store.new_var(range(3))
        b = store.new_var(range(3))
        assert LinearSum([1, 2], [a, b], "<=", 6).propagate(store) is Status.ENTAILED
        assert LinearSum([1, 2], [a, b], "<=", 5).propagate(store) is Status.ACTIVE
        eq = LinearSum([1, 1], [a, b], "==", 2)
        assert eq.propagate(store) is Status.ACTIVE
        store.assign(a, 1)
        assert eq.propagate(store) is Status.ACTIVE  # cuts b to {1}
        assert store.values(b) == (1,)
        assert eq.propagate(store) is Status.ENTAILED  # lo == hi == 2

    def test_entailed_in_one_branch_prunes_after_the_pop(self):
        calls = []

        class Spy(LinearSum):
            def propagate(self, store):
                calls.append(1)
                return super().propagate(store)

        m = Model()
        x = m.new_var(range(4))
        y = m.new_var(range(4))
        m.post(Spy([1, 1], [x, y], "<=", 3))
        s = Solver(m)
        assert s.propagate_root()
        store = m.store
        store.push()
        store.set_max(x, 0)  # x + y <= 0 + 3 whatever y is
        s.fixpoint()
        n_calls = len(calls)
        store.set_max(y, 2)
        s.fixpoint()
        assert len(calls) == n_calls  # entailed in this branch
        store.pop()
        store.set_min(x, 2)
        s.fixpoint()
        assert len(calls) > n_calls  # active again after the pop
        assert store.values(y) == (0, 1)


class TestReifiedAndConditional:
    def test_reified_decided_by_domains(self):
        m = Model()
        x = m.new_var({1, 2})
        y = m.new_var({3, 4})
        b = m.new_var({0, 1})
        m.post(ReifiedEquals(x, y, b))
        doms = fixpoint(m)
        assert doms[b] == {0}

    def test_b_true_forces_equality(self):
        m = Model()
        x = m.new_var({1, 2, 3})
        y = m.new_var({2, 3, 4})
        b = m.new_var({1})
        m.post(ReifiedEquals(x, y, b))
        doms = fixpoint(m)
        assert doms[x] == {2, 3} and doms[y] == {2, 3}

    def test_b_false_with_fixed_side(self):
        m = Model()
        x = m.new_var({2})
        y = m.new_var({1, 2, 3})
        b = m.new_var({0})
        m.post(ReifiedEquals(x, y, b))
        doms = fixpoint(m)
        assert doms[y] == {1, 3}

    def test_conditional_inactive_until_guards_equal(self):
        m = Model()
        ra = m.new_var({0, 1})
        rb = m.new_var({0, 1})
        xs = [m.new_var({0, 3}), m.new_var({2})]
        ys = [m.new_var({2, 3}), m.new_var({1})]
        m.post(Conditional(ra, rb, StatelessMultisetOrdering(xs, ys)))
        doms = fixpoint(m)
        assert doms[xs[0]] == {0, 3}  # guards undecided: no filtering

    def test_conditional_activates(self):
        m = Model()
        ra = m.new_var({1})
        rb = m.new_var({1})
        xs = [m.new_var({0, 3}), m.new_var({2})]
        ys = [m.new_var({2, 3}), m.new_var({1})]
        m.post(Conditional(ra, rb, StatelessMultisetOrdering(xs, ys)))
        doms = fixpoint(m)
        assert doms[xs[0]] == {0}

    def test_conditional_entailed_on_unequal_guards(self):
        m = Model()
        ra = m.new_var({1})
        rb = m.new_var({2})
        xs = [m.new_var({3})]
        ys = [m.new_var({1})]
        m.post(Conditional(ra, rb, StatelessMultisetOrdering(xs, ys)))
        doms = fixpoint(m)
        assert doms is not None  # body would fail, but it never activates

    @pytest.mark.parametrize("guards", [({1}, {1}), ({0, 1}, {0, 1})])
    def test_conditional_attaches_its_body(self, guards):
        # posted alone this body rejects negative values; as a body it must
        # reject them too, whether or not the guards are decided
        m = Model()
        ra, rb = (m.new_var(g) for g in guards)
        xs = [m.new_var({-1, 0}), m.new_var({-1, 0})]
        ys = [m.new_var({-1}), m.new_var({-1, 0})]
        m.post(Conditional(ra, rb, ArithmeticMultiset(xs, ys, base=2)))
        with pytest.raises(ValueError, match="non-negative"):
            propagate_to_fixpoint(m)

    @pytest.mark.parametrize("strict", [False, True])
    def test_incremental_body_searches_like_stateless_body(self, strict):
        # the guards meet only inside the search, so the incremental body's
        # first propagate runs below the root it was attached at
        for xd, yd in oracle.random_instances(150, seed=95 + strict, max_len=3, max_values=3):
            trees = []
            for cls in (StatelessMultisetOrdering, MultisetOrdering):
                m = Model()
                ra, rb = m.new_var({0, 1}), m.new_var({0, 1})
                xs = [m.new_var(d) for d in xd]
                ys = [m.new_var(d) for d in yd]
                m.post(Conditional(ra, rb, cls(xs, ys, strict=strict)))
                sol, stats = Solver(m).solve(Branching([ra, rb] + xs + ys))
                trees.append((sol, stats.choice_points, stats.fails))
            assert trees[0] == trees[1], (xd, yd)


class TestPartyFilters:
    """``HostCapacity`` and ``MeetOnce`` against the encoding they replace in
    the party model: each host variable channelled by reified equalities to
    one 0/1 variable per host, capacities as ``<=`` sums over those, and per
    guest pair one reified-equality boolean per period with a ``<=`` 1 sum."""

    @staticmethod
    def _hosts(model, doms):
        return [[model.new_var(d) for d in row] for row in doms]

    def _filters(self, doms, crew, spare):
        m = Model()
        H = self._hosts(m, doms)
        for row in H:
            m.post(HostCapacity(row, crew, spare))
        for j1 in range(len(crew)):
            for j2 in range(j1 + 1, len(crew)):
                m.post(MeetOnce([row[j1] for row in H], [row[j2] for row in H]))
        return m, [x for row in H for x in row]

    def _channel(self, doms, crew, spare):
        m = Model()
        H = self._hosts(m, doms)
        g, h = len(crew), len(spare)
        host = [m.new_var({k}) for k in range(h)]
        for row in H:
            C = [[m.new_var({0, 1}) for _ in range(h)] for _ in range(g)]
            for j in range(g):
                for k in range(h):
                    m.post(ReifiedEquals(row[j], host[k], C[j][k]))
            for k in range(h):
                m.post(LinearSum(crew, [C[j][k] for j in range(g)], "<=", spare[k]))
        for j1 in range(g):
            for j2 in range(j1 + 1, g):
                meets = [m.new_var({0, 1}) for _ in H]
                for row, b in zip(H, meets):
                    m.post(ReifiedEquals(row[j1], row[j2], b))
                m.post(LinearSum([1] * len(H), meets, "<=", 1))
        return m, [x for row in H for x in row]

    def test_fixpoint_matches_channel_encoding(self):
        """Host domains and failure agree at the fixpoint on random tiny
        parties: up to 3 periods, 4 guests and 3 hosts, with many hosts
        already fixed so that loads and meetings occur."""
        import random

        rng = random.Random(31)
        outcomes = {"failed": 0, "pruned": 0, "unchanged": 0}
        for _ in range(700):
            p, g, h = rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 3)
            crew = [rng.randint(1, 3) for _ in range(g)]
            spare = [rng.randint(0, 5) for _ in range(h)]
            doms = [
                [set(rng.sample(range(h), min(h, rng.choice((1, 1, 2, 3))))) for _ in range(g)]
                for _ in range(p)
            ]
            new, xs = self._filters(doms, crew, spare)
            old, ys = self._channel(doms, crew, spare)
            got = project(fixpoint(new), xs)
            assert got == project(fixpoint(old), ys), (doms, crew, spare)
            flat = [d for row in doms for d in row]
            key = "failed" if got is None else "pruned" if got != flat else "unchanged"
            outcomes[key] += 1
        assert min(outcomes.values()) > 50, outcomes

    @pytest.mark.parametrize("dom", [{0, 3}, {-1, 0}])
    def test_host_outside_spare_rejected(self, dom):
        # three hosts: a host variable must range over 0..2
        m = Model()
        hs = [m.new_var(dom), m.new_var({0, 1})]
        m.post(HostCapacity(hs, [1, 1], [2, 2, 2]))
        with pytest.raises(ValueError, match="0..2"):
            propagate_to_fixpoint(m)

    def test_checks_are_ground_semantics(self):
        cap = HostCapacity([0, 1, 2], [2, 1, 1], [3, 1])
        assert cap.check([0, 0, 1])
        assert not cap.check([0, 0, 0])
        assert not cap.check([1, 1, 0])
        meet = MeetOnce([0, 1, 2], [3, 4, 5])
        assert meet.check([0, 1, 2, 0, 2, 1])
        assert not meet.check([0, 1, 2, 0, 1, 0])


class TestLessThan:
    def test_prunes_both_sides(self):
        m = Model()
        x = m.new_var(range(5))
        y = m.new_var(range(5))
        m.post(LessThan(x, y))
        doms = fixpoint(m)
        assert doms[x] == {0, 1, 2, 3} and doms[y] == {1, 2, 3, 4}


class TestDecompositionStrength:
    def test_witness_mset_beats_both_decompositions(self):
        xd, yd = [{0, 3}, {2}], [{2, 3}, {1}]
        direct = mset_direct(xd, yd)
        via_gcc = mset_via_gcc(xd, yd)
        via_sort = mset_via_sort(xd, yd)
        assert via_gcc == [set(d) for d in xd + yd]  # decompositions prune nothing
        assert via_sort == [set(d) for d in xd + yd]
        rel = oracle.classify_fixpoints(direct, via_gcc)
        assert rel.relation is oracle.Relation.LEFT_STRICTLY_STRONGER
        assert rel.witness == (0, 3)
        rel = oracle.classify_fixpoints(direct, via_sort)
        assert rel.relation is oracle.Relation.LEFT_STRICTLY_STRONGER

    def test_witness_sort_beats_gcc(self):
        xd, yd = [{1, 2}], [{0, 1, 2}]
        via_gcc = mset_via_gcc(xd, yd)
        via_sort = mset_via_sort(xd, yd)
        assert via_gcc == [set(d) for d in xd + yd]
        rel = oracle.classify_fixpoints(via_sort, via_gcc)
        assert rel.relation is oracle.Relation.LEFT_STRICTLY_STRONGER
        assert rel.witness == (1, 0)  # value 0 leaves D(Y_0) only under sort

    def test_witnesses_hold_in_strict_mode_too(self):
        xd, yd = [{0, 3}, {2}], [{2, 3}, {1}]
        direct = mset_direct(xd, yd, strict=True)
        for decomposed in (mset_via_gcc(xd, yd, True), mset_via_sort(xd, yd, True)):
            rel = oracle.classify_fixpoints(direct, decomposed)
            assert rel.relation is oracle.Relation.LEFT_STRICTLY_STRONGER
        xd, yd = [{1, 2}], [{0, 1, 2}]
        rel = oracle.classify_fixpoints(mset_via_sort(xd, yd, True), mset_via_gcc(xd, yd, True))
        assert rel.relation is oracle.Relation.LEFT_STRICTLY_STRONGER

    @pytest.mark.parametrize("strict", [False, True])
    def test_decompositions_never_beat_direct_filter(self, strict):
        """Both decompositions are sound relaxations: pointwise supersets of
        the direct GAC fixpoint on every tested instance."""
        for xd, yd in oracle.random_instances(400, seed=90 + strict, max_len=4, max_values=4):
            direct = mset_direct(xd, yd, strict)
            for decomposed in (mset_via_gcc(xd, yd, strict), mset_via_sort(xd, yd, strict)):
                if decomposed is None:
                    assert direct is None, (xd, yd)
                elif direct is not None:
                    assert all(a <= b for a, b in zip(direct, decomposed)), (xd, yd)

    def test_gcc_lex_lookahead_counterexample_to_blanket_dominance(self):
        """With genuinely GAC lex filtering on the count vectors, the counting
        decomposition can prune a value the sorted decomposition cannot: the
        count vectors expose that the suffix cannot equalize, which forces a
        strict step at the first open index.  Pinned so the behaviour is
        explicit rather than accidental."""
        xd, yd = [{1}, {0, 1, 2}], [{0}, {0, 2}]
        via_gcc = mset_via_gcc(xd, yd, strict=False)
        via_sort = mset_via_sort(xd, yd, strict=False)
        assert via_gcc[1] == {0, 1}
        assert via_sort[1] == {0, 1, 2}
        # both remain supersets of the direct fixpoint
        direct = mset_direct(xd, yd, strict=False)
        assert all(a <= b for a, b in zip(direct, via_gcc))
        assert all(a <= b for a, b in zip(direct, via_sort))
