"""The multiset ordering filters: goldens, flags, incrementality, oracle parity."""

import random

import pytest

from msetcp import oracle
from msetcp.mset import (
    NO_INDEX,
    MultisetOrdering,
    SortedMultisetOrdering,
    StatelessMultisetOrdering,
)
from msetcp.store import Inconsistent, Store


def make(xdoms, ydoms):
    s = Store()
    xs = [s.new_var(d) for d in xdoms]
    ys = [s.new_var(d) for d in ydoms]
    return s, xs, ys


def fixpoint_domains(xdoms, ydoms, *, strict=False, variant="occ", entailment=False):
    """Post, propagate once, and return resulting domains (None on failure)."""
    s, xs, ys = make(xdoms, ydoms)
    if variant == "occ":
        p = MultisetOrdering(xs, ys, strict=strict, entailment=entailment)
    else:
        p = SortedMultisetOrdering(xs, ys, strict=strict)
    try:
        p.post(s)
    except Inconsistent:
        return None, p, s
    return [set(s.values(v)) for v in xs + ys], p, s


WORKED_X = [{5}, {4, 5}, {3, 4, 5}, {2, 4}, {1}, {1}]
WORKED_Y = [{4, 5}, {4}, {1, 2, 3, 4}, {2, 3}, {1}, {0}]


class TestWorkedExample:
    def test_counts_after_init(self):
        _, p, _ = fixpoint_domains(WORKED_X, WORKED_Y)
        # counts indexed by value 0..5
        assert p.xmin_counts == [0, 2, 1, 1, 1, 1]
        assert p.ymax_counts == [1, 1, 0, 1, 2, 1]

    def test_flags(self):
        _, p, _ = fixpoint_domains(WORKED_X, WORKED_Y)
        fl = p.last_flags
        assert (fl.first_lt, fl.first_gt) == (4, 2)
        assert fl.flat_between and fl.tail_wrong

    def test_gac_domains(self):
        got, _, _ = fixpoint_domains(WORKED_X, WORKED_Y)
        assert got == [
            {5}, {4}, {3, 4}, {2}, {1}, {1},
            {5}, {4}, {3, 4}, {2, 3}, {1}, {0},
        ]

    def test_sorted_variant_identical(self):
        occ, _, _ = fixpoint_domains(WORKED_X, WORKED_Y)
        srt, _, _ = fixpoint_domains(WORKED_X, WORKED_Y, variant="sorted")
        assert occ == srt


class TestInitAndFailure:
    def test_equal_singletons_ok(self):
        got, _, _ = fixpoint_domains([{2}, {1}], [{2}, {1}])
        assert got is not None

    def test_disentailed_pair_fails(self):
        got, _, _ = fixpoint_domains([{3}, {2}], [{3}, {1}])
        assert got is None

    def test_flags_on_equal_counts(self):
        _, p, _ = fixpoint_domains([{2}, {1}], [{2}, {1}])
        fl = p.last_flags
        assert fl.first_lt is NO_INDEX and fl.first_gt is NO_INDEX
        assert not fl.flat_between and not fl.tail_wrong

    def test_equal_counts_fail_in_strict_mode(self):
        got, _, _ = fixpoint_domains([{2}, {1}], [{2}, {1}], strict=True)
        assert got is None

    def test_flags_method_detects_greater(self):
        s, xs, ys = make([{2}, {0}], [{1}, {1}])
        p = MultisetOrdering(xs, ys)
        with pytest.raises(Inconsistent):
            p.post(s)


class TestPruningExamples:
    def test_value_without_support_pruned_to_fixpoint(self):
        got, _, _ = fixpoint_domains([{0, 3}, {2}], [{2, 3}, {1}])
        assert got == [{0}, {2}, {2, 3}, {1}]

    def test_ground_satisfying_pair_emits_no_events(self):
        s, xs, ys = make([{1}, {0}], [{1}, {1}])
        p = MultisetOrdering(xs, ys)
        s.discard_events()
        p.post(s)
        assert s.take_raw_events() == []

    def test_strict_singleton(self):
        got, _, _ = fixpoint_domains([{1, 2}], [{1, 2}], strict=True)
        assert got == [{1}, {2}]

    def test_strict_matches_weak_plus_strictness_on_worked_example(self):
        weak, _, _ = fixpoint_domains(WORKED_X, WORKED_Y)
        strict, _, _ = fixpoint_domains(WORKED_X, WORKED_Y, strict=True)
        exp = oracle.brute_force_gac(oracle.mset_less, WORKED_X, WORKED_Y)
        assert strict == [set(d) for d in exp[0] + exp[1]]
        assert all(a <= b for a, b in zip(strict, weak))


class TestIncrementalCountUpdates:
    def test_min_change_adjusts_two_cells(self):
        s, xs, ys = make(WORKED_X, WORKED_Y)
        p = MultisetOrdering(xs, ys)
        p.post(s)
        before = list(p.xmin_counts)
        # X_2 is {3,4} after propagation; lift its min 3 -> 4
        s.set_min(xs[2], 4)
        after = p.xmin_counts
        assert after[4] == before[4] + 1 and after[3] == before[3] - 1
        assert sum(after) == sum(before)
        assert p.rebuilt_counts(s)[0] == after

    def test_max_change_on_y(self):
        s, xs, ys = make(WORKED_X, WORKED_Y)
        p = MultisetOrdering(xs, ys)
        p.post(s)
        before = list(p.ymax_counts)
        s.set_max(ys[2], 3)  # Y_2 max 4 -> 3
        after = p.ymax_counts
        assert after[3] == before[3] + 1 and after[4] == before[4] - 1
        assert p.rebuilt_counts(s)[1] == after

    def test_noop_change_preserves_state(self):
        s, xs, ys = make(WORKED_X, WORKED_Y)
        p = MultisetOrdering(xs, ys)
        p.post(s)
        before = list(p.xmin_counts)
        s.set_min(xs[2], 3)  # min already 3
        assert p.xmin_counts == before


class TestSortedVariant:
    def test_init_builds_sorted_views(self):
        xd = [{v} for v in (2, 2, 5, 2, 4, 3, 1, 2)]
        yd = [{v} for v in (1, 5, 4, 4, 3, 1, 4, 1)]
        s, xs, ys = make(xd, yd)
        p = SortedMultisetOrdering(xs, ys)
        p.post(s)
        assert p.xmin_sorted == [5, 4, 3, 2, 2, 2, 2, 1]
        assert p.ymax_sorted == [5, 4, 4, 4, 3, 1, 1, 1]

    def test_flags_and_counts_on_large_domain_example(self):
        xd = [{v} for v in (5, 4, 3, 2, 2, 2, 2, 1)]
        yd = [{v} for v in (5, 4, 4, 4, 3, 1, 1, 1)]
        s, xs, ys = make(xd, yd)
        p = SortedMultisetOrdering(xs, ys)
        p.post(s)
        fl, x_at_lt, y_at_lt, x_at_gt, y_at_gt = p.flags()
        assert (fl.first_lt, fl.first_gt) == (4, 2)
        assert fl.flat_between and not fl.tail_wrong
        assert (x_at_lt, y_at_lt, x_at_gt, y_at_gt) == (1, 3, 4, 0)

    def test_equal_views_return_early(self):
        s, xs, ys = make([{1}, {2}], [{2}, {1}])
        p = SortedMultisetOrdering(xs, ys)
        p.post(s)
        fl, *counts = p.flags()
        assert fl.first_lt is NO_INDEX and counts == [0, 0, 0, 0]

    def test_lex_greater_views_fail(self):
        s, xs, ys = make([{3}, {1}], [{2}, {2}])
        p = SortedMultisetOrdering(xs, ys)
        with pytest.raises(Inconsistent):
            p.post(s)

    def test_incremental_resort_on_min_change(self):
        xd = [{2, 4}, {2}, {5}, {2, 3}, {4}, {2, 6}, {2}, {1}]
        yd = [{6, 7}] * 8
        s, xs, ys = make(xd, yd)
        p = SortedMultisetOrdering(xs, ys)
        p.post(s)
        assert p.xmin_sorted == [5, 4, 2, 2, 2, 2, 2, 1]
        s.set_min(xs[0], 4)
        assert p.xmin_sorted == [5, 4, 4, 2, 2, 2, 2, 1]
        assert p.rebuilt_sorted(s)[0] == p.xmin_sorted

    def test_incremental_resort_on_max_change(self):
        yd = [{5}, {0, 4}, {0, 4}, {0, 4}, {3}, {0, 1}, {1}, {0, 1}]
        xd = [{0}] * 8
        s, xs, ys = make(xd, yd)
        p = SortedMultisetOrdering(xs, ys)
        p.post(s)
        assert p.ymax_sorted == [5, 4, 4, 4, 3, 1, 1, 1]
        s.set_max(ys[1], 0)
        assert p.ymax_sorted == [5, 4, 4, 3, 1, 1, 1, 0]
        assert p.rebuilt_sorted(s)[1] == p.ymax_sorted

    def test_unequal_lengths_rejected(self):
        s, xs, ys = make([{1}, {1}], [{1}])
        with pytest.raises(ValueError):
            SortedMultisetOrdering(xs, ys)


class TestEntailment:
    def test_entailed_after_pruning(self):
        s, xs, ys = make([{1, 2}, {1, 2, 4}], [{2, 3}, {2, 3}])
        p = MultisetOrdering(xs, ys, entailment=True)
        p.post(s)
        assert s.values(xs[1]) == (1, 2)
        assert p.entailed

    def test_entailed_immediately(self):
        _, p, _ = fixpoint_domains([{1, 2}, {1, 2}], [{2, 3}, {2, 3}], entailment=True)
        assert p.entailed

    def test_point_in_time_check_false_before_pruning(self):
        s, xs, ys = make([{0, 3}, {2}], [{2, 3}, {1}])
        assert not oracle.brute_force_entailed(
            oracle.mset_leq, [s.values(v) for v in xs], [s.values(v) for v in ys]
        )
        # after GAC pruning (X_0 loses 3) every completion satisfies, so the
        # maintained flag comes up once propagation has run
        p = MultisetOrdering(xs, ys, entailment=True)
        p.post(s)
        assert p.entailed
        assert oracle.brute_force_entailed(
            oracle.mset_leq, [s.values(v) for v in xs], [s.values(v) for v in ys]
        )

    def test_not_entailed(self):
        _, p, _ = fixpoint_domains([{0, 3}], [{1, 3}], entailment=True)
        assert not p.entailed

    def test_ground_satisfying_pair_entailed(self):
        _, p, _ = fixpoint_domains([{1}, {0}], [{1}, {1}], entailment=True)
        assert p.entailed

    def test_entailed_flag_restored_on_backtrack(self):
        s, xs, ys = make([{0, 3}], [{1, 3}])
        p = MultisetOrdering(xs, ys, entailment=True)
        p.post(s)
        assert not p.entailed
        s.push()
        s.set_max(xs[0], 0)
        p.propagate(s)
        assert p.entailed
        s.pop()
        assert not p.entailed

    def test_entailment_never_changes_pruning(self):
        for xd, yd in oracle.random_instances(400, seed=5):
            plain, _, _ = fixpoint_domains(xd, yd)
            tracked, _, _ = fixpoint_domains(xd, yd, entailment=True)
            assert plain == tracked


def stateless_domains(xdoms, ydoms, strict=False):
    """One call of the stateless body; resulting domains, None on failure."""
    s, xs, ys = make(xdoms, ydoms)
    try:
        StatelessMultisetOrdering(xs, ys, strict=strict).propagate(s)
    except Inconsistent:
        return None
    return [set(s.values(v)) for v in xs + ys]


class TestStatelessPass:
    def test_matches_incremental_filter(self):
        for xd, yd in oracle.random_instances(300, seed=6):
            ref, _, _ = fixpoint_domains(xd, yd)
            assert stateless_domains(xd, yd) == ref

    @pytest.mark.parametrize("strict", [False, True])
    def test_matches_oracle_on_unequal_lengths_and_sparse_values(self, strict):
        """Values v -> 7v - 10 are negative and non-contiguous, so the rank
        map renames every one of them."""
        checker = oracle.mset_less if strict else oracle.mset_leq
        shapes = 0
        for xd, yd in oracle.random_instances(500, seed=100 + strict, equal_lengths=False):
            xd = [{7 * v - 10 for v in d} for d in xd]
            yd = [{7 * v - 10 for v in d} for d in yd]
            shapes += len(xd) != len(yd)
            gac = oracle.brute_force_gac(checker, xd, yd)
            exp = None if gac is None else [set(d) for d in gac[0] + gac[1]]
            assert stateless_domains(xd, yd, strict) == exp, (xd, yd)
        assert shapes > 100  # the corpus genuinely exercises unequal lengths


class TestDifferentialProperties:
    CORPUS = 1500

    def _oracle_domains(self, checker, xd, yd):
        gac = oracle.brute_force_gac(checker, xd, yd)
        return None if gac is None else [set(d) for d in gac[0] + gac[1]]

    @pytest.mark.parametrize("strict", [False, True])
    def test_occ_fixpoint_equals_oracle(self, strict):
        checker = oracle.mset_less if strict else oracle.mset_leq
        for xd, yd in oracle.random_instances(self.CORPUS, seed=10 + strict):
            exp = self._oracle_domains(checker, xd, yd)
            got, _, _ = fixpoint_domains(xd, yd, strict=strict)
            assert got == exp, (xd, yd)

    @pytest.mark.parametrize("strict", [False, True])
    def test_sorted_fixpoint_equals_oracle(self, strict):
        checker = oracle.mset_less if strict else oracle.mset_leq
        for xd, yd in oracle.random_instances(self.CORPUS, seed=20 + strict):
            exp = self._oracle_domains(checker, xd, yd)
            got, _, _ = fixpoint_domains(xd, yd, strict=strict, variant="sorted")
            assert got == exp, (xd, yd)

    def test_unequal_lengths_match_oracle(self):
        shapes = 0
        for xd, yd in oracle.random_instances(600, seed=30, equal_lengths=False):
            if len(xd) != len(yd):
                shapes += 1
            for strict, checker in ((False, oracle.mset_leq), (True, oracle.mset_less)):
                exp = self._oracle_domains(checker, xd, yd)
                got, _, _ = fixpoint_domains(xd, yd, strict=strict)
                assert got == exp, (xd, yd, strict)
        assert shapes > 100  # the corpus genuinely exercises unequal lengths

    def test_fixed_unequal_length_shapes(self):
        for n_x, n_y in ((2, 3), (3, 2)):
            rng = random.Random(1000 * n_x + n_y)
            for _ in range(300):
                spec = oracle.InstanceSpec(n_x, n_y, 4, 3, seed=rng.getrandbits(32))
                xd, yd = spec.generate()
                exp = self._oracle_domains(oracle.mset_leq, xd, yd)
                got, _, _ = fixpoint_domains(xd, yd)
                assert got == exp

    def test_idempotent(self):
        for xd, yd in oracle.random_instances(400, seed=40):
            s, xs, ys = make(xd, yd)
            p = MultisetOrdering(xs, ys)
            try:
                p.post(s)
            except Inconsistent:
                continue
            s.discard_events()
            p.propagate(s)
            assert s.take_raw_events() == []

    def test_monotone_and_one_sided(self):
        """Only max(X_i) and min(Y_i) move; domains only shrink; no wipe-out."""
        for xd, yd in oracle.random_instances(400, seed=50):
            s, xs, ys = make(xd, yd)
            p = MultisetOrdering(xs, ys)
            try:
                p.post(s)
            except Inconsistent:
                continue
            for v, orig in zip(xs + ys, list(xd) + list(yd)):
                assert set(s.values(v)) <= set(orig)
                assert s.size(v) >= 1
            for v, orig in zip(xs, xd):
                assert s.min(v) == min(orig)
            for v, orig in zip(ys, yd):
                assert s.max(v) == max(orig)

    def test_failure_iff_bounds_compare_greater(self):
        from msetcp.order import Ordering, mset_cmp

        for xd, yd in oracle.random_instances(600, seed=60):
            floor_x = [min(d) for d in xd]
            ceil_y = [max(d) for d in yd]
            got, _, _ = fixpoint_domains(xd, yd)
            assert (got is None) == (mset_cmp(floor_x, ceil_y) is Ordering.GREATER)
            got_s, _, _ = fixpoint_domains(xd, yd, strict=True)
            assert (got_s is None) == (
                mset_cmp(floor_x, ceil_y) in (Ordering.GREATER, Ordering.EQUAL)
            )


class TestIncrementalEqualsBatch:
    def test_random_shrink_and_backtrack_sequences(self):
        rng = random.Random(123)
        for trial in range(300):
            xd, yd = next(
                iter(oracle.random_instances(1, seed=trial, max_len=5, max_values=6, max_domain_size=4))
            )
            s, xs, ys = make(xd, yd)
            occ = MultisetOrdering(xs, ys, entailment=True)
            srt = SortedMultisetOrdering(xs, ys) if len(xd) == len(yd) else None
            try:
                occ.post(s)
                if srt:
                    srt.post(s)
            except Inconsistent:
                continue
            depth = 0
            for _ in range(25):
                op = rng.randrange(5)
                try:
                    if op == 0 and depth < 4:
                        s.push()
                        depth += 1
                    elif op == 1 and depth > 0:
                        s.pop()
                        depth -= 1
                    else:
                        v = rng.choice(xs + ys)
                        vals = s.values(v)
                        if op == 2:
                            s.set_max(v, rng.choice(vals))
                        elif op == 3:
                            s.set_min(v, rng.choice(vals))
                        elif len(vals) > 1:
                            s.remove(v, rng.choice(vals))
                except Inconsistent:
                    continue
                rebuilt = occ.rebuilt_counts(s)
                assert list(rebuilt[0]) == occ.xmin_counts
                assert list(rebuilt[1]) == occ.ymax_counts
                assert list(rebuilt[2]) == occ.xmax_counts
                assert list(rebuilt[3]) == occ.ymin_counts
                if srt:
                    assert srt.rebuilt_sorted(s) == (srt.xmin_sorted, srt.ymax_sorted)


class TestValidation:
    def test_shared_variables_rejected(self):
        s = Store()
        v = s.new_var([1])
        w = s.new_var([1])
        u = s.new_var([1])
        for cls in (MultisetOrdering, SortedMultisetOrdering, StatelessMultisetOrdering):
            with pytest.raises(ValueError):
                cls([v], [v])
            with pytest.raises(ValueError):
                cls([v, v], [w, u])
