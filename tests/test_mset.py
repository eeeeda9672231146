"""The multiset ordering filters: goldens, flags, incrementality, oracle parity."""

import random
from bisect import bisect_left, insort_left
from collections import Counter
from itertools import chain

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from msetcp import mset, oracle
from msetcp.mset import (
    BLOCK_SIZE,
    NO_INDEX,
    Flags,
    MaxIndex,
    MultisetOrdering,
    SortedBlocks,
    SortedMultisetOrdering,
    StatelessMultisetOrdering,
    _prune,
    _runs,
    _summary,
)
from msetcp.store import Inconsistent, Store


def complete_summary(runs, strict):
    """What :func:`_summary` returns with every flag computed, read from the
    whole run list: the first value whose counts differ is ``first_lt``, the
    first value below it with more on the X side is ``first_gt``, and
    ``tail_wrong`` compares the counts below ``first_gt``."""
    runs = list(runs)
    diff = [i for i, (_, cx, cy) in enumerate(runs) if cx != cy]
    if not diff:
        if strict:
            raise Inconsistent("equal counts")
        return Flags(NO_INDEX, NO_INDEX, False, False), 0, 0, 0, 0
    i = diff[0]
    lt, x_at_lt, y_at_lt = runs[i]
    if x_at_lt > y_at_lt:
        raise Inconsistent("X counts ahead")
    ahead = [j for j in diff[1:] if runs[j][1] > runs[j][2]]
    if not ahead:
        return Flags(lt, NO_INDEX, False, False), x_at_lt, y_at_lt, 0, 0
    j = ahead[0]
    gt, x_at_gt, y_at_gt = runs[j]
    flat = all(runs[k][1] == runs[k][2] for k in range(i + 1, j))
    below = [(cx, cy) for _, cx, cy in runs[j + 1 :] if cx != cy]
    tail_wrong = below[0][0] > below[0][1] if below else strict
    return Flags(lt, gt, flat, tail_wrong), x_at_lt, y_at_lt, x_at_gt, y_at_gt


def counted_runs(xvals, yvals):
    """What :func:`_runs` yields for two inputs in any order: per value held
    on either side, largest first, the count on each side."""
    cx, cy = Counter(xvals), Counter(yvals)
    return [(v, cx[v], cy[v]) for v in sorted(cx.keys() | cy.keys(), reverse=True)]


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
        s.take_raw_events()
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
        fl, x_at_lt, y_at_lt, x_at_gt, y_at_gt = complete_summary(
            _runs(reversed(p.xmin), p.ymax_index.maxima()), p.strict
        )
        assert (fl.first_lt, fl.first_gt) == (4, 2)
        assert fl.flat_between and not fl.tail_wrong
        assert (x_at_lt, y_at_lt, x_at_gt, y_at_gt) == (1, 3, 4, 0)

    def test_equal_views_return_early(self):
        s, xs, ys = make([{1}, {2}], [{2}, {1}])
        p = SortedMultisetOrdering(xs, ys)
        p.post(s)
        fl, *counts = complete_summary(_runs(reversed(p.xmin), p.ymax_index.maxima()), p.strict)
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

    @pytest.mark.parametrize(
        "cls",
        [StatelessMultisetOrdering, MultisetOrdering, SortedMultisetOrdering],
        ids=lambda cls: cls.__name__,
    )
    @pytest.mark.parametrize("strict", [False, True])
    def test_matches_oracle_on_unequal_lengths_and_sparse_values(self, strict, cls):
        """Values v -> 7v - 10 are negative and leave gaps, so a cut one below
        ``first_lt`` or one above ``first_gt`` lands between domain values.
        ``post`` runs the stateless body once and sets up the other two."""
        checker = oracle.mset_less if strict else oracle.mset_leq
        shapes = 0
        for xd, yd in oracle.random_instances(500, seed=100 + strict, equal_lengths=False):
            xd = [{7 * v - 10 for v in d} for d in xd]
            yd = [{7 * v - 10 for v in d} for d in yd]
            shapes += len(xd) != len(yd)
            gac = oracle.brute_force_gac(checker, xd, yd)
            exp = None if gac is None else [set(d) for d in gac[0] + gac[1]]
            s, xs, ys = make(xd, yd)
            try:
                cls(xs, ys, strict=strict).post(s)
                got = [set(s.values(v)) for v in xs + ys]
            except Inconsistent:
                got = None
            assert got == exp, (xd, yd)
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
            s.take_raw_events()
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
                assert len(s.values(v)) >= 1
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
        small = (
            next(iter(oracle.random_instances(1, seed=trial, max_len=5, max_values=6, max_domain_size=4)))
            for trial in range(300)
        )
        for xd, yd in chain(small, [_multi_block_instance()]):
            s, xs, ys = make(xd, yd)
            occ = MultisetOrdering(xs, ys, entailment=True)
            srt = SortedMultisetOrdering(xs, ys)
            try:
                occ.post(s)
                srt.post(s)
            except Inconsistent:
                continue
            depth = 0
            for _ in range(25 if len(xd) <= BLOCK_SIZE else 300):
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
                assert srt.rebuilt_sorted(s) == (srt.xmin_sorted, srt.ymax_sorted)
                x_keys = MaxIndex(xs, map(s.values, xs)).keys
                y_keys = MaxIndex(ys, map(s.values, ys)).keys
                for p in (occ, srt):
                    assert p.xmax_index.keys == x_keys
                    assert p.ymax_index.keys == y_keys

    def test_index_splits_negative_maxima(self):
        s = Store()
        vs = [s.new_var(d) for d in ([-3, -1], [-7], [0, 2], [-1])]
        index = MaxIndex(vs, map(s.values, vs))
        assert index.reaching(NO_INDEX) == [vs[1], vs[0], vs[3], vs[2]]
        assert index.reaching(-1) == [vs[0], vs[3], vs[2]]
        assert index.reaching(0) == [vs[2]]
        assert index.reaching(3) == []


class TestSortedBlocks:
    """The blocked sorted vector behind the dedicated filters' sorted vector
    and max indexes, against one flat sorted list."""

    @staticmethod
    def _check_shape(c):
        blocks = c.blocks
        assert blocks and all(len(b) <= BLOCK_SIZE for b in blocks)
        assert all(blocks) or blocks == [[]]  # only an empty vector has an empty block
        assert all(b == sorted(b) for b in blocks)
        assert c.maxes == [b[-1] for b in blocks[:-1]]
        assert c.single is (blocks[0] if len(blocks) == 1 else None)
        flat = list(c)
        assert flat == sorted(flat)

    def test_move_of_absent_value_raises_and_changes_nothing(self):
        spread = list(range(-BLOCK_SIZE, 2 * BLOCK_SIZE, 2))  # several blocks, even values
        cases = [
            ([], [0]),
            ([4], [3, 5]),
            ([1, 3, 3, 5], [0, 2, 4, 6]),
            (spread, [-BLOCK_SIZE - 1, 1, BLOCK_SIZE + 1, 2 * BLOCK_SIZE + 1]),
        ]
        for values, absent in cases:
            c = SortedBlocks(values)
            for old in absent:
                with pytest.raises(ValueError, match="not in the vector"):
                    c.move(old, values[0] if values else 0)
                assert list(c) == sorted(values)
                self._check_shape(c)
        # the max index, as the bound watchers call it, in one block and in several
        for n in (3, 3 * BLOCK_SIZE):
            s = Store()
            vs = [s.new_var([-1, 2 * i % 7]) for i in range(n)]
            index = MaxIndex(vs, map(s.values, vs))
            keys = index.keys
            for old_max in (s.max(vs[1]) - 1, 7):  # below its max; above every max
                with pytest.raises(ValueError, match="not in the vector"):
                    index.moved(vs[1], old_max, 0)
                assert index.keys == keys

    @pytest.mark.parametrize(
        "n, low, high",
        [
            (3 * BLOCK_SIZE + 7, -40, 40),  # many repeats
            (3 * BLOCK_SIZE + 7, -(10**6), 10**6),  # few repeats
            (BLOCK_SIZE, -5, 5),  # one full block
            (1, -3, 3),
        ],
    )
    def test_moves_match_a_flat_sorted_list(self, n, low, high):
        rng = random.Random(f"{n}:{low}")
        flat = sorted(rng.randint(low, high) for _ in range(n))
        c = SortedBlocks(flat)
        one_block = n <= BLOCK_SIZE
        splits = emptied = 0

        def move(old, new):
            nonlocal splits, emptied
            before = len(c.blocks)
            c.move(old, new)
            flat.remove(old)
            flat.insert(bisect_left(flat, new), new)
            splits += len(c.blocks) > before
            emptied += len(c.blocks) < before
            assert list(c) == flat

        # lift the smallest values to the top: the low blocks empty, the top one splits
        for _ in range(min(n, 2 * BLOCK_SIZE)):
            move(flat[0], flat[-1] + rng.randint(0, 1))
        for step in range(3000):
            old = rng.choice(flat)
            new = old + rng.randint(-3, 3) if step % 2 else rng.randint(low, high)
            move(old, new)
            if step % 100 == 0:
                self._check_shape(c)
        self._check_shape(c)
        if one_block:
            assert len(c.blocks) == 1
        else:
            assert splits and emptied

    def test_reaching_matches_a_flat_index(self):
        rng = random.Random(5)
        s = Store()
        n = 3 * BLOCK_SIZE + 1
        vs = [s.new_var([0]) for _ in range(n)]
        maxes = {v: rng.randint(-30, 30) for v in vs}
        index = MaxIndex(vs, ([maxes[v]] for v in vs))

        def expected(bound):
            return [v for m, v in sorted((m, v) for v, m in maxes.items()) if m >= bound]

        for step in range(2000):
            v = rng.choice(vs)
            new = rng.randint(-35, 35)
            index.moved(v, maxes[v], new)
            maxes[v] = new
            if step % 50 == 0:
                top = max(maxes.values())
                assert index.keys == sorted(m * index.stride + v for v, m in maxes.items())
                for bound in (NO_INDEX, top, top + 1, rng.randint(-35, 35)):
                    assert index.reaching(bound) == expected(bound)
        assert index.reaching(NO_INDEX) == expected(NO_INDEX)
        assert index.reaching(max(maxes.values()) + 1) == []

    @pytest.mark.parametrize("values", [3, 40, 5000])
    def test_block_merge_counts_like_flat_runs(self, values):
        """Runs that cross block starts on either side, Y keys at exactly
        ``max * stride`` (variable 0), vectors of unequal lengths."""
        rng = random.Random(values)
        xmins = [rng.randrange(values) for _ in range(2 * BLOCK_SIZE + 11)]
        ymaxs = [rng.randrange(values) for _ in range(3 * BLOCK_SIZE + 2)]
        ys = list(range(len(ymaxs)))
        xmin, ymax = SortedBlocks(xmins), MaxIndex(ys, ([m] for m in ymaxs))
        for step in range(200):
            expected = counted_runs(xmins, ymaxs)
            assert list(_runs(reversed(xmin), ymax.maxima())) == expected
            i, j = rng.randrange(len(xmins)), rng.randrange(len(ys))
            new_x, new_y = rng.randrange(values), rng.randrange(values)
            xmin.move(xmins[i], new_x)
            ymax.moved(ys[j], ymaxs[j], new_y)
            xmins[i], ymaxs[j] = new_x, new_y
        assert len(xmin.blocks) > 1 and len(ymax.blocks) > 1
        assert list(_runs(reversed(SortedBlocks([])), MaxIndex([], []).maxima())) == []

    def test_blocks_stay_bounded_through_a_search(self):
        rng = random.Random(2024)
        s = Store()
        n = 2 * BLOCK_SIZE + 3
        xs = [s.new_var(range(lo, lo + 6)) for lo in (rng.randrange(-20, 10) for _ in range(n))]
        ys = [s.new_var(range(lo, lo + 6)) for lo in (rng.randrange(-10, 20) for _ in range(n))]
        occ = MultisetOrdering(xs, ys)
        srt = SortedMultisetOrdering(xs, ys)
        occ.attach(s)
        srt.attach(s)
        moves = depth = 0
        while moves < 10_000:
            op = rng.random()
            if op < 0.05 and depth < 6:
                s.push()
                depth += 1
            elif op < 0.1 and depth:
                s.pop()
                depth -= 1
            else:
                v = rng.choice(xs + ys)
                bound = rng.choice(s.values(v))
                moves += s.set_min(v, bound) if rng.random() < 0.5 else s.set_max(v, bound)
        for c in (srt.xmin, srt.xmax_index, srt.ymax_index, occ.xmax_index, occ.ymax_index):
            self._check_shape(c)
            assert len(c.blocks) > 1
        assert srt.rebuilt_sorted(s) == (srt.xmin_sorted, srt.ymax_sorted)
        assert occ.xmax_index.keys == MaxIndex(xs, map(s.values, xs)).keys
        assert occ.ymax_index.keys == srt.ymax_index.keys


class TestRuns:
    """The one merge behind the three filters' scan, against counts of its
    two inputs, fed as each filter feeds it."""

    @staticmethod
    def _crossings(c, key=lambda v: v):
        """Block starts that split a run of equal values (keys of equal max)."""
        return sum(key(a[-1]) == key(b[0]) for a, b in zip(c.blocks, c.blocks[1:]))

    @pytest.mark.parametrize(
        "nx, ny, low, high",
        [
            (0, 0, 0, 0),  # both sides empty
            (0, 9, -3, 3),  # X empty
            (7, 0, -3, 3),  # Y empty
            (5, 3 * BLOCK_SIZE + 2, -50, -1),  # negative maxima only
            (2 * BLOCK_SIZE + 11, 4, -(10**6), 10**6),  # few repeats
            (2 * BLOCK_SIZE + 11, 3 * BLOCK_SIZE + 2, -40, 40),  # runs across blocks
        ],
    )
    def test_blocked_and_sorted_inputs_merge_like_counts(self, nx, ny, low, high):
        rng = random.Random(f"{nx}:{ny}:{low}")
        xmins = [rng.randint(low, high) for _ in range(nx)]
        ymaxs = [rng.randint(low, high) for _ in range(ny)]
        ys = rng.sample(range(1, 2 * ny + 2), ny)  # no key at exactly max * stride
        xmin, ymax = SortedBlocks(xmins), MaxIndex(ys, ([m] for m in ymaxs))
        crossed_x = crossed_y = 0
        for step in range(150):
            expected = counted_runs(xmins, ymaxs)
            assert list(_runs(reversed(xmin), ymax.maxima())) == expected
            sx, sy = sorted(xmins, reverse=True), sorted(ymaxs, reverse=True)
            assert list(_runs(sx, sy)) == expected
            crossed_x += self._crossings(xmin)
            crossed_y += self._crossings(ymax, ymax.stride.__rfloordiv__)
            if nx:
                i, new = rng.randrange(nx), rng.randint(low, high)
                xmin.move(xmins[i], new)
                xmins[i] = new
            if ny:
                j, new = rng.randrange(ny), rng.randint(low, high)
                ymax.moved(ys[j], ymaxs[j], new)
                ymaxs[j] = new
        if high - low < 100 and min(nx, ny) > BLOCK_SIZE:
            assert crossed_x and crossed_y

    def test_negative_maxima_decode_by_floor(self):
        s = Store()
        vs = [s.new_var([-9, m]) for m in (-1, -2, -2, -7, 0, 3)]
        assert list(MaxIndex(vs, map(s.values, vs)).maxima()) == [3, 0, -1, -2, -2, -7]

    def test_a_run_read_takes_one_item_past_it_on_each_side(self):
        rng = random.Random(3)

        def counting(values, taken, side):
            for v in values:
                taken[side] += 1
                yield v

        for _ in range(300):
            sx = sorted((rng.randrange(6) for _ in range(rng.randrange(12))), reverse=True)
            sy = sorted((rng.randrange(6) for _ in range(rng.randrange(12))), reverse=True)
            taken = [0, 0]
            runs = _runs(counting(sx, taken, 0), counting(sy, taken, 1))
            seen_x = seen_y = 0
            for v, cx, cy in runs:
                seen_x, seen_y = seen_x + cx, seen_y + cy
                assert taken[0] <= seen_x + 1 and taken[1] <= seen_y + 1, (sx, sy, v)
            assert (seen_x, seen_y) == (len(sx), len(sy))
        # a scan that ends at a first difference near the top reads no further
        taken = [0, 0]
        long = [5] * 1000
        sx, sy = counting([9] + long, taken, 0), counting([9, 8, 8] + long, taken, 1)
        fl, *_ = _summary(_runs(sx, sy), False)
        assert fl.first_lt == 8 and taken == [2, 4]


class BlocksMachine(RuleBasedStateMachine):
    """A :class:`SortedBlocks` and a :class:`MaxIndex`, moved at random
    against a sorted list and a dict of maxima, with blocks of at most four
    values so that splits and drops come within a few steps."""

    def __init__(self):
        super().__init__()
        self._block_size = mset.BLOCK_SIZE
        mset.BLOCK_SIZE = 4

    def teardown(self):
        mset.BLOCK_SIZE = self._block_size

    @initialize(
        values=st.lists(st.integers(-20, 20), max_size=30),
        maxima=st.dictionaries(st.integers(0, 40), st.integers(-20, 20), max_size=30),
    )
    def build(self, values, maxima):
        self.flat = sorted(values)
        self.blocks = SortedBlocks(values)
        self.maxima = maxima
        self.index = MaxIndex(list(maxima), ([m] for m in maxima.values()))

    @rule(data=st.data(), new=st.integers(-25, 25))
    def move(self, data, new):
        old = data.draw(st.sampled_from(self.flat) if self.flat else st.integers(-25, 25))
        if old not in self.flat:
            with pytest.raises(ValueError):
                self.blocks.move(old, new)
            return
        self.blocks.move(old, new)
        self.flat.remove(old)
        insort_left(self.flat, new)

    @precondition(lambda self: self.maxima)
    @rule(data=st.data(), new=st.integers(-25, 25))
    def moved(self, data, new):
        var = data.draw(st.sampled_from(sorted(self.maxima)))
        self.index.moved(var, self.maxima[var], new)
        self.maxima[var] = new

    @rule(bound=st.one_of(st.just(NO_INDEX), st.integers(-25, 25)))
    def reaching(self, bound):
        by_key = sorted((m, v) for v, m in self.maxima.items())
        assert self.index.reaching(bound) == [v for m, v in by_key if m >= bound]

    @rule()
    def iterate(self):
        assert list(self.blocks) == self.flat
        assert list(reversed(self.blocks)) == self.flat[::-1]
        assert list(self.index.maxima()) == sorted(self.maxima.values(), reverse=True)

    @invariant()
    def shape(self):
        for c in (self.blocks, self.index):
            blocks = c.blocks
            assert all(len(b) <= mset.BLOCK_SIZE for b in blocks)
            assert all(blocks) or blocks == [[]]  # only an empty vector has an empty block
            assert c.maxes == [b[-1] for b in blocks[:-1]]
            assert c.single is (blocks[0] if len(blocks) == 1 else None)
            flat = list(c)
            assert flat == sorted(flat)


BlocksMachine.TestCase.settings = settings(max_examples=60, stateful_step_count=40, deadline=None)
TestBlocksMachine = BlocksMachine.TestCase


def _full_prune(s, xs, ys, strict):
    """The prune pass over the whole vectors, from the complete scan of
    freshly sorted bounds; returns that scan's summary."""
    sx, sy = sorted(map(s.min, xs), reverse=True), sorted(map(s.max, ys), reverse=True)
    summary = complete_summary(_runs(sx, sy), strict)
    _prune(s, xs, ys, *summary)
    return summary


def _domains_after(s, xs, ys, prune):
    """Domains after ``prune(s)``, or None when it fails."""
    try:
        prune(s)
    except Inconsistent:
        return None
    return [s.values(v) for v in xs + ys]


def _multi_block_instance(seed=7):
    """Vectors of several blocks each, most values repeated, many negative,
    that every filter posts without failing."""
    rng = random.Random(seed)
    dom = lambda lo: rng.sample(range(lo, lo + 12), rng.randint(1, 4))
    n = 3 * BLOCK_SIZE + 5
    return [dom(rng.randrange(-40, 0)) for _ in range(n)], [dom(rng.randrange(-9, 20)) for _ in range(n + 7)]


def _wide_instance(n, seed=11):
    """d ~ n: each domain a few scattered values of a range of about 3n."""
    rng = random.Random(seed)
    dom = lambda: rng.sample(range(-n, 2 * n), rng.randint(1, 3))
    return [dom() for _ in range(n)], [dom() for _ in range(n + 3)]


class TestSetUpFromSnapshot:
    """The state ``attach`` builds equals a reference computed here straight
    from the domains given, not through the filters' helpers."""

    CASES = {
        "negative": ([[-5, -1], [-3], [-2, 0, 4]], [[-4, -2], [-1, 3], [-6]]),
        "holes": ([[1, 5, 9], [2, 8], [5]], [[3, 9], [1, 4, 7], [2, 6, 10]]),
        "unequal lengths": ([[0, 1], [2, 3], [1, 4], [0]], [[3, 4], [2]]),
        "all fixed": ([[3], [1], [3]], [[2], [4], [3], [0]]),
        "d ~ n": _wide_instance(300),
    }

    @staticmethod
    def _counts(unrank, bounds):
        return [sum(1 for b in bounds if b == v) for v in unrank]

    @staticmethod
    def _keys(variables, maxes):
        stride = max(variables) + 1
        return sorted(m * stride + v for v, m in zip(variables, maxes))

    @pytest.mark.parametrize("case", CASES)
    def test_vectors_and_indexes_match_reference(self, case):
        xd, yd = self.CASES[case]
        s, xs, ys = make(xd, yd)
        occ = MultisetOrdering(xs, ys, entailment=True)
        srt = SortedMultisetOrdering(xs, ys)
        occ.attach(s)
        srt.attach(s)
        unrank = sorted({v for d in xd + yd for v in d})
        xmin, xmax = [min(d) for d in xd], [max(d) for d in xd]
        ymin, ymax = [min(d) for d in yd], [max(d) for d in yd]
        assert occ.xmin_counts == self._counts(unrank, xmin)
        assert occ.ymax_counts == self._counts(unrank, ymax)
        assert occ.xmax_counts == self._counts(unrank, xmax)
        assert occ.ymin_counts == self._counts(unrank, ymin)
        assert occ.rebuilt_counts(s) == (
            occ.xmin_counts,
            occ.ymax_counts,
            occ.xmax_counts,
            occ.ymin_counts,
        )
        assert srt.xmin_sorted == sorted(xmin, reverse=True)
        assert srt.ymax_sorted == sorted(ymax, reverse=True)
        assert srt.rebuilt_sorted(s) == (srt.xmin_sorted, srt.ymax_sorted)
        for p in (occ, srt):
            assert p.xmax_index.keys == self._keys(xs, xmax)
            assert p.ymax_index.keys == self._keys(ys, ymax)
            # the keys split back into the variables, ordered by max
            by_max = sorted(range(len(ys)), key=lambda i: (ymax[i], ys[i]))
            assert p.ymax_index.reaching(NO_INDEX) == [ys[i] for i in by_max]

    def test_without_entailment_only_the_pruning_counts(self):
        xd, yd = self.CASES["negative"]
        s, xs, ys = make(xd, yd)
        occ = MultisetOrdering(xs, ys)
        occ.attach(s)
        assert occ.xmax_counts is None and occ.ymin_counts is None
        assert len(occ.rebuilt_counts(s)) == 2


class TestIndexedPrune:
    """The dedicated filters prune only the variables their max index hands
    over, and every filter's scan stops where the prune stops reading; that
    must cut exactly what the complete scan and prune over the whole vectors
    cut."""

    @staticmethod
    def _stage(summary):
        """How far the scan must read, given the complete summary."""
        fl, x_at_lt, y_at_lt, x_at_gt, y_at_gt = summary
        if x_at_lt + 1 != y_at_lt:
            return "to first_lt"
        if not (fl.flat_between and x_at_gt == y_at_gt + 1):
            return "to first_gt"
        return "into the tail"

    def test_summary_reads_what_the_prune_uses(self):
        """The filters' scan agrees with the complete one on every field it
        computes, and leaves the others as if ``first_gt`` were absent."""
        rng = random.Random("summary-stages")
        stages = set()
        for _ in range(3000):
            values = sorted(rng.sample(range(-6, 6), rng.randint(0, 8)), reverse=True)
            runs = [(v, rng.randint(0, 2), rng.randint(0, 2)) for v in values]
            strict = rng.random() < 0.5
            try:
                ref = complete_summary(runs, strict)
            except Inconsistent:
                with pytest.raises(Inconsistent):
                    _summary(runs, strict)
                continue
            got = _summary(runs, strict)
            stage = self._stage(ref)
            stages.add(stage)
            fl, x_at_lt, y_at_lt, x_at_gt, y_at_gt = ref
            if stage == "to first_lt":
                ref = Flags(fl.first_lt, NO_INDEX, False, False), x_at_lt, y_at_lt, 0, 0
            elif stage == "to first_gt":
                ref = (Flags(fl.first_lt, fl.first_gt, fl.flat_between, False),) + ref[1:]
            assert got == ref, (runs, strict)
        assert stages == {"to first_lt", "to first_gt", "into the tail"}

    @pytest.mark.parametrize("variant", ["occ", "occ-entail", "sorted", "stateless"])
    def test_candidates_prune_like_full_vectors(self, variant):
        rng = random.Random(f"indexed-prune-{variant}")
        checked = failed = 0
        stages = set()
        for trial in range(121):
            s = Store()

            def domain():
                lo = rng.randrange(-9, 4)
                return rng.sample(range(lo, lo + 7), rng.randint(1, 4))

            big = trial == 120  # the last instance's vectors span several blocks
            xs = [s.new_var(domain()) for _ in range(3 * BLOCK_SIZE if big else rng.randint(1, 60))]
            ys = [s.new_var(domain()) for _ in range(3 * BLOCK_SIZE + 9 if big else rng.randint(1, 60))]
            strict = rng.random() < 0.5
            if variant == "sorted":
                p = SortedMultisetOrdering(xs, ys, strict=strict)
            elif variant == "stateless":
                p = StatelessMultisetOrdering(xs, ys, strict=strict)
            else:
                p = MultisetOrdering(xs, ys, strict=strict, entailment=variant == "occ-entail")
            p.attach(s)
            depth = 0
            for _ in range(6):
                s.push()
                depth += 1
                for v in rng.sample(xs + ys, rng.randint(0, 5)):
                    bound = rng.choice(s.values(v))
                    if rng.random() < 0.5:
                        s.set_min(v, bound)
                    else:
                        s.set_max(v, bound)
                s.push()
                summary = []
                expected = _domains_after(
                    s, xs, ys, lambda st: summary.append(_full_prune(st, xs, ys, strict))
                )
                s.pop()
                p.last_flags = None  # stays None when the call returns early
                got = _domains_after(s, xs, ys, p.propagate)
                assert got == expected
                checked += 1
                if got is None:
                    failed += 1
                    break
                stages.add(self._stage(summary[0]))
                if p.last_flags is not None:
                    assert p.last_flags.first_lt == summary[0][0].first_lt
            if variant != "stateless":
                assert p.xmax_index.keys == MaxIndex(xs, map(s.values, xs)).keys
                assert p.ymax_index.keys == MaxIndex(ys, map(s.values, ys)).keys
            for _ in range(depth):
                s.pop()
        # the instances reach both outcomes and every stage of the scan
        assert 0 < failed < checked
        assert stages == {"to first_lt", "to first_gt", "into the tail"}


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
