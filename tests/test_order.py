"""Ground-vector comparisons, occurrence vectors, and value normalization."""

from dataclasses import dataclass
from itertools import product
from typing import Iterable

import pytest
from hypothesis import given, strategies as st

from msetcp.order import Ordering, lex_cmp, mset_cmp, rank_map, sort_desc
from msetcp.store import Store

short_vec = st.lists(st.integers(0, 5), min_size=0, max_size=6)


@dataclass(frozen=True)
class OccVector:
    """Occurrence counts over ``[lo, hi]``, most significant (``hi``) first.

    ``counts[hi - v]`` is the number of occurrences of value ``v``; leading
    and trailing zeros are kept so that two vectors built over the same range
    are comparable position by position, and compare lexicographically the
    way the underlying multisets compare.  A ground reference for the
    filters' incrementally kept counts.
    """

    counts: tuple[int, ...]
    hi: int
    lo: int

    def __post_init__(self) -> None:
        if self.hi < self.lo:
            raise ValueError("occurrence range is empty")
        if len(self.counts) != self.hi - self.lo + 1:
            raise ValueError("count vector does not match range")

    def count_of(self, value: int) -> int:
        return self.counts[self.hi - value]

    def cmp(self, other: "OccVector") -> Ordering:
        if (self.hi, self.lo) != (other.hi, other.lo):
            raise ValueError("occurrence vectors over different ranges")
        return lex_cmp(self.counts, other.counts)


def occ_of(vec: Iterable[int], hi: int, lo: int) -> OccVector:
    """Occurrence vector of ``vec`` over the value range ``[lo, hi]``."""
    counts = [0] * (hi - lo + 1)
    for v in vec:
        if not lo <= v <= hi:
            raise ValueError(f"value {v} outside [{lo}, {hi}]")
        counts[hi - v] += 1
    return OccVector(tuple(counts), hi, lo)


class TestLexCmp:
    def test_first_difference_decides(self):
        assert lex_cmp((1, 1, 1, 1, 2, 0), (1, 2, 1, 0, 1, 1)) is Ordering.LESS
        assert lex_cmp((2, 0), (1, 9)) is Ordering.GREATER

    def test_equal(self):
        assert lex_cmp((3, 1, 4), (3, 1, 4)) is Ordering.EQUAL

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            lex_cmp((1,), (1, 2))


class TestMsetCmp:
    def test_worked_pair(self):
        assert mset_cmp([5, 4, 3, 2, 1, 1], [5, 4, 4, 3, 1, 0]) is Ordering.LESS

    def test_three_two_vs_three_one(self):
        assert mset_cmp([3, 2], [3, 1]) is Ordering.GREATER

    def test_empty_cases(self):
        assert mset_cmp([], []) is Ordering.EQUAL
        assert mset_cmp([], [0]) is Ordering.LESS
        assert mset_cmp([0], []) is Ordering.GREATER

    def test_position_blind(self):
        assert mset_cmp([0, 1, 0], [1, 0, 0]) is Ordering.EQUAL


class TestSortDesc:
    def test_basic(self):
        assert sort_desc([1, 2, 2, 3]) == (3, 2, 2, 1)

    def test_worked_example(self):
        assert sort_desc([2, 2, 5, 2, 4, 3, 1, 2]) == (5, 4, 3, 2, 2, 2, 2, 1)

    def test_empty(self):
        assert sort_desc([]) == ()


class TestOccOf:
    def test_worked_x(self):
        assert occ_of((5, 4, 3, 2, 1, 1), 5, 0).counts == (1, 1, 1, 1, 2, 0)

    def test_worked_y(self):
        assert occ_of((5, 4, 4, 3, 1, 0), 5, 0).counts == (1, 2, 1, 0, 1, 1)

    def test_small(self):
        assert occ_of((0, 1, 0), 1, 0).counts == (1, 2)

    def test_count_lookup(self):
        v = occ_of((5, 4, 4, 3, 1, 0), 5, 0)
        assert v.count_of(4) == 2 and v.count_of(2) == 0

    def test_out_of_range_is_error(self):
        with pytest.raises(ValueError):
            occ_of((7,), 5, 0)

    @given(short_vec.filter(bool))
    def test_counts_sum_to_length_and_permutation_invariant(self, vec):
        hi, lo = max(vec) + 1, min(vec)  # deliberately padded range
        v = occ_of(vec, hi, lo)
        assert sum(v.counts) == len(vec)
        assert occ_of(sorted(vec), hi, lo) == v


class TestComparisonAgreement:
    def test_mset_equals_occ_lex_and_sort_lex_exhaustively(self):
        """All same-length pairs, n <= 4, values 0..3: the three comparisons agree."""
        for n in range(1, 5):
            for x in product(range(4), repeat=n):
                for y in product(range(4), repeat=n):
                    expected = mset_cmp(x, y)
                    via_occ = lex_cmp(occ_of(x, 3, 0).counts, occ_of(y, 3, 0).counts)
                    via_sort = lex_cmp(sort_desc(x), sort_desc(y))
                    assert via_occ is expected
                    assert via_sort is expected


def normalize_values(domains):
    """The filters' rank map over ``domains``, plus the renamed domains."""
    s = Store()
    vs = [s.new_var(d) for d in domains]
    ranks, unrank = rank_map(map(s.values, vs))
    assert [ranks[v] for v in unrank] == list(range(len(unrank)))
    return ranks, [tuple(ranks[v] for v in s.values(x)) for x in vs]


class TestNormalizeValues:
    def test_worked_example(self):
        ranks, renamed = normalize_values([{1, 5}, {1, 100}, {5, 100}])
        assert ranks == {1: 0, 5: 1, 100: 2}
        assert renamed == [(0, 1), (0, 2), (1, 2)]

    def test_already_contiguous(self):
        ranks, renamed = normalize_values([{0, 1}, {0, 1}])
        assert ranks == {0: 0, 1: 1}
        assert renamed == [(0, 1), (0, 1)]

    def test_single_value(self):
        ranks, renamed = normalize_values([{7}, {7}])
        assert ranks == {7: 0}
        assert renamed == [(0,), (0,)]

    @given(
        st.lists(
            st.lists(st.integers(-50, 50), min_size=1, max_size=4), min_size=2, max_size=6
        )
    )
    def test_order_isomorphism_preserves_comparisons(self, doms):
        ranks, renamed = normalize_values(doms)
        assert sorted(ranks.values()) == list(range(len(ranks)))
        ground = [d[0] for d in doms]
        mapped = [ranks[v] for v in ground]
        half = len(ground) // 2
        if half >= 1 and len(ground) - half == half:
            a, b = ground[:half], ground[half:]
            ma, mb = mapped[:half], mapped[half:]
            assert mset_cmp(a, b) is mset_cmp(ma, mb)
            assert lex_cmp(a, b) is lex_cmp(ma, mb)


class TestOccVectorValidation:
    def test_bad_range(self):
        with pytest.raises(ValueError):
            OccVector((1,), 0, 1)

    def test_cmp_requires_same_range(self):
        with pytest.raises(ValueError):
            occ_of((0,), 1, 0).cmp(occ_of((0,), 2, 0))
