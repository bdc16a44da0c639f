"""Point representation, norms, arithmetic, and the first-exceedance index."""

import random
from fractions import Fraction as F
from itertools import accumulate
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from erdos_clopen.exact import InputError, RootValue
from erdos_clopen.space import (
    ZERO,
    Point,
    add,
    m_index,
    scale,
    unit,
)

import oracle


def pt(*coords) -> Point:
    """Point from leading coordinates: pt(3, 4) = (3, 4, 0, ...)."""
    return Point([(i + 1, F(c)) for i, c in enumerate(coords) if c != 0])


entry_strategy = st.lists(
    st.tuples(st.integers(min_value=1, max_value=15),
              st.fractions(min_value=-10, max_value=10, max_denominator=12)),
    max_size=8, unique_by=lambda t: t[0],
)


class TestPoint:
    def test_canonical_drops_zeros(self):
        p = Point([(3, F(0)), (1, F(2))])
        assert p.support == (1,)
        assert p == pt(2)

    def test_rejects_bad_indices_and_duplicates(self):
        with pytest.raises(ValueError):
            Point([(0, F(1))])
        with pytest.raises(ValueError):
            Point([(2, F(1)), (2, F(2))])

    @pytest.mark.parametrize("index", [2.0, True, "3"])
    def test_index_that_is_not_an_int_is_input_error(self, index):
        """A float or bool index would print as "2.0" or "True", which
        `from_json` rejects; a string would fail the comparison with 1."""
        with pytest.raises(InputError, match="indices must be positive integers"):
            unit(index)
        with pytest.raises(InputError, match="indices must be positive integers"):
            Point({index: F(1, 2)})

    def test_binary_float_coordinate_is_input_error(self):
        """Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10."""
        with pytest.raises(InputError, match="binary float 0.1 is inexact"):
            Point({1: 0.1})
        assert Point({1: 1, 2: "1/10", 3: F(1, 10)}).entries == (
            (1, F(1)), (2, F(1, 10)), (3, F(1, 10)))

    def test_coordinate_lookup(self):
        p = pt(F(1, 2), 0, 7)
        assert p.coordinate(1) == F(1, 2)
        assert p.coordinate(2) == 0
        assert p.coordinate(3) == 7
        assert p.coordinate(99) == 0

    def test_json_round_trip(self):
        p = Point([(1, F(4)), (2, F(1, 2))])
        data = p.to_json()
        assert data == {"coords": {"1": "4/1", "2": "1/2"}}
        assert Point.from_json(data) == p

    @given(entry_strategy)
    def test_construction_is_canonical(self, entries):
        p = Point(entries)
        assert all(v != 0 for _, v in p.entries)
        assert list(p.support) == sorted(p.support)


class TestNorm:
    def test_spec_examples(self):
        assert ZERO.norm_sq() == 0
        assert pt(3, 4).norm_sq() == 25
        assert pt(F(1, 2), F(1, 3)).norm_sq() == F(13, 36)

    def test_prefix_and_tail(self):
        p = pt(2, 0, F(1, 2))
        assert p.prefix_norm_sq(1) == 4
        assert p.prefix_norm_sq(2) == 4
        assert p.prefix_norm_sq(3) == F(17, 4)
        assert p.norm_sq() - p.prefix_norm_sq(0) == F(17, 4)
        assert p.norm_sq() - p.prefix_norm_sq(2) == F(1, 4)
        assert p.norm_sq() - p.prefix_norm_sq(3) == 0

    @given(entry_strategy)
    def test_norm_matches_direct_sum(self, entries):
        p = Point(entries)
        assert p.norm_sq() == sum((v * v for _, v in p.entries), F(0))


def assert_canonical(p: Point) -> None:
    """The one stored form: increasing support, nonzero numerators over a
    positive denominator with no common factor, and their prefix squares."""
    assert list(p.support) == sorted(set(p.support)) and all(p._nums)
    assert p._den > 0 and gcd(p._den, *p._nums) == 1
    assert p._prefix_sq == tuple(accumulate(n * n for n in p._nums))


class TestZeroOperands:
    """`add` and `scale` take a zero operand down their one integer path,
    which still builds the canonical point."""

    @given(entry_strategy)
    def test_zero_is_neutral_and_absorbing(self, entries):
        x = Point(entries)
        for got, want in ((add(x, ZERO), x), (add(ZERO, x), x), (scale(F(0), x), ZERO)):
            assert got == want
            assert_canonical(got)
        zero = scale(F(0), x)
        assert zero._den == 1 and zero._prefix_sq == ()


class TestArithmetic:
    def test_spec_examples(self):
        x = pt(1, 2)
        assert add(x, ZERO) == x
        assert scale(F(1, 2), unit(2)) == Point([(2, F(1, 2))])

    def test_scale_refuses_a_binary_float_factor(self):
        """Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10."""
        with pytest.raises(InputError, match="binary float 0.1 is inexact"):
            scale(0.1, unit(1))

    def test_cancellation_restores_canonical_form(self):
        x = pt(1, 2)
        y = Point([(2, F(-2))])
        assert add(x, y).support == (1,)
        assert add(x, scale(F(-1), x)) == ZERO

    @given(entry_strategy, entry_strategy)
    def test_add_preserves_canonical_form(self, e1, e2):
        s = add(Point(e1), Point(e2))
        assert all(v != 0 for _, v in s.entries)
        assert list(s.support) == sorted(set(s.support))

    @given(entry_strategy,
           st.fractions(min_value=-5, max_value=5, max_denominator=8))
    def test_scale_norm_identity(self, entries, c):
        p = Point(entries)
        assert scale(c, p).norm_sq() == c * c * p.norm_sq()


class TestMIndex:
    ALPHA = RootValue(F(2), 4)  # 2^(1/4) ~ 1.189

    def test_spec_examples(self):
        assert m_index(ZERO, self.ALPHA) is None
        assert m_index(pt(2), self.ALPHA) == 1
        assert m_index(pt(1, 1), self.ALPHA) == 2

    def test_requires_degree_4(self):
        with pytest.raises(ValueError):
            m_index(pt(1), RootValue(F(2), 2))

    def test_exists_iff_norm_exceeds(self):
        # norm_sq > alpha^2 = sqrt(2) iff norm_sq^2 > 2
        assert m_index(pt(F(6, 5)), self.ALPHA) == 1     # 1.44^2 = 2.0736 > 2
        assert m_index(pt(F(7, 6)), self.ALPHA) is None  # (49/36)^2 < 2

    @given(entry_strategy,
           st.fractions(min_value=F(1, 4), max_value=20, max_denominator=16))
    @settings(max_examples=300)
    def test_matches_linear_scan_oracle(self, entries, base):
        from math import isqrt
        p, q = base.numerator, base.denominator
        if isqrt(p) ** 2 == p and isqrt(q) ** 2 == q:
            return
        point = Point(entries)
        alpha = RootValue(base, 4)
        assert m_index(point, alpha) == oracle.m_index(point.entries, base)

    @given(entry_strategy)
    def test_monotone_in_alpha(self, entries):
        point = Point(entries)
        small, large = RootValue(F(2), 4), RootValue(F(3), 4)
        m_small = m_index(point, small)
        m_large = m_index(point, large)
        if m_large is not None:
            assert m_small is not None and m_small <= m_large

    @given(entry_strategy)
    def test_existence_iff_norm_above_alpha_sq(self, entries):
        point = Point(entries)
        alpha = RootValue(F(2), 4)
        norm = point.norm_sq()
        exceeds = norm * norm > 2  # norm > alpha^2 = sqrt(2)
        assert (m_index(point, alpha) is not None) == exceeds


class TestIntegerFormAgainstFractions:
    """Seeded comparison of the stored integer form with plain
    (index, Fraction) arithmetic on dicts."""

    MAX_INDEX = 9

    @staticmethod
    def reference(coords: dict) -> tuple:
        return tuple(sorted((i, v) for i, v in coords.items() if v != 0))

    @staticmethod
    def random_coords(rng) -> dict:
        """Mixed denominators, with zero coordinates included on purpose."""
        indices = rng.sample(range(1, TestIntegerFormAgainstFractions.MAX_INDEX + 1),
                             rng.randint(0, 6))
        return {i: F(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 9, 12, 35)))
                for i in indices}

    def check_form(self, p: Point, coords: dict) -> None:
        expected = self.reference(coords)
        assert p.entries == expected
        assert p.support == tuple(i for i, _ in expected)
        assert p._den > 0 and gcd(p._den, *p._nums) == 1
        assert p.is_zero() == (not expected)
        norm = sum((v * v for _, v in expected), F(0))
        assert p.norm_sq() == norm
        for index in range(0, self.MAX_INDEX + 3):
            assert p.coordinate(index) == coords.get(index, 0)
            prefix = sum((v * v for i, v in expected if i <= index), F(0))
            assert p.prefix_norm_sq(index) == prefix

    def test_matches_fraction_reference(self):
        rng = random.Random(20211)
        for _ in range(300):
            a, b = self.random_coords(rng), self.random_coords(rng)
            x, y = Point(a), Point(list(b.items())[::-1])
            self.check_form(x, a)
            self.check_form(y, b)

            factor = F(rng.randint(-6, 6), rng.randint(1, 8))
            total = {i: a.get(i, 0) + b.get(i, 0) for i in set(a) | set(b)}
            difference = add(x, scale(F(-1), y))
            self.check_form(add(x, y), total)
            self.check_form(scale(factor, x), {i: factor * v for i, v in a.items()})
            self.check_form(scale(F(-1), x), {i: -v for i, v in a.items()})
            self.check_form(difference, {i: a.get(i, 0) - b.get(i, 0) for i in set(a) | set(b)})

            # unreduced integer input: every value over a common multiple
            # of its denominator, times a spare factor shared by all
            spare = rng.randint(1, 5)
            den = spare * 2520
            support = sorted(a)
            raw = Point._from_ints(support, [a[i].numerator * (den // a[i].denominator)
                                             for i in support], den)
            self.check_form(raw, a)

            same = (raw, Point(dict(a)), scale(1, x), add(difference, y), add(ZERO, x),
                    Point([(i, str(v)) for i, v in a.items()] + [(99, 0)]))
            for other in same:
                assert other == x and hash(other) == hash(x)
            if self.reference(a) != self.reference(b):
                assert x != y
