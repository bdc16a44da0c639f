"""Exact-arithmetic layer: orderings, root values, interval selection."""

import copy
import dataclasses
import hashlib
import pickle
import random
import sys
import threading
from math import gcd
from fractions import Fraction, Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from erdos_clopen import exact
from erdos_clopen.exact import (
    EmptyIntervalError,
    InvalidRootError,
    Ordering,
    RootExpr,
    RootValue,
    UnsupportedFormError,
    cmp_rational_vs_root,
    cmp_root_expr,
    expr_min,
    floor_root,
    format_rational,
    is_rational_power,
    largest_rational_at_most,
    parse_rational,
    rational_in_interval,
)
from erdos_clopen.clopen import DEFAULT_SCHEDULE, in_A, openness_radius
from erdos_clopen.space import Point
from erdos_clopen.witness import VSpec, construct_witness, ray_source

import oracle


def root(base, degree):
    return RootValue(F(base), degree)


def rat(value) -> RootExpr:
    return RootExpr.coerce(F(value))


rationals = st.fractions(min_value=-100, max_value=100, max_denominator=64)
positive_rationals = st.fractions(min_value=F(1, 64), max_value=100, max_denominator=64)


def _is_square(f: F) -> bool:
    from math import isqrt
    p, q = f.numerator, f.denominator
    return isqrt(p) ** 2 == p and isqrt(q) ** 2 == q


class TestParseFormat:
    def test_parse_plain_and_fraction(self):
        assert parse_rational("3") == F(3)
        assert parse_rational("-4/6") == F(-2, 3)
        assert parse_rational("+7/2") == F(7, 2)

    @pytest.mark.parametrize("bad", ["1.5", "a", "1/0", "2/-3", "", "1e3", "1/ 2"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    def test_format_always_includes_denominator(self):
        assert format_rational(F(4)) == "4/1"
        assert format_rational(F(-1, 2)) == "-1/2"

    @given(rationals)
    def test_round_trip(self, value):
        assert parse_rational(format_rational(value)) == value


class TestRootValue:
    def test_rejects_rational_squares(self):
        with pytest.raises(InvalidRootError):
            root(1, 2)
        with pytest.raises(InvalidRootError):
            root(F(4, 9), 2)
        with pytest.raises(InvalidRootError):
            root(F(4, 9), 4)  # (2/3)^2, so the fourth root squares to 2/3

    def test_rejects_nonpositive_and_bad_degree(self):
        with pytest.raises(InvalidRootError):
            root(0, 2)
        with pytest.raises(InvalidRootError):
            root(-2, 2)
        with pytest.raises(InvalidRootError):
            RootValue(F(2), 3)

    @pytest.mark.parametrize("base", [4, F(9, 4), F(8, 2), 2.25, 0, F(-2)])
    @pytest.mark.parametrize("degree", [2, 4])
    def test_rejects_squares_and_nonpositive_bases_of_any_type(self, base, degree):
        with pytest.raises(InvalidRootError):
            RootValue(base, degree)

    def test_rejects_degree_three_of_any_base_type(self):
        for base in (2, F(2), "2"):
            with pytest.raises(InvalidRootError):
                RootValue(base, 3)

    @pytest.mark.parametrize("base", [2, "2", F(4, 2), 2.0])
    def test_non_fraction_bases_are_stored_as_fractions(self, base):
        r = RootValue(base, 4)
        assert type(r.base) is F and r.base == 2
        assert r == RootValue(F(2), 4)
        assert hash(r) == hash(RootValue(F(2), 4))

    @given(st.integers(1, 10 ** 40), st.integers(1, 10 ** 40), st.integers(1, 10 ** 6),
           st.sampled_from([2, 4]))
    @example(4, 6, 1, 2)
    @settings(max_examples=200, deadline=None)
    def test_base_is_stored_as_integers_in_lowest_terms(self, p, q, k, degree):
        base = F(p, q)
        if _is_square(base):
            return
        r = RootValue(F(k * p, k * q), degree)  # Fraction reduces k*p/k*q
        assert gcd(r.num, r.den) == 1 and r.den > 0
        assert (r.num, r.den) == (base.numerator, base.denominator)
        assert type(r.base) is F and r.base == F(r.num, r.den) == base
        assert r == RootValue(base, degree)
        assert hash(r) == hash(RootValue(base, degree))
        assert r.to_json() == {"base": format_rational(base), "degree": degree}

    def test_equal_bases_in_other_terms_are_equal(self):
        assert RootValue(F(4, 6), 2) == RootValue(F(2, 3), 2)
        assert hash(RootValue(F(4, 6), 2)) == hash(RootValue(F(2, 3), 2))
        assert RootValue(F(2, 3), 2) != RootValue(F(2, 3), 4)
        r = RootValue(F(2, 3), 2)
        with pytest.raises(AttributeError):
            r.num = 4
        with pytest.raises(AttributeError):
            r.base = F(4, 6)

    def test_is_rational_power(self):
        assert is_rational_power(F(9, 4), 2) == F(3, 2)
        assert is_rational_power(F(16, 81), 4) == F(2, 3)
        assert is_rational_power(F(2), 2) is None
        assert is_rational_power(F(4), 4) is None
        for value in (F(0), F(-4), F(-16, 81)):
            assert is_rational_power(value, 2) is None
            assert is_rational_power(value, 4) is None


def near_squares():
    """Positive p^2/q^2 with p^2 and q^2 each nudged by -1, 0 or +1, and
    60-digit numerators and denominators."""
    sixty = st.integers(min_value=1, max_value=10 ** 60)
    nudged = st.builds(lambda p, q, dp, dq: (p * p + dp, q * q + dq),
                       st.one_of(st.integers(1, 10 ** 6), st.integers(1, 10 ** 30)),
                       st.one_of(st.integers(1, 10 ** 6), st.integers(1, 10 ** 30)),
                       st.sampled_from([-1, 0, 0, 1]), st.sampled_from([-1, 0, 0, 1]))
    pairs = st.one_of(nudged, st.tuples(sixty, sixty),
                      st.builds(lambda p, q: (p * p, q * q), sixty, sixty))
    return st.builds(lambda pq: F(pq[0], pq[1]), pairs.filter(lambda pq: min(pq) > 0))


class TestRootValueRejectsSquares:
    """RootValue rejects a positive base exactly when is_rational_power(base,
    2) finds its rational square root, for degree 2 and 4 alike."""

    @given(near_squares(), st.sampled_from([2, 4]))
    @example(F(4, 9), 4)
    @example(F(4, 3), 2)
    @settings(max_examples=600)
    def test_raises_exactly_when_rational_power_finds_a_root(self, value, degree):
        square_root = is_rational_power(value, 2)
        assert (square_root is not None) is _is_square(value)
        if square_root is None:
            assert RootValue(value, degree).base == value
        else:
            assert square_root * square_root == value
            with pytest.raises(InvalidRootError):
                RootValue(value, degree)

    def test_edges(self):
        for value in (F(2), F(1, 2), F(3, 4), F(4, 3), F(8, 9)):
            assert is_rational_power(value, 2) is None
            assert RootValue(value, 2).base == RootValue(value, 4).base == value
        # squares, then nonpositive bases, which have no positive root
        for value in (F(1), F(4, 9), F(1, 4), F(10 ** 60), F(1, 10 ** 60),
                      F(0), F(-1), F(-4, 9)):
            assert (is_rational_power(value, 2) is not None) is (value > 0)
            for degree in (2, 4):
                with pytest.raises(InvalidRootError):
                    RootValue(value, degree)


class TestCmpRationalVsRoot:
    def test_spec_examples(self):
        assert cmp_rational_vs_root(F(3), root(2, 4)) == Ordering.GREATER
        assert cmp_rational_vs_root(F(0), root(F(1, 2), 2)) == Ordering.LESS
        assert cmp_rational_vs_root(F(1), root(2, 4)) == Ordering.LESS

    @given(rationals, positive_rationals.filter(lambda f: not _is_square(f)),
           st.sampled_from([2, 4]))
    @settings(max_examples=300)
    def test_agrees_with_interval_oracle(self, s, base, degree):
        got = cmp_rational_vs_root(s, RootValue(base, degree))
        expected = oracle.cmp_rational_vs_root(s, base, degree)
        assert (got == Ordering.LESS) == (expected == "lt")

    @given(st.fractions(min_value=-50, max_value=0, max_denominator=32),
           positive_rationals.filter(lambda f: not _is_square(f)),
           st.sampled_from([2, 4]))
    def test_nonpositive_is_always_less(self, s, base, degree):
        assert cmp_rational_vs_root(s, RootValue(base, degree)) == Ordering.LESS

    @given(positive_rationals,
           positive_rationals.filter(lambda f: not _is_square(f)),
           st.sampled_from([2, 4]))
    def test_sign_consistency_under_negation(self, s, base, degree):
        t = RootValue(base, degree)
        assert cmp_rational_vs_root(-s, t) == Ordering.LESS
        assert cmp_rational_vs_root(s, t) in (Ordering.LESS, Ordering.GREATER)


@pytest.mark.parametrize("a, b", [
    (Point({1: F(1, 2), 3: F(1, 2)}), Point([(3, F(2, 4)), (5, F(0)), (1, F(3, 6))])),
    (RootValue(F(2, 3), 2), RootValue(F(4, 6), 2)),
    (RootExpr([(F(1, 2), RootValue(F(2), 4)), (F(1), None)]),
     RootExpr([(F(2, 4), RootValue(2, 4)), (0, None), (1, None)])),
], ids=["Point", "RootValue", "RootExpr"])
def test_value_types_are_frozen_dataclasses(a, b):
    """Equal values built from other representations compare and hash
    equal, and no name can be assigned, a field or any other."""
    assert dataclasses.is_dataclass(a) and type(a).__dataclass_params__.frozen
    assert a == b and hash(a) == hash(b)
    for name in [f.name for f in dataclasses.fields(a)] + ["other"]:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    assert a == b


def two_roots() -> RootExpr:
    """sqrt(8)/2 - 2^(1/4)/3, about 0.218: two roots, one written over a
    radicand the canonical form rewrites."""
    return RootExpr([(F(1, 2), RootValue(F(8), 2)), (F(-1, 3), RootValue(F(2), 4))])


def test_root_expr_memo_is_invisible():
    """The canonical form and enclosure a RootExpr keeps after it has been
    compared and bounded take no part in ==, hash or JSON, and no name,
    theirs included, can be assigned."""
    expr, fresh = two_roots(), two_roots()
    shown = expr.to_json()
    assert cmp_root_expr(expr, rat(F(1, 3))) == Ordering.GREATER
    assert largest_rational_at_most(expr, 10 ** 30) > 0
    assert expr == fresh and hash(expr) == hash(fresh)
    assert expr.to_json() == shown == fresh.to_json() and repr(expr) == repr(fresh)
    assert [f.name for f in dataclasses.fields(RootExpr)] == ["terms"]
    for name in ("terms", "_form", "_enclosure", "other"):
        with pytest.raises(AttributeError):
            setattr(expr, name, None)
    assert expr == fresh


@pytest.mark.parametrize("duplicate", [
    copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value)),
], ids=["copy", "deepcopy", "pickle"])
def test_values_survive_copy_and_pickle(duplicate):
    """Each value type is rebuilt through its constructor, so a copy or a
    pickle round trip equals the original, derived slots included; values
    holding one (a threshold pair, a certificate, a witness) copy too."""
    point = Point({1: F(3, 2), 4: F(-1, 3), 6: F(1, 5)})
    expr = two_roots()
    assert cmp_root_expr(expr, rat(F(1, 3))) == Ordering.GREATER  # fills the memo
    for value in (point, RootValue(F(2, 3), 4), expr):
        copied = duplicate(value)
        assert type(copied) is type(value)
        assert copied == value and hash(copied) == hash(value)
    copied = duplicate(point)
    assert copied._prefix_sq == point._prefix_sq and copied._den_sq == point._den_sq
    pair = DEFAULT_SCHEDULE.pair_at(2)
    assert in_A(copied, pair) == in_A(point, pair)
    assert duplicate(expr).to_json() == expr.to_json()
    cert = openness_radius(Point({1: F(1, 10), 2: F(1, 10)}), pair)
    witness = construct_witness(VSpec(F(1, 2), ray_source()), DEFAULT_SCHEDULE)
    for value in (pair, cert, witness):
        assert duplicate(value) == value
    assert duplicate(cert).components == cert.components


def test_root_expr_memo_shared_between_threads():
    """Threads bounding one shared expression at rising caps refine its
    enclosure concurrently; each memo slot is written as one tuple, so
    every thread gets the answers of a thread alone."""
    caps = [10 ** k for k in range(1, 40)]
    expected = [largest_rational_at_most(two_roots(), cap) for cap in caps]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            shared = two_roots()
            results = [None] * 8

            def work(i):
                results[i] = [largest_rational_at_most(shared, cap) for cap in caps]

            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert results == [expected] * 8
    finally:
        sys.setswitchinterval(switch)


class TestCmpRootExpr:
    def test_spec_examples(self):
        lhs = rat(1) - RootExpr.coerce(root(F(1, 2), 2))   # ~0.293
        rhs = rat(2) - RootExpr.coerce(root(2, 4))         # ~0.811
        assert cmp_root_expr(lhs, rhs) == Ordering.LESS
        assert cmp_root_expr(root(2, 2), root(2, 2)) == Ordering.EQUAL
        half_beta2 = RootExpr([(F(1, 2), root(2, 2))])      # sqrt(2)/2
        assert cmp_root_expr(half_beta2, rat(1)) == Ordering.LESS

    def test_dependent_roots_merge_to_equal(self):
        # sqrt(8) = 2*sqrt(2); 32^(1/4) = 2*2^(1/4)
        assert cmp_root_expr(root(8, 2), RootExpr([(F(2), root(2, 2))])) \
            == Ordering.EQUAL
        assert cmp_root_expr(root(32, 4), RootExpr([(F(2), root(2, 4))])) \
            == Ordering.EQUAL

    def test_mixed_degree_expressions(self):
        # sqrt(2) + 2^(1/4) vs 3 - 2^(1/4): 2.603... vs 1.810...
        lhs = RootExpr.coerce(root(2, 2)) + RootExpr.coerce(root(2, 4))
        rhs = rat(3) - RootExpr.coerce(root(2, 4))
        assert cmp_root_expr(lhs, rhs) == Ordering.GREATER

    def test_rejects_three_terms(self):
        three = rat(1) + RootExpr.coerce(root(2, 2)) \
            + RootExpr.coerce(root(3, 2))
        with pytest.raises(UnsupportedFormError):
            cmp_root_expr(three, rat(0))
        with pytest.raises(UnsupportedFormError):
            cmp_root_expr(rat(0), three)

    @given(
        st.tuples(rationals, st.one_of(st.none(), st.tuples(
            positive_rationals.filter(lambda f: not _is_square(f)),
            st.sampled_from([2, 4])))),
        st.tuples(rationals, st.one_of(st.none(), st.tuples(
            positive_rationals.filter(lambda f: not _is_square(f)),
            st.sampled_from([2, 4])))),
    )
    @settings(max_examples=300)
    def test_two_term_agrees_with_oracle(self, left, right):
        def build(spec):
            coef, root_spec = spec
            if root_spec is None:
                return rat(coef)
            base, degree = root_spec
            return RootExpr([(coef, RootValue(base, degree))])

        lhs, rhs = build(left), build(right)
        got = cmp_root_expr(lhs, rhs)
        expected = oracle.cmp_exprs(oracle.terms_of_expr(lhs),
                                    oracle.terms_of_expr(rhs), max_dps=800)
        if got == Ordering.EQUAL:
            assert expected is None
        else:
            assert expected == ("lt" if got == Ordering.LESS else "gt")


ROOT_TERMS = st.tuples(st.sampled_from([F(-2), F(-1, 2), F(1, 3), F(1), F(3, 2)]),
                       st.sampled_from([(2, 2), (8, 2), (18, 2), (2, 4), (32, 4)]))


def candidate_expr(plain: F, terms) -> RootExpr:
    return RootExpr([(plain, None)] + [(coef, root(base, degree))
                                       for coef, (base, degree) in terms])


# at most two terms each, over dependent roots (sqrt(8) = 2*sqrt(2),
# 32^(1/4) = 2*2^(1/4)), so equal values written differently come up often
candidate_exprs = (
    st.builds(candidate_expr, st.sampled_from([F(0), F(1), F(-1, 2)]),
              st.lists(ROOT_TERMS, max_size=1))
    | st.builds(candidate_expr, st.just(F(0)), st.lists(ROOT_TERMS, min_size=2, max_size=2))
)


class TestExprMin:
    def test_first_of_equal_minima_is_returned(self):
        sqrt8 = RootExpr.coerce(root(8, 2))
        two_sqrt2 = RootExpr([(F(2), root(2, 2))])
        assert expr_min(sqrt8, two_sqrt2) is sqrt8
        assert expr_min(two_sqrt2, sqrt8) is two_sqrt2
        assert expr_min(rat(3), two_sqrt2, sqrt8) is two_sqrt2

    def test_three_or_more_candidates(self):
        sqrt2 = RootExpr.coerce(root(2, 2))              # 1.414...
        fourth2 = RootExpr.coerce(root(2, 4))            # 1.189...
        gap = rat(2) - RootExpr.coerce(root(3, 2))       # 0.267...
        half = rat(F(1, 2))
        assert expr_min(sqrt2, fourth2, half) is half
        assert expr_min(sqrt2, fourth2, half, gap) is gap
        assert expr_min(sqrt2, gap, half, fourth2) is gap
        assert expr_min(sqrt2, fourth2, rat(F(6, 5))) is fourth2

    def test_fraction_int_and_root_value_inputs(self):
        assert expr_min(F(3, 2), root(2, 2)) == RootExpr.coerce(root(2, 2))
        assert expr_min(root(2, 2), F(1)) == rat(1)
        assert expr_min(2, root(2, 4), F(5, 4)) == RootExpr.coerce(root(2, 4))
        assert expr_min(F(7, 3)) == rat(F(7, 3))
        with pytest.raises(ValueError):
            expr_min()

    @given(st.lists(candidate_exprs, min_size=1, max_size=5))
    @settings(max_examples=200)
    def test_agrees_with_pairwise_comparison(self, candidates):
        best = expr_min(*candidates)
        is_best = [candidate is best for candidate in candidates]
        assert True in is_best
        first = is_best.index(True)
        for i, candidate in enumerate(candidates):
            order = cmp_root_expr(candidate, best)
            assert order == Ordering.GREATER if i < first else order != Ordering.LESS


class TestComparisonStress:
    def test_equal_through_different_representations(self):
        # 3*sqrt(2) + 5*sqrt(18) = 18*sqrt(2) = 2*sqrt(162)
        lhs = RootExpr([(F(3), root(2, 2))]) + RootExpr([(F(5), root(18, 2))])
        rhs = RootExpr([(F(2), root(162, 2))])
        assert cmp_root_expr(lhs, rhs) == Ordering.EQUAL
        # 512^(1/4) = 4*2^(1/4): equality splits across the subtraction
        lhs = RootExpr.coerce(root(512, 4)) - RootExpr([(F(3), root(2, 4))])
        rhs = RootExpr.coerce(root(2, 4))
        assert cmp_root_expr(lhs, rhs) == Ordering.EQUAL

    def test_near_equal_needs_only_tiny_nudge(self):
        # 18*sqrt(2) + epsilon on one side
        lhs = RootExpr([(F(3), root(2, 2))]) + RootExpr([(F(5), root(18, 2))])
        rhs = RootExpr([(F(2), root(162, 2))]) + rat(F(1, 10 ** 30))
        assert cmp_root_expr(lhs, rhs) == Ordering.LESS

    def test_separation_from_deep_convergents(self):
        # convergents p/q of sqrt(2) satisfy |sqrt(2) - p/q| ~ 1/q^2; after
        # 150 steps q has ~57 digits, forcing refinement far past the
        # starting precision; convergents alternate sides of sqrt(2)
        p, q = 1, 1
        sqrt2 = root(2, 2)
        for step in range(150):
            p, q = p + 2 * q, p + q
            got = cmp_rational_vs_root(F(p, q), sqrt2)
            expected = Ordering.GREATER if step % 2 == 0 else Ordering.LESS
            assert got == expected
        assert q > 10 ** 50
        # the same deep separation through the expression route
        assert cmp_root_expr(rat(F(p, q)), sqrt2) == (
            Ordering.GREATER if 149 % 2 == 0 else Ordering.LESS)

    def test_empty_expression_is_zero(self):
        assert cmp_root_expr(RootExpr([]), rat(0)) == Ordering.EQUAL
        assert cmp_root_expr(RootExpr([]), root(2, 2)) == Ordering.LESS

    def test_coefficient_cancellation_across_sides(self):
        # sqrt(8) - sqrt(2) = sqrt(2): two-term lhs vs one-term rhs
        lhs = RootExpr.coerce(root(8, 2)) - RootExpr.coerce(root(2, 2))
        assert cmp_root_expr(lhs, root(2, 2)) == Ordering.EQUAL


def near_third(above: bool) -> RootExpr:
    """1/3 + (sqrt(2) - p/q) for the first continued-fraction convergent p/q
    of sqrt(2) with q > 2^33 lying on the given side of sqrt(2): an
    irrational value within 2^-66 of 1/3, closer than the 2^-64 starting
    enclosure can tell."""
    p, q = 1, 1
    while q <= 2 ** 33 or (p * p < 2 * q * q) != above:
        p, q = p + 2 * q, p + q
    return rat(F(1, 3) - F(p, q)) + RootExpr.coerce(root(2, 2))


def brute_force_simplest(lo_cmp, hi_cmp, window, max_den=200):
    """Smallest-denominator rational v with lo < v < hi, by exhaustive scan
    over a numeric window (lo_bound, hi_bound) enclosing the interval;
    comparisons are callables so endpoints may be irrational."""
    from math import ceil, floor
    wlo, whi = window
    for q in range(1, max_den + 1):
        p_start = floor(wlo * q) - 1
        p_end = ceil(whi * q) + 1
        for p in range(p_start, p_end + 1):
            v = F(p, q)
            if v.denominator == q and lo_cmp(v) and hi_cmp(v):
                return v
    raise AssertionError("no rational found in the window scanned")


class TestRationalInInterval:
    def test_spec_examples(self):
        assert rational_in_interval(root(F(2, 9), 2), F(1)) == F(1, 2)
        assert rational_in_interval(F(0), F(1)) == F(1, 2)
        with pytest.raises(EmptyIntervalError):
            rational_in_interval(F(1), F(1))

    def test_answer_next_to_an_irrational_endpoint(self):
        # 1/3 lies inside the starting enclosure of the near endpoint, and is
        # the answer exactly when it lies inside the interval
        assert rational_in_interval(near_third(above=False), F(7, 20)) == F(1, 3)
        assert rational_in_interval(F(8, 25), near_third(above=True)) == F(1, 3)
        assert rational_in_interval(near_third(above=True), F(7, 20)) \
            == rational_in_interval(F(1, 3), F(7, 20)) == F(8, 23)
        assert rational_in_interval(F(8, 25), near_third(above=False)) \
            == rational_in_interval(F(8, 25), F(1, 3))

    def test_reversed_is_empty(self):
        with pytest.raises(EmptyIntervalError):
            rational_in_interval(F(2), F(1))
        with pytest.raises(EmptyIntervalError):
            rational_in_interval(root(2, 2), root(2, 2))

    def test_straddling_zero_gives_zero(self):
        assert rational_in_interval(F(-1), F(5)) == 0
        assert rational_in_interval(rat(0) - RootExpr.coerce(root(2, 2)),
                                    root(2, 4)) == 0

    def test_negative_interval_mirrors(self):
        assert rational_in_interval(F(-3), F(-1)) == F(-2)
        assert rational_in_interval(F(-1, 2), F(0)) == F(-1, 3)

    @given(st.fractions(min_value=0, max_value=30, max_denominator=40),
           st.fractions(min_value=0, max_value=30, max_denominator=40))
    @settings(max_examples=200, deadline=None)
    def test_matches_exhaustive_scan_on_rational_endpoints(self, a, b):
        if a == b:
            return
        lo, hi = min(a, b), max(a, b)
        got = rational_in_interval(lo, hi)
        assert lo < got < hi
        expected = brute_force_simplest(lambda v: v > lo, lambda v: v < hi,
                                        (lo, hi))
        assert got == expected

    def test_matches_scan_on_irrational_endpoints(self):
        # (sqrt(2), 2^(1/4) + 3/2): oracle-driven exhaustive scan
        lo = root(2, 2)
        hi = RootExpr.coerce(root(2, 4)) + rat(F(3, 2))
        got = rational_in_interval(lo, hi)

        def above_lo(v):
            return oracle.cmp_rational_vs_root(v, F(2), 2) == "gt"

        def below_hi(v):
            return oracle.cmp_value_vs_rational(
                oracle.terms_of_expr(hi), v) == "gt"

        assert got == brute_force_simplest(above_lo, below_hi, (F(1), F(3)))

    @given(st.fractions(min_value=F(1, 30), max_value=50, max_denominator=30),
           st.fractions(min_value=F(1, 30), max_value=50, max_denominator=30))
    @settings(max_examples=200)
    def test_certified_strictly_inside(self, a, b):
        if a == b:
            return
        lo, hi = min(a, b), max(a, b)
        v = rational_in_interval(lo, hi)
        assert cmp_root_expr(rat(lo), rat(v)) == Ordering.LESS
        assert cmp_root_expr(rat(v), rat(hi)) == Ordering.LESS


class TestIntegerHelpers:
    def test_floor_approx_matches_scan_over_denominators(self):
        rng = random.Random(4112)
        for _ in range(400):
            q = rng.randint(1, 10 ** rng.randint(1, 12))
            p = rng.randint(-3 * q, 50 * q)
            cap = rng.randint(1, 200)
            a, b, e, f = exact._floor_approx(p, q, cap)
            assert 1 <= b <= cap and gcd(a, b) == 1
            assert F(a, b) == max(F(p * d // q, d) for d in range(1, cap + 1))
            # the successor: the least rational above a/b with denominator <= cap
            assert 1 <= f <= cap and gcd(e, f) == 1
            assert F(e, f) == min(F(a * d // b + 1, d) for d in range(1, cap + 1))

    @given(st.fractions(min_value=-30, max_value=30, max_denominator=40),
           st.fractions(min_value=-30, max_value=30, max_denominator=40))
    @settings(max_examples=300, deadline=None)
    def test_simplest_between_matches_exhaustive_scan(self, a, b):
        got = exact._simplest_between(a.numerator, a.denominator,
                                      b.numerator, b.denominator)
        if a >= b:
            assert got is None
        elif a < 0 < b:
            assert got == 0
        elif b <= 0:  # the mirror image of the scan, as in rational_in_interval
            assert -got == brute_force_simplest(lambda v: v > -b, lambda v: v < -a, (-b, -a))
        else:
            assert got == brute_force_simplest(lambda v: v > a, lambda v: v < b, (a, b))


def near_powers(degree):
    """0, perfect powers k^degree and the integers and rationals just
    below and just above them."""
    def around(k):
        n = k ** degree
        return st.sampled_from([F(n), F(n - 1), F(n + 1), n - F(1, 10 ** 60),
                                n + F(1, 10 ** 60)]).filter(lambda v: v >= 0)
    return st.integers(min_value=0, max_value=10 ** 40).flatmap(around)


sixty_digit_rationals = st.builds(F, st.integers(min_value=0, max_value=10 ** 60),
                                  st.integers(min_value=1, max_value=10 ** 60))


class TestFloorRoot:
    @staticmethod
    def check(value, degree):
        k = floor_root(value, degree)
        assert k ** degree <= value < (k + 1) ** degree

    @pytest.mark.parametrize("degree", [2, 4])
    def test_small_integers_and_zero(self, degree):
        for n in range(700):
            self.check(n, degree)
            self.check(F(n), degree)
        assert floor_root(0, degree) == 0

    @given(st.sampled_from([2, 4]), st.data())
    @settings(max_examples=300)
    def test_around_perfect_powers(self, degree, data):
        self.check(data.draw(near_powers(degree)), degree)

    @given(sixty_digit_rationals, st.sampled_from([2, 4]))
    @settings(max_examples=300)
    def test_sixty_digit_rationals(self, value, degree):
        self.check(value, degree)

    def test_powers_of_fractions(self):
        assert floor_root(F(16, 81), 4) == 0
        assert floor_root(F(81, 16), 4) == 1    # (3/2)^4
        assert floor_root(F(10 ** 8 - 1), 4) == 99
        assert floor_root(F(10 ** 8), 4) == 100


class TestLargestRationalAtMost:
    def test_exact_rational_within_cap(self):
        assert largest_rational_at_most(F(1), 10 ** 6) == F(1)
        assert largest_rational_at_most(F(1, 3), 10) == F(1, 3)

    def test_rational_with_oversized_denominator(self):
        # best lower approximation of 355/113 with denominator <= 100
        got = largest_rational_at_most(F(355, 113), 100)
        best = max(F(355 * q // 113, q) for q in range(1, 101))
        assert got == best == F(311, 99)

    def test_positivity_fallback_below_cap_resolution(self):
        assert largest_rational_at_most(F(1, 2000), 100) == F(1, 2000)
        v = rat(F(1, 777)) - rat(F(1, 100000))  # slightly under 1/777
        got = largest_rational_at_most(v, 10)
        assert 0 < got < F(1, 777)

    @given(positive_rationals.filter(lambda f: not _is_square(f)),
           st.sampled_from([2, 4]), st.integers(min_value=1, max_value=500))
    @settings(max_examples=200)
    def test_maximality_against_brute_force(self, base, degree, cap):
        value = RootValue(base, degree)
        got = largest_rational_at_most(value, cap)
        assert cmp_rational_vs_root(got, value) == Ordering.LESS
        if got.denominator <= cap:
            best = None
            for q in range(1, cap + 1):
                lo, hi = oracle.root_enclosure(
                    base.numerator, base.denominator, degree, 50)
                p = (lo * q).numerator // (lo * q).denominator
                for cand_num in (p, p + 1):
                    cand = F(cand_num, q)
                    if oracle.cmp_rational_vs_root(cand, base, degree) == "lt":
                        best = cand if best is None else max(best, cand)
            assert got == best

    def test_irrational_value_next_to_a_small_rational(self):
        assert largest_rational_at_most(near_third(above=True), 1000) == F(1, 3)
        assert largest_rational_at_most(near_third(above=False), 1000) \
            == max(F((b - 1) // 3, b) for b in range(1, 1001)) == F(333, 1000)

    def test_refinement_limit_raises_instead_of_looping(self, monkeypatch):
        # the 2^-64 starting enclosure contains 1/3, so only refining decides
        monkeypatch.setattr(exact, "_MAX_BITS", 64)
        for above in (True, False):
            with pytest.raises(RuntimeError):
                largest_rational_at_most(near_third(above), 1000)

    def test_positivity_fallback_on_irrational_value(self):
        value = RootExpr([(F(1, 1000), root(2, 2))])  # sqrt(2)/1000
        got = largest_rational_at_most(value, 100)
        assert got == F(1, 708)  # 707 < 1000/sqrt(2) < 708
        assert cmp_root_expr(rat(got), value) == Ordering.LESS
        assert cmp_root_expr(rat(F(1, 707)), value) == Ordering.GREATER

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError):
            largest_rational_at_most(F(0), 10)
        with pytest.raises(ValueError):
            largest_rational_at_most(rat(1) - rat(2), 10)


def seeded_two_term_exprs(count, seed):
    """Signed two-term sums, each term rational or rational * root."""
    rng = random.Random(seed)

    def term():
        coef = F(rng.choice([-1, 1]) * rng.randint(1, 40), rng.randint(1, 40))
        if rng.random() < 0.25:
            return rat(coef)
        base = F(rng.randint(1, 60), rng.randint(1, 60))
        while _is_square(base):
            base += 1
        return RootExpr([(coef, root(base, rng.choice([2, 4])))])

    return [(term() + term(), rng.randint(0, 40)) for _ in range(count)]


class TestPinnedSearchResults:
    def test_searches_on_seeded_expressions(self):
        """sha256 of both searches on 2000 seeded expressions, recorded once
        and pinned: the bounds and witness rationals must not move."""
        exprs = seeded_two_term_exprs(2000, 4111)
        lines = []
        for (expr, width_bits), (other, _) in zip(exprs, exprs[1:] + exprs[:1]):
            order = cmp_root_expr(expr, rat(0))
            if order == Ordering.EQUAL:
                lines.append("zero")
                continue
            positive = expr if order == Ordering.GREATER else -expr
            caps = [largest_rational_at_most(positive, cap) for cap in (1, 10, 10 ** 6)]
            narrow = rational_in_interval(expr, expr + rat(F(1, 2 ** width_bits)))
            side = cmp_root_expr(expr, other)
            if side == Ordering.EQUAL:
                wide = None
            elif side == Ordering.LESS:
                wide = rational_in_interval(expr, other)
            else:
                wide = rational_in_interval(other, expr)
            lines.append(" ".join(map(str, caps + [narrow, wide])))
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == (
            "43cc5b6f38dfecbec4998962838deb4fcefe5b2348a292a03dde384a3ac99590")


# The order step before it read the two enclosures first, kept verbatim as
# the reference: every decision is the sign of one merged difference.

def reference_cmp_root_expr(lhs, rhs):
    values = []
    for side, expr in (("lhs", RootExpr.coerce(lhs)), ("rhs", RootExpr.coerce(rhs))):
        if len(expr.terms) > 2:
            raise UnsupportedFormError(
                f"{side} has {len(expr.terms)} terms; at most two are supported")
        values.append(exact.RootExpr.coerce(expr))
    return Ordering((values[0] - values[1])._sign())


def reference_expr_min(*exprs):
    if not exprs:
        raise ValueError("expr_min needs at least one expression")
    best = RootExpr.coerce(exprs[0])
    best_value = exact.RootExpr.coerce(best)
    for candidate in exprs[1:]:
        candidate = RootExpr.coerce(candidate)
        value = exact.RootExpr.coerce(candidate)
        if (value - best_value)._sign() < 0:
            best, best_value = candidate, value
    return best


def reference_rational_in_interval(lo, hi):
    lo_value, hi_value = exact.RootExpr.coerce(lo), exact.RootExpr.coerce(hi)
    if (lo_value - hi_value)._sign() >= 0:
        raise EmptyIntervalError(
            f"empty interval: lo {RootExpr.coerce(lo)!r} >= hi {RootExpr.coerce(hi)!r}")

    def choose(lo_lo, lo_hi, lo_den, hi_lo, hi_hi, hi_den):
        inner = exact._simplest_between(lo_hi, lo_den, hi_lo, hi_den)
        return inner if inner == exact._simplest_between(lo_lo, lo_den, hi_hi, hi_den) else None

    return exact._settle(choose, lo_value, hi_value)


def near(expr: RootExpr, target: F, above: bool) -> RootExpr:
    """target + (expr - p/q), p/q the lower or upper end of expr's 96-bit
    enclosure: an irrational two-term value within 2^-90 of target, on the
    given side, so its 64-bit enclosure overlaps target's and that of any
    other such value."""
    lo, hi, den = exact.RootExpr.coerce(expr)._enclosure_at(96)
    return rat(target - F(lo if above else hi, den)) + expr


# dependent radicals (sqrt(8) = 2*sqrt(2), sqrt(1/2) = sqrt(2)/2,
# 32^(1/4) = 2*2^(1/4)), so equal values written differently come up often
ORDER_COEFS = st.sampled_from([F(-2), F(-1), F(1, 2), F(1), F(2), F(4)])
ORDER_ROOTS = st.sampled_from([(2, 2), (8, 2), (F(1, 2), 2), (3, 2), (2, 4), (32, 4)])
root_terms = st.builds(lambda coef, spec: RootExpr([(coef, root(*spec))]),
                       ORDER_COEFS, ORDER_ROOTS)
plain_terms = st.builds(rat, st.sampled_from([F(0), F(1), F(-1, 2), F(3, 2), F(2)]))
order_exprs = st.one_of(
    plain_terms,
    root_terms,
    st.builds(lambda a, b: a + b, plain_terms | root_terms, root_terms),
    st.builds(near, root_terms, st.sampled_from([F(0), F(1, 3), F(1)]), st.booleans()),
)


def oracle_order(lhs, rhs):
    """'lt'/'gt' from the interval oracle, None for equal values."""
    return oracle.cmp_exprs(oracle.terms_of_expr(RootExpr.coerce(lhs)),
                            oracle.terms_of_expr(RootExpr.coerce(rhs)), max_dps=400)


ORACLE = {Ordering.LESS: "lt", Ordering.EQUAL: None, Ordering.GREATER: "gt"}


class TestOrderFromEnclosures:
    @given(order_exprs, order_exprs)
    @settings(max_examples=400, deadline=None)
    @example(rat(F(1, 3)), near(RootExpr.coerce(root(2, 2)), F(1, 3), True))
    @example(near(RootExpr.coerce(root(3, 2)), F(1, 3), False),
             near(RootExpr.coerce(root(2, 4)), F(1, 3), True))
    @example(RootExpr.coerce(root(8, 2)), RootExpr([(F(2), root(2, 2))]))
    def test_cmp_root_expr_matches_reference_and_oracle(self, lhs, rhs):
        got = cmp_root_expr(lhs, rhs)
        assert got == reference_cmp_root_expr(lhs, rhs)
        assert ORACLE[got] == oracle_order(lhs, rhs)

    @given(st.lists(order_exprs, min_size=1, max_size=5))
    @settings(max_examples=300, deadline=None)
    @example([RootExpr.coerce(root(8, 2)), RootExpr([(F(2), root(2, 2))])])
    @example([rat(F(1, 3)), near(RootExpr.coerce(root(2, 2)), F(1, 3), False),
              near(RootExpr([(F(2), root(8, 2))]), F(1, 3), False)])
    def test_expr_min_matches_reference_and_oracle(self, candidates):
        best = expr_min(*candidates)
        assert best is reference_expr_min(*candidates)  # the first of equal minima
        first = next(i for i, candidate in enumerate(candidates) if candidate is best)
        for i, candidate in enumerate(candidates):
            order = oracle_order(candidate, best)
            assert order == "gt" if i < first else order != "lt"

    @given(order_exprs, order_exprs)
    @settings(max_examples=300, deadline=None)
    @example(rat(F(1, 3)), near(RootExpr.coerce(root(2, 2)), F(1, 3), True))
    @example(near(RootExpr.coerce(root(2, 2)), F(1, 3), True), rat(F(1, 3)))
    @example(RootExpr.coerce(root(32, 4)), RootExpr([(F(2), root(2, 4))]))
    def test_rational_in_interval_matches_reference_and_oracle(self, lo, hi):
        try:
            expected = reference_rational_in_interval(lo, hi)
        except EmptyIntervalError:
            with pytest.raises(EmptyIntervalError):
                rational_in_interval(lo, hi)
            assert oracle_order(lo, hi) != "lt"
            return
        got = rational_in_interval(lo, hi)
        assert got == expected
        assert oracle_order(lo, rat(got)) == "lt" and oracle_order(rat(got), hi) == "lt"


class TestOrderCounts:
    """How many merged differences an order decision builds, counted by
    wrapping `RootExpr.__sub__`: a count, not a timing."""

    @pytest.fixture()
    def subtractions(self, monkeypatch):
        calls = []
        subtract = exact.RootExpr.__sub__

        def counted(self, other):
            calls.append(other)
            return subtract(self, other)

        monkeypatch.setattr(exact.RootExpr, "__sub__", counted)
        return calls

    def test_separated_certificate_components_build_no_difference(self, subtractions):
        cert = openness_radius(Point({1: F(1), 2: F(1), 3: F(1, 3)}),
                               DEFAULT_SCHEDULE.pair_at(1))
        components = [cert.components[key] for key in ("prefix_margin", "beta_half", "h", "a")]
        del subtractions[:]
        best = expr_min(*components)
        assert len(subtractions) == 0
        assert best is components[3]  # a = alpha - sqrt(P_1), about 0.189

    def test_dependent_radicals_build_one_difference(self, subtractions):
        order = cmp_root_expr(root(8, 2), RootExpr([(F(2), root(2, 2))]))
        assert order == Ordering.EQUAL
        assert len(subtractions) == 1


# The bound search before it walked once from each end of an enclosure,
# kept verbatim as the reference: an answer needs both walks to agree.

def reference_floor_approx(p, q, cap):
    a, b = p // q, 1
    c, d = a + 1, 1
    while b + d <= cap:
        below = p * b - a * q  # bq * (p/q - a/b) >= 0
        if not below:
            break
        above = c * q - p * d  # dq * (c/d - p/q) > 0
        k = below // above  # (a + kc)/(b + kd) <= p/q
        if k:
            k = min(k, (cap - b) // d)
            a, b = a + k * c, b + k * d
        else:
            k = (above - 1) // below  # (c + ka)/(d + kb) > p/q
            c, d = c + k * a, d + k * b
    return a, b


def reference_largest_rational_at_most(value, den_cap):
    if den_cap < 1:
        raise ValueError(f"den_cap must be >= 1, got {den_cap}")
    val = exact.RootExpr.coerce(value)
    if val._sign() <= 0:
        raise ValueError("largest_rational_at_most expects a positive value")

    def choose(lo, hi, den):
        a, b = reference_floor_approx(lo, den, den_cap)
        if (a, b) != reference_floor_approx(hi, den, den_cap):
            return None
        if a > 0:
            return F(a, b)
        if lo <= 0:
            return None
        q = -(-den // lo)
        return F(1, q) if q == -(-den // hi) else None

    return exact._settle(choose, val)


BOUND_CAPS = st.sampled_from([1, 2, 3, 7, 100, 1000, 10 ** 6])


def positive_part(exprs):
    """The expressions among exprs that are positive, each negated when
    negative; zeros are dropped."""
    signs = [cmp_root_expr(expr, rat(0)) for expr in exprs]
    return [expr if sign == Ordering.GREATER else -expr
            for expr, sign in zip(exprs, signs) if sign != Ordering.EQUAL]


class TestOneWalkPerBound:
    @given(order_exprs, BOUND_CAPS)
    @settings(max_examples=400, deadline=None)
    @example(near_third(above=True), 1000)
    @example(near_third(above=False), 1000)
    @example(near_third(above=False), 3)
    @example(RootExpr([(F(1, 1000), root(2, 2))]), 100)  # below 1/cap
    @example(rat(F(355, 113)), 100)
    @example(rat(F(1, 3)), 3)  # the value's denominator is the cap
    @example(rat(F(1, 2000)), 100)
    def test_matches_two_walk_reference(self, expr, cap):
        values = positive_part([expr])
        if values:
            value = values[0]
            assert (largest_rational_at_most(value, cap)
                    == reference_largest_rational_at_most(value, cap))

    @given(st.lists(order_exprs, min_size=1, max_size=4), BOUND_CAPS)
    @settings(max_examples=200, deadline=None)
    @example([near_third(above=True), rat(F(1, 3))], 1000)
    def test_bound_of_min_matches_reference(self, exprs, cap):
        values = positive_part(exprs)
        if values:
            assert (largest_rational_at_most(expr_min(*values), cap)
                    == reference_largest_rational_at_most(expr_min(*values), cap))

    @pytest.mark.parametrize("above", [True, False])
    def test_one_walk_per_settle_round(self, monkeypatch, above):
        settles = []  # [rounds, walks] per call of _settle
        settle, floor_approx = exact._settle, exact._floor_approx

        def counted_settle(choose, *values):
            count = [0, 0]
            settles.append(count)

            def counted_choose(*ends):
                count[0] += 1
                return choose(*ends)

            return settle(counted_choose, *values)

        def counted_walk(*args):
            settles[-1][1] += 1
            return floor_approx(*args)

        monkeypatch.setattr(exact, "_settle", counted_settle)
        monkeypatch.setattr(exact, "_floor_approx", counted_walk)
        # within 2^-66 of 1/3: the 2^-64 starting enclosure holds 1/3, so
        # the bound takes more than one round; the sign takes one, no walk
        got = largest_rational_at_most(near_third(above), 1000)
        assert got == (F(1, 3) if above else F(333, 1000))
        assert settles[0] == [1, 0]
        rounds, walks = settles[-1]
        assert rounds == walks >= 2 and len(settles) == 2

    # inside A at the first pair of the default schedule, with m = 1
    TWO_COORDINATES = Point({1: F(3, 2), 2: F(1, 3)})

    @pytest.mark.parametrize("digits", [1000, 4000])
    def test_large_cap_starts_at_its_precision(self, monkeypatch, digits):
        """The bound's enclosure starts at about 2 * log2(den_cap) bits, so
        a large cap takes one walk or two, not one per doubling on the way
        up (ten at 10^4000)."""
        walks = []
        floor_approx = exact._floor_approx

        def counted_walk(*args):
            walks.append(args)
            return floor_approx(*args)

        monkeypatch.setattr(exact, "_floor_approx", counted_walk)
        openness_radius(self.TWO_COORDINATES, DEFAULT_SCHEDULE.pair_at(1), 10 ** digits)
        assert 1 <= len(walks) <= 2

    @pytest.mark.parametrize("digits", [40, 100, 300, 1000])
    def test_large_cap_matches_reference(self, digits):
        cap = 10 ** digits
        values = [near_third(above=True), near_third(above=False)]
        values += positive_part([expr for expr, _ in seeded_two_term_exprs(6, digits)])
        for value in values:
            assert (largest_rational_at_most(value, cap)
                    == reference_largest_rational_at_most(value, cap))
        cert = openness_radius(self.TWO_COORDINATES, DEFAULT_SCHEDULE.pair_at(1), cap)
        parts = [cert.components[key] for key in ("prefix_margin", "beta_half", "h", "a")]
        assert cert.bound == reference_largest_rational_at_most(expr_min(*parts), cap)


# The order of a rational against a root before it went through `_order`,
# kept verbatim as the reference: s <= 0 is LESS, otherwise s^d vs base.

def reference_cmp_rational_vs_root(s: Fraction, t: RootValue) -> Ordering:
    """Exact order of the rational s against the irrational t.

    s <= 0 is always LESS (t is positive); otherwise s vs base^(1/d) is
    decided by s^d vs base. EQUAL cannot occur: s^d == base would make
    base a rational square, which RootValue rejects.
    """
    if s <= 0:
        return Ordering.LESS
    if t.degree == 2:
        power = s * s
    else:
        sq = s * s
        power = sq * sq
    base = t.base
    if power < base:
        return Ordering.LESS
    if power > base:
        return Ordering.GREATER
    raise InvalidRootError(f"base {base} is a perfect {t.degree}th power")


def convergents(base: int, degree: int, bits: int = 512) -> list:
    """The continued-fraction convergents of base^(1/degree) that the two
    ends of its 2^-bits enclosure agree on, which are the root's own."""
    r = floor_root(base << degree * bits, degree)
    xp, xq, yp, yq = r, 1 << bits, r + 1, 1 << bits
    h0, h1, k0, k1 = 0, 1, 1, 0
    found = []
    while xq and yq and xp // xq == yp // yq:
        a = xp // xq
        h0, h1, k0, k1 = h1, a * h1 + h0, k1, a * k1 + k0
        found.append(F(h1, k1))
        xp, xq, yp, yq = xq, xp - a * xq, yq, yp - a * yq
    return found


SQRT2_CONVERGENTS = convergents(2, 2)
FOURTH_ROOT2_CONVERGENTS = convergents(2, 4)
non_square_bases = st.fractions(min_value=F(1, 10 ** 6), max_value=10 ** 6,
                                max_denominator=10 ** 6).filter(lambda f: not _is_square(f))


class TestRationalVsRootThroughOrder:
    def test_convergents_found(self):
        assert SQRT2_CONVERGENTS[:4] == [F(1), F(3, 2), F(7, 5), F(17, 12)]
        assert FOURTH_ROOT2_CONVERGENTS[:4] == [F(1), F(6, 5), F(19, 16), F(25, 21)]
        assert len(SQRT2_CONVERGENTS) > 100 and len(FOURTH_ROOT2_CONVERGENTS) > 100

    @given(st.fractions(max_denominator=10 ** 6), non_square_bases, st.sampled_from([2, 4]))
    @settings(max_examples=400, deadline=None)
    @example(F(3), F(2), 4)
    @example(F(0), F(1, 2), 2)
    def test_matches_power_reference(self, s, base, degree):
        t = RootValue(base, degree)
        assert cmp_rational_vs_root(s, t) == reference_cmp_rational_vs_root(s, t)

    @given(st.fractions(max_value=0), non_square_bases, st.sampled_from([2, 4]))
    @settings(max_examples=200, deadline=None)
    def test_nonpositive_matches_reference(self, s, base, degree):
        t = RootValue(base, degree)
        assert cmp_rational_vs_root(s, t) == reference_cmp_rational_vs_root(s, t) \
            == Ordering.LESS

    @given(st.sampled_from([(SQRT2_CONVERGENTS, 2), (FOURTH_ROOT2_CONVERGENTS, 4)])
           .flatmap(lambda spec: st.tuples(st.sampled_from(spec[0]), st.just(spec[1]))))
    @settings(max_examples=300, deadline=None)
    @example((SQRT2_CONVERGENTS[-1], 2))
    @example((FOURTH_ROOT2_CONVERGENTS[-1], 4))
    def test_convergents_match_reference(self, convergent_and_degree):
        s, degree = convergent_and_degree
        t = RootValue(F(2), degree)
        assert cmp_rational_vs_root(s, t) == reference_cmp_rational_vs_root(s, t)
