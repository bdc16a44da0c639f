"""Set memberships and neighborhood-radius certificates."""

import dataclasses
import hashlib
import json
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from erdos_clopen import clopen, exact
from erdos_clopen.exact import InputError, Ordering, RootValue, cmp_root_expr, RootExpr
from erdos_clopen.space import ZERO, Point
from erdos_clopen.harness import SampleConfig, sample_point
from erdos_clopen.clopen import (
    DEFAULT_PAIR,
    DEFAULT_SCHEDULE,
    AlphaBetaPair,
    CertificateKind,
    PreconditionViolatedError,
    RadiusCertificate,
    Schedule,
    _cached_pair,
    closedness_radius,
    first_failing_n,
    in_A,
    in_E_alpha,
    in_O,
    o_openness_radius,
    openness_radius,
)

import oracle


def pt(*coords) -> Point:
    return Point([(i + 1, F(c)) for i, c in enumerate(coords) if c != 0])


def expr_value_le(bound: F, expr) -> bool:
    return cmp_root_expr(RootExpr.coerce(bound), expr) != Ordering.GREATER


entry_strategy = st.lists(
    st.tuples(st.integers(min_value=1, max_value=12),
              st.fractions(min_value=-8, max_value=8, max_denominator=8)),
    max_size=6, unique_by=lambda t: t[0],
)


class TestSchedule:
    def test_default_bases(self):
        s = DEFAULT_SCHEDULE
        assert s.pair_at(1).alpha == RootValue(F(2), 4)
        assert s.pair_at(3).alpha == RootValue(F(162), 4)      # 2*3^4
        assert s.pair_at(1).beta == RootValue(F(2), 2)
        assert s.pair_at(3).beta == RootValue(F(2, 9), 2)

    @pytest.mark.parametrize("schedule", [
        DEFAULT_SCHEDULE, Schedule(F(1, 3), F(2)), Schedule(F(5), F(1, 7)),
        Schedule(F(10 ** 9 - 7, 999_999_937), F(123_456_789, 10 ** 9))])
    def test_bases_match_definition(self, schedule):
        a, b = schedule.alpha_scale, schedule.beta_scale
        for n in (1, 2, 3, 7, 100, 4245, 10 ** 6):
            pair = schedule.pair_at(n)
            assert pair.alpha.base == 2 * a ** 4 * F(n) ** 4
            assert pair.beta.base == 2 * b ** 2 / F(n) ** 2
            assert type(pair.alpha.base) is F
            assert type(pair.beta.base) is F
            assert pair.alpha == RootValue(2 * a ** 4 * F(n) ** 4, 4)
            assert pair.beta == RootValue(2 * b ** 2 / F(n) ** 2, 2)

    @pytest.mark.parametrize("scales", [{"alpha_scale": 0.1}, {"beta_scale": 0.1}])
    def test_binary_float_scale_is_input_error(self, scales):
        """Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10."""
        with pytest.raises(InputError, match="binary float 0.1 is inexact"):
            Schedule(**scales)

    @pytest.mark.parametrize("call", ["pair_at"])
    @pytest.mark.parametrize("n", [0, -2, -3, 1.0, True, False])
    def test_formulas_reject_bad_indices(self, call, n):
        with pytest.raises(ValueError, match="schedule index must be a positive integer"):
            getattr(DEFAULT_SCHEDULE, call)(n)

    def test_monotonicity_and_limits(self):
        s = DEFAULT_SCHEDULE
        for n in range(1, 12):
            assert s.pair_at(n + 1).alpha.base > s.pair_at(n).alpha.base
            assert s.pair_at(n + 1).beta.base < s.pair_at(n).beta.base

    def test_scaled_schedules_stay_valid(self):
        s = Schedule(alpha_scale=F(3, 7), beta_scale=F(5, 2))
        for n in (1, 2, 9):
            s.pair_at(n)  # RootValue invariants hold for every index

    def test_rejects_nonpositive_scales(self):
        with pytest.raises(ValueError):
            Schedule(alpha_scale=F(0))
        with pytest.raises(ValueError):
            Schedule(beta_scale=F(-1))

    def test_json_round_trip_and_degree_guard(self):
        s = Schedule(alpha_scale=F(2), beta_scale=F(1, 3))
        assert Schedule.from_json(s.to_json()) == s
        with pytest.raises(ValueError):
            Schedule.from_json({"alpha_scale": "1/1", "beta_scale": "1/1",
                                "degree": 2})

    @pytest.mark.parametrize("degree, shown", [("4", "'4'"), (4.0, "4.0"), (True, "True"),
                                               (2, "2")])
    def test_degree_must_be_the_int_4(self, degree, shown):
        with pytest.raises(InputError) as raised:
            Schedule.from_json({"alpha_scale": "1/1", "degree": degree})
        assert str(raised.value) == f"schedule degree must be 4, got {shown}"

    def test_building_a_schedule_builds_no_pair(self, pairs):
        Schedule(F(3, 7), F(5, 2))
        Schedule.from_json({"alpha_scale": "2/1", "beta_scale": "1/3"})
        assert pairs == []

    def test_pair_traffic_is_counted_with_or_without_a_cache(self, pairs):
        # scales no other test uses, so a pair cache cannot hold this pair yet
        schedule = Schedule(F(10 ** 40 + 1, 3), F(7, 10 ** 40 + 3))
        first, second = schedule.pair_at(3), schedule.pair_at(3)
        assert [entry for entry in pairs if entry[0] == "pair_at"] == [("pair_at", 3)] * 2
        built = [pair for kind, pair in pairs if kind == "built"]
        assert 1 <= len(built) <= 2 and first in built and second == first

    @given(st.integers(1, 10 ** 12), st.integers(1, 10 ** 12), st.integers(1, 10 ** 12),
           st.integers(1, 10 ** 12), st.integers(1, 10 ** 6))
    @settings(max_examples=300, deadline=None)
    def test_every_pair_is_valid(self, u, v, s, t, n):
        """2*u^4*n^4/v^4 and 2*s^2/(t^2*n^2) are twice a rational square, so
        never a square themselves: no index of any schedule has a rational
        alpha_n^2 or beta_n, and `Schedule()` need not build a pair to find out."""
        pair = Schedule(F(u, v), F(s, t)).pair_at(n)
        assert pair.alpha.base == 2 * F(u * n, v) ** 4
        assert pair.beta.base == 2 * F(s, t * n) ** 2

    def test_least_n_with_alpha_above(self):
        s = DEFAULT_SCHEDULE
        assert s.least_n_with_alpha_above(F(0)) == 1
        assert s.least_n_with_alpha_above(F(5)) == 2   # 5 < 4*sqrt(2) ~ 5.657
        assert s.least_n_with_alpha_above(F(6)) == 3   # 6 > 4*sqrt(2)

    @pytest.mark.parametrize("schedule", [
        DEFAULT_SCHEDULE, Schedule(F(1, 3), F(2)), Schedule(F(5), F(1, 7))])
    def test_least_n_searches_match_linear_scans(self, schedule):
        for k in range(1, 400):
            bound = F(k % 37 + 1, k)
            n = 1
            while not schedule.pair_at(n).beta.base < bound * bound:
                n += 1
            assert schedule.least_n_with_beta_below(bound) == n
            norm_sq = F(k * k, k % 7 + 1)
            n = 1
            while not norm_sq * norm_sq < schedule.pair_at(n).alpha.base:
                n += 1
            assert schedule.least_n_with_alpha_above(norm_sq) == n

    @given(st.fractions(min_value=0, max_value=500, max_denominator=16))
    @settings(max_examples=200)
    def test_least_n_is_least(self, norm):
        s = DEFAULT_SCHEDULE
        n = s.least_n_with_alpha_above(norm)
        assert norm * norm < s.pair_at(n).alpha.base
        if n > 1:
            assert norm * norm > s.pair_at(n - 1).alpha.base


class TestPairCache:
    def test_pinned_traffic(self):
        """Hits and misses of a fixed lookup sequence, recorded when the cache
        was keyed on the Schedule object: two equal schedules share entries,
        a third does not, and 2 x 5000 live keys overflow the 4096 entries,
        so the second pass misses again (the cliff the benchmark's deep
        witness scans straddle)."""
        schedules = (Schedule(), Schedule(F(3, 3), F(2, 2)), Schedule(F(1, 3), 2))
        _cached_pair.cache_clear()
        for _ in range(2):
            for n in range(1, 5001):
                for schedule in schedules:
                    schedule.pair_at(n)
        info = _cached_pair.cache_info()
        assert (info.hits, info.misses, info.maxsize) == (10000, 20000, 4096)

    @pytest.mark.parametrize("a, b, c, d", [
        (F(1), F(1), F(1), F(2)), (F(1), F(1), F(2), F(1)),
        (F(2, 3), F(3, 2), F(3, 2), F(2, 3)), (F(1, 3), F(5, 7), F(1, 3), F(5, 11)),
        (F(5, 7), F(1, 3), F(5, 11), F(1, 3))])
    def test_key_tells_every_scale_integer_apart(self, a, b, c, d):
        _cached_pair.cache_clear()
        for n in (1, 2, 9):
            for schedule in (Schedule(a, b), Schedule(c, d)):
                pair = schedule.pair_at(n)
                a4 = 2 * schedule.alpha_scale ** 4 * F(n) ** 4
                b2 = 2 * schedule.beta_scale ** 2 / F(n) ** 2
                assert pair == AlphaBetaPair(RootValue(a4, 4), RootValue(b2, 2))
                assert pair.alpha.base == a4
                assert pair.beta.base == b2

    def test_stored_key_leaves_dataclass_behaviour_alone(self):
        """The scale integers ride in a field that is not an init argument
        and takes no part in ==, hash or repr."""
        fields = {f.name: f for f in dataclasses.fields(Schedule)}
        assert [name for name, f in fields.items()
                if f.init or f.compare or f.repr or f.hash] == ["alpha_scale",
                                                                 "beta_scale"]
        s = Schedule(F(1, 3), 2)
        assert repr(s) == "Schedule(alpha_scale=Fraction(1, 3), beta_scale=Fraction(2, 1))"
        assert hash(s) == hash((F(1, 3), F(2)))
        assert s == Schedule(F(2, 6), F(4, 2)) and s != Schedule(F(1, 3), 3)
        assert Schedule() == Schedule(F(3, 3), F(2, 2)) == DEFAULT_SCHEDULE
        assert hash(Schedule()) == hash(Schedule(F(3, 3), F(2, 2)))
        assert s.to_json() == {"alpha_scale": "1/3", "beta_scale": "2/1", "degree": 4}
        moved = dataclasses.replace(s, beta_scale=F(5))
        assert moved.pair_at(1).beta.base == 50


class TestPinnedThresholds:
    def test_pairs_and_bases(self):
        """sha256 over pair_at(n).to_json(), its alpha base and beta base on
        three schedules for n = 1..5000 and on 2000 seeded (scales, n) cases,
        recorded from the Fraction-power formulas: building the thresholds
        from the scale integers must give the same values."""

        def line(schedule, n):
            pair = schedule.pair_at(n)
            return (f"{json.dumps(pair.to_json(), sort_keys=True)} "
                    f"{pair.alpha.base} {pair.beta.base}")

        lines = []
        for schedule in (DEFAULT_SCHEDULE, Schedule(F(1, 3), F(2)), Schedule(F(5), F(1, 7))):
            lines.extend(line(schedule, n) for n in range(1, 5001))
        rng = random.Random(2607)

        def scale():
            return F(rng.randint(1, 10 ** rng.randint(0, 9)),
                     rng.randint(1, 10 ** rng.randint(0, 9)))

        for _ in range(2000):
            lines.append(line(Schedule(scale(), scale()), rng.randint(1, 10 ** 6)))
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == (
            "b645c781d7588cbe36fa6ef4ae9ee3627760b6890468d9e4b271ea3de01b004d")


class TestMemberships:
    def test_in_E_alpha_examples(self):
        alpha = DEFAULT_PAIR.alpha
        assert in_E_alpha(ZERO, alpha)
        assert not in_E_alpha(pt(2), alpha)
        assert in_E_alpha(pt(1), alpha)

    def test_in_A_examples(self):
        assert in_A(pt(1), DEFAULT_PAIR)
        assert not in_A(pt(2, 1), DEFAULT_PAIR)
        assert in_A(pt(2, F(1, 2)), DEFAULT_PAIR)

    def test_in_O_examples(self):
        assert in_O(ZERO, DEFAULT_SCHEDULE)
        assert in_O(pt(2, 1), DEFAULT_SCHEDULE)
        assert not in_O(pt(3, 1), DEFAULT_SCHEDULE)
        assert first_failing_n(pt(3, 1), DEFAULT_SCHEDULE) == 2

    @given(entry_strategy)
    @settings(max_examples=150)
    def test_in_A_matches_oracle(self, entries):
        x = Point(entries)
        assert in_A(x, DEFAULT_PAIR) == oracle.in_A(x.entries, F(2), F(1, 2))

    @given(entry_strategy)
    @settings(max_examples=60)
    def test_in_O_matches_oracle(self, entries):
        x = Point(entries)
        got = in_O(x, DEFAULT_SCHEDULE)
        assert got == oracle.in_O(x.entries,
                                  lambda n: F(2) * n ** 4,
                                  lambda n: F(2, n * n))

    @given(entry_strategy)
    @settings(max_examples=100)
    def test_in_O_finite_check_stability(self, entries):
        x = Point(entries)
        cutoff = DEFAULT_SCHEDULE.least_n_with_alpha_above(x.norm_sq())
        extended = all(in_A(x, DEFAULT_SCHEDULE.pair_at(n))
                       for n in range(1, cutoff + 11))
        assert in_O(x, DEFAULT_SCHEDULE) == extended

    @given(entry_strategy)
    @settings(max_examples=150)
    def test_claim1_ball_inside_A(self, entries):
        x = Point(entries)
        norm = x.norm_sq()
        if norm * norm < DEFAULT_PAIR.alpha.base:  # |x| < alpha
            assert in_A(x, DEFAULT_PAIR)


class TestClosednessRadius:
    def test_spec_example_components(self):
        cert = closedness_radius(pt(2, 1), DEFAULT_PAIR)
        assert cert.kind == CertificateKind.CLAIM2_R0
        assert cert.components["m"] == 1
        assert cert.components["l0"] == 2
        # the coordinate margin 1 - sqrt(1/2) ~ 0.2929 is the minimum
        assert oracle.cmp_value_vs_rational(
            oracle.terms_of_expr(cert.components["coordinate_margin"]),
            cert.bound) in ("gt", None)
        # frozen regression value: largest rational below 1 - sqrt(1/2)
        # with denominator <= 10^6 (oracle-checked above)
        assert cert.bound == F(275807, 941664)

    def test_prefix_margin_can_be_the_minimum(self):
        cert = closedness_radius(pt(2, 3), DEFAULT_PAIR)
        # min(3 - sqrt(1/2), 2 - 2^(1/4)) = 2 - 2^(1/4) ~ 0.8108
        assert oracle.cmp_exprs(
            oracle.terms_of_expr(cert.components["prefix_margin"]),
            oracle.terms_of_expr(cert.components["coordinate_margin"])) == "lt"
        assert cert.bound == F(343507, 423668)

    def test_requires_point_outside_A(self):
        with pytest.raises(PreconditionViolatedError):
            closedness_radius(pt(1), DEFAULT_PAIR)
        with pytest.raises(PreconditionViolatedError):
            closedness_radius(ZERO, DEFAULT_PAIR)

    def test_bound_certified_below_both_components(self):
        cert = closedness_radius(pt(2, 1), DEFAULT_PAIR)
        for key in ("coordinate_margin", "prefix_margin"):
            assert expr_value_le(cert.bound, cert.components[key])


class TestOpennessRadius:
    def test_case2_spec_example(self):
        cert = openness_radius(pt(2, F(1, 2)), DEFAULT_PAIR)
        assert cert.kind == CertificateKind.CLAIM3_R
        assert cert.components["m"] == 1
        assert cert.components["l0"] == 3
        assert cert.components["a"] == RootExpr.coerce(F(1))
        # minimum is h = beta - 1/2 ~ 0.2071
        assert cert.bound == F(40391, 195025)
        for key in ("prefix_margin", "beta_half", "h", "a"):
            assert expr_value_le(cert.bound, cert.components[key])

    def test_case1_margin_examples(self):
        cert = openness_radius(pt(1), DEFAULT_PAIR)
        assert cert.kind == CertificateKind.CLAIM1_MARGIN
        # bound < 2^(1/4) - 1 ~ 0.18921
        assert oracle.cmp_value_vs_rational(
            oracle.terms_of_expr(cert.components["ball_margin"]),
            cert.bound) in ("gt", None)
        zero_cert = openness_radius(ZERO, DEFAULT_PAIR)
        assert zero_cert.kind == CertificateKind.CLAIM1_MARGIN
        assert F(118, 100) < zero_cert.bound < F(119, 100)  # just under alpha

    def test_sentinel_only_when_m_is_1(self):
        cert = openness_radius(pt(1, 1, F(1, 3)), DEFAULT_PAIR)  # m = 2
        assert cert.components["m"] == 2
        assert cert.components["a"] != RootExpr.coerce(F(1))

    def test_requires_point_inside_A(self):
        with pytest.raises(PreconditionViolatedError):
            openness_radius(pt(2, 1), DEFAULT_PAIR)


class TestOpennessL0:
    """l0 comes from one pass over the support; the definition steps l
    upward until the tail sum of squares from l drops below (beta/2)^2."""

    PAIRS = (DEFAULT_PAIR,
             AlphaBetaPair(RootValue(F(2), 4), RootValue(F(8), 2)),
             AlphaBetaPair(RootValue(F(1, 3), 4), RootValue(F(3), 2)))

    @staticmethod
    def stepwise_l0(x: Point, pair: AlphaBetaPair) -> int:
        quarter_beta_sq = pair.beta.base / 4
        l0 = 1
        while x.norm_sq() - x.prefix_norm_sq(l0 - 1) >= quarter_beta_sq:
            l0 += 1
        return l0

    @given(entry_strategy)
    @settings(max_examples=300)
    def test_matches_stepwise_definition(self, entries):
        x = Point(entries)
        for pair in self.PAIRS:
            if in_E_alpha(x, pair.alpha) or not in_A(x, pair):
                continue
            cert = openness_radius(x, pair)
            assert cert.components["l0"] == self.stepwise_l0(x, pair)

    def test_far_index_is_fast(self):
        near = Point({1: F(3), 5: F(1, 2)})
        assert openness_radius(near, DEFAULT_PAIR).components["l0"] == 6
        assert self.stepwise_l0(near, DEFAULT_PAIR) == 6
        far = 10 ** 12
        started = time.perf_counter()
        cert = openness_radius(Point({1: F(3), far: F(1, 2)}), DEFAULT_PAIR)
        assert time.perf_counter() - started < 1.0
        assert cert.components["l0"] == far + 1


class TestOOpennessRadius:
    def test_spec_examples(self):
        zero_cert = o_openness_radius(ZERO, DEFAULT_SCHEDULE)
        assert zero_cert.kind == CertificateKind.CLAIM4_W
        assert zero_cert.components["n0"] == 1
        assert F(118, 100) < zero_cert.bound < F(119, 100)

        cert = o_openness_radius(pt(2, 1), DEFAULT_SCHEDULE)
        assert cert.components["n0"] == 2
        # ball margin alpha_2 - sqrt(5) ~ 0.1423 is the minimum
        assert F(14, 100) < cert.bound < F(15, 100)
        assert expr_value_le(cert.bound, cert.components["ball_margin"])

    def test_requires_point_inside_O(self):
        with pytest.raises(PreconditionViolatedError):
            o_openness_radius(pt(3, 1), DEFAULT_SCHEDULE)

    def test_decides_membership_in_its_per_n_loop(self, monkeypatch):
        """x lies in every A-set from n0 on, so the per-n certificates
        decide O membership and no first_failing_n call repeats it."""
        calls = []
        original = clopen.first_failing_n
        monkeypatch.setattr(clopen, "first_failing_n",
                            lambda *args: calls.append(args) or original(*args))
        assert o_openness_radius(pt(2, 1), DEFAULT_SCHEDULE).components["n0"] == 2
        with pytest.raises(PreconditionViolatedError):
            o_openness_radius(pt(3, 1), DEFAULT_SCHEDULE)
        assert calls == []


class TestBoundsThroughPublicFunctions:
    """Every certificate reads its bound through `largest_rational_at_most`,
    and takes a minimum through `expr_min`, the functions a trace sees."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        calls = {"expr_min": 0, "largest_rational_at_most": 0}
        for name in calls:
            original = getattr(clopen, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(clopen, name, counted)
        return calls

    @pytest.mark.parametrize("radius, x, kind", [
        (closedness_radius, pt(2, 1), CertificateKind.CLAIM2_R0),
        (openness_radius, pt(2, F(1, 2)), CertificateKind.CLAIM3_R),
    ], ids=["closed", "open"])
    def test_certificate_with_m_makes_one_call_to_each(self, calls, radius, x, kind):
        assert radius(x, DEFAULT_PAIR).kind == kind
        assert calls == {"expr_min": 1, "largest_rational_at_most": 1}

    def test_claim1_margin_takes_no_minimum(self, calls):
        assert openness_radius(pt(1), DEFAULT_PAIR).kind == CertificateKind.CLAIM1_MARGIN
        assert calls == {"expr_min": 0, "largest_rational_at_most": 1}


class TestEnclosureWorkPerCertificate:
    def test_root_enclosure_lookups_are_pinned(self):
        """`_root_enclosure` lookups (hits + misses) made by the closed, open
        and O-open certificates of 100 seed-42 points, recorded once and
        pinned: the enclosure a minimum built is reused by its bound, and
        none is computed twice."""
        def lookups():
            info = exact._root_enclosure.cache_info()
            return info.hits + info.misses

        config = SampleConfig(seed=42, count=100)
        counts = {"closed": 0, "open": 0, "o-open": 0}
        made = dict.fromkeys(counts, 0)
        for draw in range(config.count):
            x = sample_point(config, draw)
            side = "open" if in_A(x, DEFAULT_PAIR) else "closed"
            radius = openness_radius if side == "open" else closedness_radius
            certify = [(side, lambda: radius(x, DEFAULT_PAIR))]
            if in_O(x, DEFAULT_SCHEDULE):
                certify.append(("o-open", lambda: o_openness_radius(x, DEFAULT_SCHEDULE)))
            for kind, build in certify:
                before = lookups()
                build()
                counts[kind] += lookups() - before
                made[kind] += 1
        assert made == {"closed": 54, "open": 46, "o-open": 59}
        assert counts == {"closed": 130, "open": 109, "o-open": 282}


@pytest.mark.parametrize("value, expected", [
    (F(2, 9), [2, 2]),  # not a square: is_rational_power, then RootValue
    (F(8, 3), [8, 8]),
    (F(4, 9), [4, 9]),  # a square: is_rational_power's two roots only
])
def test_sqrt_expr_root_counts(roots, value, expected):
    """The roots `sqrt_expr` takes: a square is decided by
    `is_rational_power` alone, a non-square's numerator root is taken
    again by `RootValue`."""
    result = clopen.sqrt_expr(value)
    assert roots == expected
    assert result == (RootExpr.coerce(F(2, 3)) if value == F(4, 9)
                      else RootExpr.coerce(RootValue(value, 2)))


class TestPinnedCertificateBounds:
    def test_bounds_on_sampled_points(self):
        """sha256 of the certified bounds of 300 seed-42 points, recorded
        once and pinned: a faster search must choose the same rationals."""
        config = SampleConfig(seed=42, count=300)
        lines = []
        for draw in range(config.count):
            x = sample_point(config, draw)
            radius = openness_radius if in_A(x, DEFAULT_PAIR) else closedness_radius
            line = f"{draw} {radius(x, DEFAULT_PAIR).bound}"
            if in_O(x, DEFAULT_SCHEDULE):
                line += f" {o_openness_radius(x, DEFAULT_SCHEDULE).bound}"
            lines.append(line)
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == (
            "b684c0c46ed9160dea1cd53b71b29f32439d700385450eefd2970b75c84df046")

    def test_certificate_json_on_sampled_points(self):
        """sha256 of every certificate's JSON, components included, on the
        same 300 seed-42 points: the bound and the expressions `expr_min`
        picks for h, prefix_margin and ball_margin. Recorded once, pinned."""
        config = SampleConfig(seed=42, count=300)
        third = Schedule(F(1, 3), F(2))
        lines = []
        made = {"open": 0, "closed": 0, DEFAULT_SCHEDULE: 0, third: 0}
        for draw in range(config.count):
            x = sample_point(config, draw)
            side = "open" if in_A(x, DEFAULT_PAIR) else "closed"
            radius = openness_radius if side == "open" else closedness_radius
            certs = [radius(x, DEFAULT_PAIR)]
            made[side] += 1
            for schedule in (DEFAULT_SCHEDULE, third):
                if in_O(x, schedule):
                    certs.append(o_openness_radius(x, schedule))
                    made[schedule] += 1
            lines.append(f"{draw} " + " ".join(
                json.dumps(cert.to_json(), separators=(",", ":")) for cert in certs))
        assert min(made.values()) > 0
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == (
            "6504b41e86a27155ef50e78e863f5ede945a7630c059e1dcf581e108bb2b27af")


class TestRadiusCertificate:
    @pytest.mark.parametrize("bound", [F(0), F(-1, 3)])
    def test_rejects_non_positive_bounds(self, bound):
        with pytest.raises(ValueError, match="must be positive"):
            RadiusCertificate(CertificateKind.CLAIM2_R0, bound, {})


class TestCertificateNeighborhoods:
    """Local-certificate property tests: sampled in-radius perturbations
    preserve the certified membership."""

    @staticmethod
    def _perturb(base: Point, bound: F, k: int) -> Point:
        from erdos_clopen.harness import SplitMix64, perturb_within, SampleConfig
        return perturb_within(base, bound, SplitMix64(k),
                              SampleConfig(seed=k, count=1))

    @given(entry_strategy, st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=120, deadline=None)
    def test_closedness_certificate_locally_excludes(self, entries, k):
        z = Point(entries)
        if in_A(z, DEFAULT_PAIR):
            return
        cert = closedness_radius(z, DEFAULT_PAIR)
        assert cert.bound > 0
        y = self._perturb(z, cert.bound, k)
        assert not in_A(y, DEFAULT_PAIR)

    @given(entry_strategy, st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=120, deadline=None)
    def test_openness_certificate_locally_includes(self, entries, k):
        x = Point(entries)
        if not in_A(x, DEFAULT_PAIR):
            return
        cert = openness_radius(x, DEFAULT_PAIR)
        assert cert.bound > 0
        y = self._perturb(x, cert.bound, k)
        assert in_A(y, DEFAULT_PAIR)

    @given(entry_strategy, st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_o_certificates_both_sides(self, entries, k):
        x = Point(entries)
        if in_O(x, DEFAULT_SCHEDULE):
            cert = o_openness_radius(x, DEFAULT_SCHEDULE)
            y = self._perturb(x, cert.bound, k)
            assert in_O(y, DEFAULT_SCHEDULE)
        else:
            n_bad = first_failing_n(x, DEFAULT_SCHEDULE)
            cert = closedness_radius(x, DEFAULT_SCHEDULE.pair_at(n_bad))
            y = self._perturb(x, cert.bound, k)
            assert not in_O(y, DEFAULT_SCHEDULE)
