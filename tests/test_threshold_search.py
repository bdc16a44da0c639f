"""The first-exceedance position, decided by one product when the whole
norm stays below alpha and otherwise by one integer root and one
bisection, the beta test, by one integer root, the openness certificate's
h, chosen by one integer comparison, and the first failing schedule index,
found by runs of constant m that end at the first index with no m, against
the scans they replaced and against the interval oracle.

The scans below are the earlier implementations, kept verbatim (on the
point's integer internals) as independent references: one product per
support position, no integer root, no bisection; h as the exact minimum
of one expression per position up to l0; one `in_A` per schedule index
below the cutoff. So are the root-first position search and the run
search bounded by an up-front cutoff root, which bisected a whole failing
run (`reference_m_position`, `reference_first_failing_n`), and the run
search that built a threshold pair per tested index and galloped inside a
failing run (`gallop_first_failing_n`).
"""

import json
from bisect import bisect_right
from fractions import Fraction as F
from math import gcd, isqrt
from typing import Optional

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from erdos_clopen import cli, clopen, exact, space, witness
from erdos_clopen.exact import (
    RootExpr,
    RootValue,
    expr_min,
    floor_root,
    is_rational_power,
    largest_rational_at_most,
)
from erdos_clopen.space import Point, _m_position, m_index, scale
from erdos_clopen.clopen import (
    DEFAULT_DEN_CAP,
    AlphaBetaPair,
    CertificateKind,
    RadiusCertificate,
    Schedule,
    _violation_past,
    closedness_radius,
    first_failing_n,
    first_violating_index,
    in_A,
    in_O,
    o_openness_radius,
    openness_radius,
    sqrt_expr,
)
from erdos_clopen.witness import VSpec, construct_witness, ray_source

import oracle
from test_cli import run_cli


def scan_m_index(x: Point, alpha: RootValue):
    base = alpha.base
    bd = base.denominator
    target = base.numerator * x._den_sq * x._den_sq
    for index, p in zip(x.support, x._prefix_sq):
        if p * p * bd > target:
            return index
    return None


def scan_first_violating_index(x: Point, pair: AlphaBetaPair):
    m = scan_m_index(x, pair.alpha)
    if m is None:
        return None
    beta_sq = pair.beta.base
    bn, bd = beta_sq.numerator, beta_sq.denominator
    target = bn * x._den_sq
    for index, n in zip(x.support, x._nums):
        if index > m and n * n * bd > target:
            return index
    return None


def scan_openness_l0(x: Point, beta_sq: F) -> int:
    quarter_beta_sq = beta_sq / 4
    return next(index + 1 for index in (0,) + x.support
                if x.norm_sq() - x.prefix_norm_sq(index) < quarter_beta_sq)


def scan_openness_h(x: Point, pair: AlphaBetaPair, l0: int) -> RootExpr:
    beta_sq = pair.beta.base
    h_candidates = []
    covered = set()
    for index, value in x.entries:
        if index > l0:
            break
        covered.add(index)
        if value * value < beta_sq:
            h_candidates.append(RootExpr.coerce(pair.beta) - RootExpr.coerce(abs(value)))
        else:
            h_candidates.append(RootExpr.coerce(abs(value)) - RootExpr.coerce(pair.beta))
    if len(covered) < l0:  # some position <= l0 carries a zero coordinate
        h_candidates.append(RootExpr.coerce(pair.beta))
    return expr_min(*h_candidates)


def scan_openness_json(x: Point, pair: AlphaBetaPair) -> dict:
    """The Claim 3 certificate of a point of A whose m exists, every index
    found by the scans above and h by `scan_openness_h`."""
    m = scan_m_index(x, pair.alpha)
    l0 = scan_openness_l0(x, pair.beta.base)
    beta_half = RootExpr([(F(1, 2), pair.beta)])
    h_expr = scan_openness_h(x, pair, l0)
    if m == 1:
        a_expr = RootExpr.coerce(F(1))
    else:
        a_expr = RootExpr.coerce(pair.alpha) - sqrt_expr(x.prefix_norm_sq(m - 1))
    prefix_margin = sqrt_expr(x.prefix_norm_sq(m)) - RootExpr.coerce(pair.alpha)
    radius = expr_min(prefix_margin, beta_half, h_expr, a_expr)
    return RadiusCertificate(
        kind=CertificateKind.CLAIM3_R,
        bound=largest_rational_at_most(radius, DEFAULT_DEN_CAP),
        components={"m": m, "l0": l0, "prefix_margin": prefix_margin,
                    "beta_half": beta_half, "h": h_expr, "a": a_expr},
    ).to_json()


def scan_o_openness_margin_and_bound(x: Point, schedule: Schedule):
    """The alpha_n0 ball margin and the O-openness bound, the margin
    certified on its own as well as through the n0 certificate."""
    n0 = schedule.least_n_with_alpha_above(x.norm_sq())
    bound = None
    for n in range(1, n0 + 1):
        cert = openness_radius(x, schedule.pair_at(n))
        bound = cert.bound if bound is None else min(bound, cert.bound)
    ball_margin = (RootExpr.coerce(schedule.pair_at(n0).alpha)
                   - sqrt_expr(x.norm_sq()))
    ball_bound = largest_rational_at_most(ball_margin, DEFAULT_DEN_CAP)
    bound = ball_bound if bound is None else min(bound, ball_bound)
    return ball_margin, bound


def non_square(value: F) -> bool:
    return is_rational_power(value, 2) is None


SCHEDULES = (Schedule(), Schedule(F(1, 3), 2), Schedule(5, F(1, 7)))
BIG = 10 ** 30

# 30-digit numerators and denominators; the value's magnitude ranges from
# about 10^-30 to 10^30
wide_coordinate = st.builds(F, st.integers(-BIG, BIG).filter(bool), st.integers(1, BIG))
# 30-digit numerators and denominators, magnitude at most 1
unit_coordinate = st.builds(lambda q, p: F(p % (2 * q + 1) - q or 1, q),
                            st.integers(1, BIG), st.integers(0, 10 ** 31))


def points(coordinate, max_index=120):
    """Narrow points (empty and one-entry ones included) and wide ones,
    with 16 to 64 entries, in equal measure."""
    entries = st.tuples(st.integers(1, max_index), coordinate)
    return st.one_of(
        st.lists(entries, max_size=3, unique_by=lambda t: t[0]),
        st.lists(entries, min_size=16, max_size=64, unique_by=lambda t: t[0]),
    ).map(Point)


@st.composite
def decaying_points(draw):
    """Points whose j-th coordinate is at most lead/j in magnitude, so the
    schedule cutoff stays small enough for the oracle's per-n scan and
    the first failing n varies."""
    x = draw(points(unit_coordinate, max_index=150))
    lead = draw(st.sampled_from((1, 3, 10, 30)))
    return Point({i: v * lead / j for j, (i, v) in enumerate(x.entries, 1)})


ONE_ENTRY = Point({7: F(10 ** 29 + 7, 3 * 10 ** 28 + 1)})


@st.composite
def point_and_bases(draw):
    """A point and (alpha^4, beta^2) bases placed near its own prefix sums
    and coordinates, so m and the violating index fall inside the support."""
    x = draw(points(wide_coordinate))
    den_sq = F(x._den_sq)
    if x.support and draw(st.booleans()):
        k = draw(st.integers(0, len(x.support) - 1))
        prefix = x._prefix_sq[k] / den_sq
        alpha4 = prefix * prefix * draw(st.fractions(F(1, 2), 2, max_denominator=1000))
    else:
        alpha4 = draw(st.fractions(F(1, 10 ** 6), 10 ** 6, max_denominator=10 ** 9))
    if x.support and draw(st.booleans()):
        k = draw(st.integers(0, len(x.support) - 1))
        coord_sq = x._nums[k] ** 2 / den_sq
        beta2 = coord_sq * draw(st.fractions(F(1, 2), 2, max_denominator=1000))
    else:
        beta2 = draw(st.fractions(F(1, 10 ** 6), 10 ** 6, max_denominator=10 ** 9))
    # a square base is nudged off the square by one part in 10^12
    alpha4 = alpha4 if non_square(alpha4) else alpha4 * (1 + F(1, 10 ** 12))
    beta2 = beta2 if non_square(beta2) else beta2 * (1 + F(1, 10 ** 12))
    return x, alpha4, beta2


# points whose support is 1..k: no position up to the last is empty
contiguous_points = st.lists(wide_coordinate, min_size=1, max_size=8).map(
    lambda values: Point(enumerate(values, 1)))


@st.composite
def openness_cases(draw):
    """A nonzero point with alpha^2 placed between two of its prefix sums
    (so m exists) and beta^2 near one of its squared coordinates but above
    every squared coordinate past m (so the point is in A): the
    coordinates up to l0 fall on both sides of beta."""
    x = draw(st.one_of(points(wide_coordinate), contiguous_points).filter(
        lambda p: not p.is_zero()))
    den_sq = F(x._den_sq)
    k = draw(st.integers(0, len(x.support) - 1))
    low = x._prefix_sq[k - 1] if k else 0
    t = draw(st.fractions(F(1, 1000), F(999, 1000), max_denominator=1000))
    alpha_sq = (low + t * (x._prefix_sq[k] - low)) / den_sq
    alpha4 = alpha_sq * alpha_sq * F(10 ** 12 + 1, 10 ** 12)  # never a square
    m = scan_m_index(x, RootValue(alpha4, 4))
    assume(m is not None)
    j = draw(st.integers(0, len(x.support) - 1))
    beta2 = x._nums[j] ** 2 / den_sq * draw(st.fractions(F(1, 2), 2, max_denominator=1000))
    past_m = [n * n for i, n in zip(x.support, x._nums) if i > m]
    if past_m:
        beta2 = max(beta2, max(past_m) / den_sq * F(10 ** 9 + 1, 10 ** 9))
    beta2 = beta2 if non_square(beta2) else beta2 * (1 + F(1, 10 ** 12))
    return x, alpha4, beta2


def oracle_first_failing_n(x: Point, schedule: Schedule):
    """Least n with x outside the n-th A-set, scanning n while the norm
    exceeds alpha_n^2, decided by the interval oracle alone."""
    a, b = schedule.alpha_scale, schedule.beta_scale
    norm = x.norm_sq()
    n = 1
    while oracle.cmp_rational_vs_root(norm, 2 * a ** 4 * n ** 4, 2) == "gt":
        if not oracle.in_A(x.entries, 2 * a ** 4 * n ** 4, 2 * b * b / (n * n)):
            return n
        n += 1
    return None


def scan_first_failing_n(x: Point, schedule: Schedule) -> Optional[int]:
    """Least schedule index whose A-set excludes x; None when x is in O."""
    cutoff = schedule.least_n_with_alpha_above(x.norm_sq())
    for n in range(1, cutoff):
        if not in_A(x, schedule.pair_at(n)):
            return n
    return None


def runs_of_m(x: Point, schedule: Schedule) -> list:
    """[m, first n, last n] for each run of constant m_n below the cutoff,
    with m_n found by `scan_m_index`."""
    runs = []
    for n in range(1, schedule.least_n_with_alpha_above(x.norm_sq())):
        m = scan_m_index(x, schedule.pair_at(n).alpha)
        if runs and runs[-1][0] == m:
            runs[-1][2] = n
        else:
            runs.append([m, n, n])
    return runs


@st.composite
def run_points(draw):
    """Up to eight coordinates of one magnitude s (each between 5s/8 and
    11s/8), so the prefix sums grow about linearly against alpha_n^2's
    quadratic growth: the indices below the cutoff fall into runs of
    constant m_n of several lengths, and x can leave A_n in the first run,
    a later one or none."""
    s = draw(st.sampled_from((F(1, 4), F(1, 2), F(1), F(2), F(4))))
    indices = draw(st.lists(st.integers(1, 12), max_size=8, unique=True))
    values = st.integers(5, 11).flatmap(lambda k: st.sampled_from((k, -k)))
    return Point({i: s * F(draw(values), 8) for i in indices})


# (point, schedule, its runs of constant m_n as [m, first n, last n], its
# first failing n); `TestRunsOfConstantM` checks each line
RUN_CASES = (
    # the empty point, and a nonzero one: cutoff 1, no run
    (Point(), SCHEDULES[0], [], None),
    (Point({1: F(1)}), SCHEDULES[0], [], None),
    # runs of length 1, passing throughout or failing in the third
    (Point({3: F(-1, 2), 4: F(-1), 5: F(-1)}), SCHEDULES[1],
     [[3, 1, 1], [4, 2, 2], [5, 3, 3]], None),
    (Point({3: F(1, 2), 4: F(9, 10), 6: F(2, 3), 7: F(21, 16)}), SCHEDULES[1],
     [[3, 1, 1], [4, 2, 2], [6, 3, 3], [7, 4, 4]], 3),
    # the first index of a run fails; so does the last index of a run
    (Point({1: F(-3, 4), 4: F(1), 5: F(8, 3)}), SCHEDULES[1],
     [[1, 1, 1], [4, 2, 3], [5, 4, 7]], 2),
    (Point({2: F(-3, 5), 3: F(-9, 4), 7: F(2, 3)}), SCHEDULES[1],
     [[2, 1, 1], [3, 2, 5], [7, 6, 6]], 5),
    # the first run (two indices) passes and only the next one fails
    (Point({2: F(-1), 5: F(5, 4), 7: F(-7, 9)}), SCHEDULES[1],
     [[2, 1, 2], [5, 3, 4]], 4),
    # alpha_2^2 = 4*sqrt(2) ~ 5.66 < 25/4 and the norm < alpha_3^2 ~ 12.7:
    # the run ends exactly at the cutoff 3, passing or failing at 2
    (Point({1: F(5, 2), 2: F(1, 2)}), SCHEDULES[0], [[1, 1, 2]], None),
    (Point({1: F(5, 2), 2: F(1)}), SCHEDULES[0], [[1, 1, 2]], 2),
    # D = 37 and floor(alpha_4^2 * D^2) = 176^2: the prefix sum 176^2 stays
    # below alpha_4^2 and m_4 moves on to 14/37, past which nothing is
    # tested; one unit more exceeds alpha_4^2 and 14/37 > beta_4 is tested
    (Point({1: F(176, 37), 3: F(14, 37)}), SCHEDULES[0],
     [[1, 1, 3], [3, 4, 4]], None),
    (Point({1: F(176, 37), 2: F(1, 37), 3: F(14, 37)}), SCHEDULES[0],
     [[1, 1, 3], [2, 4, 4]], 4),
)


def with_run_cases(test):
    """Add every RUN_CASES point and schedule as an explicit example."""
    for x, schedule, _, _ in RUN_CASES:
        test = example(x, schedule)(test)
    return test


class TestAgainstLinearScans:
    @given(point_and_bases())
    @example((Point(), F(2), F(1, 2)))
    @example((ONE_ENTRY, F(10), F(1, 2)))
    @example((ONE_ENTRY, F(1000), F(1, 2)))
    @settings(max_examples=400, deadline=None)
    def test_m_index_and_violating_index(self, case):
        x, alpha4, beta2 = case
        pair = AlphaBetaPair(RootValue(alpha4, 4), RootValue(beta2, 2))
        assert m_index(x, pair.alpha) == scan_m_index(x, pair.alpha)
        assert first_violating_index(x, pair) == scan_first_violating_index(x, pair)

    @given(point_and_bases())
    @settings(max_examples=200, deadline=None)
    def test_certificate_indices(self, case):
        x, alpha4, beta2 = case
        pair = AlphaBetaPair(RootValue(alpha4, 4), RootValue(beta2, 2))
        m = scan_m_index(x, pair.alpha)
        if m is None:
            return
        if scan_first_violating_index(x, pair) is None:
            components = openness_radius(x, pair).components
            assert components["l0"] == scan_openness_l0(x, beta2)
        else:
            components = closedness_radius(x, pair).components
            assert components["l0"] == scan_first_violating_index(x, pair)
        assert components["m"] == m


    @given(openness_cases())
    @example((Point({2: F(5)}), F(2), F(1, 2)))
    @example((Point({1: F(5), 2: F(1, 2)}), F(2), F(1, 2)))
    @settings(max_examples=300, deadline=None)
    def test_openness_certificate(self, case):
        x, alpha4, beta2 = case
        pair = AlphaBetaPair(RootValue(alpha4, 4), RootValue(beta2, 2))
        assert openness_radius(x, pair).to_json() == scan_openness_json(x, pair)

    @given(decaying_points(), st.sampled_from(SCHEDULES))
    @example(Point(), SCHEDULES[0])
    @example(Point({1: F(2), 2: F(1)}), SCHEDULES[0])
    @settings(max_examples=200, deadline=None)
    def test_o_openness_ball_margin_and_bound(self, x, schedule):
        assume(in_O(x, schedule))
        cert = o_openness_radius(x, schedule)
        ball_margin, bound = scan_o_openness_margin_and_bound(x, schedule)
        assert cert.components["ball_margin"].to_json() == ball_margin.to_json()
        assert cert.bound == bound


class TestAgainstOracle:
    @given(point_and_bases())
    @example((Point(), F(2), F(1, 2)))
    @example((ONE_ENTRY, F(10), F(1, 2)))
    @settings(max_examples=100, deadline=None)
    def test_m_index_violating_index_in_A(self, case):
        x, alpha4, beta2 = case
        pair = AlphaBetaPair(RootValue(alpha4, 4), RootValue(beta2, 2))
        m = m_index(x, pair.alpha)
        assert m == oracle.m_index(x.entries, alpha4)
        violating = first_violating_index(x, pair)
        if m is None:
            assert violating is None
        else:
            expected = next((i for i, v in x.entries if i > m and oracle.cmp_rational_vs_root(
                abs(v), beta2, 2) == "gt"), None)
            assert violating == expected
        assert in_A(x, pair) == oracle.in_A(x.entries, alpha4, beta2)

    @given(decaying_points(), st.sampled_from(SCHEDULES))
    @example(Point(), SCHEDULES[0])
    @example(Point({3: F(2 * 10 ** 29 + 1, 10 ** 29)}), SCHEDULES[1])
    @settings(max_examples=300, deadline=None)
    def test_first_failing_n(self, x, schedule):
        assert first_failing_n(x, schedule) == oracle_first_failing_n(x, schedule)


class TestRunsOfConstantM:
    """`first_failing_n` tests each run of constant m_n at its last index and
    bisects inside the one that fails; the scan tests every index."""

    @given(st.one_of(run_points(), decaying_points()), st.sampled_from(SCHEDULES))
    @with_run_cases
    @settings(max_examples=500, deadline=None)
    def test_against_scan_and_oracle(self, x, schedule):
        expected = scan_first_failing_n(x, schedule)
        assert first_failing_n(x, schedule) == expected
        assert oracle_first_failing_n(x, schedule) == expected

    def test_run_cases(self):
        for x, schedule, runs, failing in RUN_CASES:
            assert runs_of_m(x, schedule) == runs
            assert first_failing_n(x, schedule) == scan_first_failing_n(x, schedule) == failing

    def test_prefix_sums_one_unit_either_side_of_alpha_4(self):
        # the last two RUN_CASES points: numerators over D = 37 with prefix
        # sums 176^2 = floor(alpha_4^2 * D^2) and 176^2 + 1
        alpha4 = SCHEDULES[0].pair_at(4).alpha.base
        floor_alpha_sq = isqrt(alpha4.numerator * 37 ** 4 // alpha4.denominator)
        assert floor_alpha_sq == 176 ** 2
        below, above = RUN_CASES[-2][0], RUN_CASES[-1][0]
        assert below._den == above._den == 37
        assert below._prefix_sq[0] == floor_alpha_sq
        assert above._prefix_sq[1] == floor_alpha_sq + 1


@pytest.fixture()
def searches(roots, monkeypatch):
    """(support size, roots taken) of every `first_failing_n` call, wherever
    the library makes it."""
    calls = []
    search = clopen.first_failing_n

    def counted(x, schedule):
        before = len(roots)
        result = search(x, schedule)
        calls.append((len(x.support), len(roots) - before))
        return result

    for module in (clopen, witness, cli):
        monkeypatch.setattr(module, "first_failing_n", counted)
    return calls


class TestCostByRuns:
    """Deciding O takes at most two integer roots per support position (one
    `_m_position` and one tail bound per run visited) and looks up no
    threshold pair, whatever the coordinates' values and however deep the
    failing index lies in a run."""

    def test_thirty_digit_coordinate(self, roots, pairs):
        x = Point({1: F(10 ** 30), 5: F(1, 3)})
        failing = first_failing_n(x, SCHEDULES[0])
        assert (pairs, len(roots)) == ([], 2)
        assert failing == 5 == scan_first_failing_n(x, SCHEDULES[0])

    @pytest.mark.parametrize("failing", [2, 3, 17, 1000, 10 ** 6, 10 ** 12])
    def test_failing_index_deep_in_a_long_run(self, roots, pairs, failing):
        # beta_n = sqrt(2)/n, and c = sqrt(2)/(failing - 1/2) to 40 digits
        # lies between beta_failing and beta_(failing - 1)
        c = F(isqrt(8 * 10 ** 80), 10 ** 40 * (2 * failing - 1))
        schedule = SCHEDULES[0]
        x = Point({1: F(10 ** 30), 5: c})
        found = first_failing_n(x, schedule)
        # the run of m = 1 is about 8 * 10^29 indices long: its tail bound
        # is the failing index, with no search inside the run
        assert (pairs, len(roots)) == ([], 2)
        assert found == failing
        assert in_A(x, schedule.pair_at(failing - 1))
        assert not in_A(x, schedule.pair_at(failing))

    def test_witness_at_m_star_1414215(self, searches):
        schedule = SCHEDULES[0]
        record = construct_witness(VSpec(F(1, 10 ** 6), ray_source()), schedule)
        assert record.m_star == 1414215
        assert record.failing_n == record.m_star
        assert all(check["holds"] for check in record.checks)
        assert searches and all(taken <= 2 * size for size, taken in searches)

    def test_check_set_O_on_a_large_coordinate(self, capsys, tmp_path, searches):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"coords": {"1": "100000"}}))
        code, out, _ = run_cli(capsys, "check", "--point", str(path), "--set", "O",
                               "--schedule", "default")
        assert code == 0
        document = json.loads(out)
        assert document["member"] and document["trace"]["alpha_cutoff"] == 84090
        assert searches == [(1, 1)]  # m_1 is the only coordinate: no tail to bound

    @given(st.one_of(run_points(), decaying_points(), points(wide_coordinate)),
           st.sampled_from(SCHEDULES))
    @settings(max_examples=300, deadline=None)
    def test_two_roots_per_support_position(self, x, schedule):
        calls = []

        def counted(n):
            calls.append(n)
            return isqrt(n)

        with pytest.MonkeyPatch.context() as patch:
            for module in (space, clopen, exact):
                patch.setattr(module, "isqrt", counted)
            first_failing_n(x, schedule)
        assert len(calls) <= 2 * len(x.support)


class TestExactBoundaries:
    """Thresholds met with equality in the integers: the root of the
    floored scaled base equals a prefix sum or a numerator exactly."""

    # squared numerators 9, 16, 49, 1 give prefix sums 9, 25, 74, 75; D = 7
    X = Point._from_ints((2, 3, 5, 9), (3, -4, 7, 1), 7)
    SCALES = (3, 10, 10 ** 9 + 7)

    @staticmethod
    def base_with_floor(floor_value: int, den: int, scale: int) -> F:
        """A base b that is not a rational square with floor(b * den) ==
        floor_value, and a denominator that does not divide den."""
        for s in range(1, scale):
            base = F(floor_value * scale + s, den * scale)
            if non_square(base):
                return base
        raise AssertionError("no non-square base found")

    def test_prefix_equal_to_root_is_not_an_exceedance(self):
        x = self.X
        d4 = x._den_sq ** 2
        for k, prefix in enumerate(x._prefix_sq):
            # isqrt(bn * D^4 // bd) == prefix for floors prefix^2 ... prefix^2 + 2*prefix
            for floor_value in (prefix * prefix, prefix * prefix + 1, (prefix + 1) ** 2 - 1):
                for scale in self.SCALES:
                    base = self.base_with_floor(floor_value, d4, scale)
                    assert isqrt(base.numerator * d4 // base.denominator) == prefix
                    alpha = RootValue(base, 4)
                    expected = x.support[k + 1] if k + 1 < len(x.support) else None
                    assert m_index(x, alpha) == expected == scan_m_index(x, alpha)
                    assert expected == oracle.m_index(x.entries, base)

    def test_bases_one_unit_either_side_of_a_crossing(self):
        # prefix P crosses alpha^2 when bn * D^4 == P^2 * bd; step bn one
        # unit below and above that, for several bd
        x = self.X
        d4 = x._den_sq ** 2
        checked = 0
        for k, prefix in enumerate(x._prefix_sq):
            for bd in (1, 2, 3, 5, 10 ** 9 + 7):
                crossing = prefix * prefix * bd
                for bn in (crossing // d4, crossing // d4 + 1, crossing // d4 - 1):
                    base = F(bn, bd)
                    if bn < 1 or not non_square(base):
                        continue
                    alpha = RootValue(base, 4)
                    expected = oracle.m_index(x.entries, base)
                    assert m_index(x, alpha) == expected == scan_m_index(x, alpha)
                    checked += 1
        assert checked >= 40

    def test_numerator_equal_to_root_does_not_violate(self):
        # m = 1 (40/3 is far above alpha); the coordinates after it have
        # numerators c and c + 1 over D = 3, and beta^2 = bn/bd is placed so
        # that isqrt(bn * D^2 // bd) == c: |c| is inside, c + 1 violates
        alpha = RootValue(F(2), 4)
        for c in (1, 5, 12):
            for sign in (1, -1):
                x = Point._from_ints((1, 4, 6), (40, sign * c, sign * (c + 1)), 3)
                inside = Point._from_ints((1, 4), (40, sign * c), 3)
                for floor_value in (c * c, c * c + 1, (c + 1) ** 2 - 1):
                    for scale in self.SCALES:
                        base = self.base_with_floor(floor_value, x._den_sq, scale)
                        assert isqrt(base.numerator * x._den_sq // base.denominator) == c
                        pair = AlphaBetaPair(alpha, RootValue(base, 2))
                        assert first_violating_index(x, pair) == 6
                        assert first_violating_index(inside, pair) is None
                        assert scan_first_violating_index(x, pair) == 6
                        assert scan_first_violating_index(inside, pair) is None
                        assert oracle.in_A(inside.entries, alpha.base, base)
                        assert not oracle.in_A(x.entries, alpha.base, base)

    def test_coordinate_at_m_is_not_tested(self):
        # the coordinate at m itself reaches beta; only those after it count
        pair = AlphaBetaPair(RootValue(F(2), 4), RootValue(F(1, 2), 2))
        for x in (Point({1: F(1, 10), 2: F(5)}), Point({1: F(1, 10), 2: F(5), 4: F(1, 10)})):
            assert m_index(x, pair.alpha) == 2
            assert first_violating_index(x, pair) is None
            assert in_A(x, pair) and oracle.in_A(x.entries, F(2), F(1, 2))

    def test_tail_equal_to_quarter_beta_sq(self):
        # with beta^2 = 1/2 the tail from index 3 is (1 + 1) / 16, exactly
        # beta^2 / 4, which is not below it, so l0 moves one index further
        x = Point._from_ints((1, 2, 3, 4), (8, 1, 1, 1), 4)
        pair = AlphaBetaPair(RootValue(F(2), 4), RootValue(F(1, 2), 2))
        assert x.norm_sq() - x.prefix_norm_sq(2) == F(1, 8)
        cert = openness_radius(x, pair)
        assert cert.components["m"] == 1
        assert cert.components["l0"] == scan_openness_l0(x, F(1, 2)) == 4

    def test_tail_below_quarter_beta_sq_from_index_1(self):
        # the whole norm is below beta^2 / 4 but above alpha^2: l0 = 1
        x = Point({1: F(1, 1000)})
        pair = AlphaBetaPair(RootValue(F(1, 10 ** 13), 4), RootValue(F(1, 2), 2))
        cert = openness_radius(x, pair)
        assert cert.components["m"] == 1
        assert cert.components["l0"] == scan_openness_l0(x, F(1, 2)) == 1


class TestOpennessH:
    """h on forced cases: empty positions up to l0, l0 one past the
    support, l0 = 1, numerators equal to the root and one above it, and
    (a + b)^2 * bd one unit either side of 4 * bn * D^2. Each certificate
    is also compared whole with the scans' one."""

    PAIR = AlphaBetaPair(RootValue(F(2), 4), RootValue(F(1, 2), 2))

    @staticmethod
    def h(x, pair):
        cert = openness_radius(x, pair)
        assert cert.to_json() == scan_openness_json(x, pair)
        return cert.components["h"], cert.components["l0"]

    def test_empty_position_up_to_l0(self):
        beta = RootExpr.coerce(self.PAIR.beta)
        # position 1 is empty and 5 is far above beta: h = beta - 0
        assert self.h(Point({2: F(5)}), self.PAIR) == (beta, 3)
        # an empty position does not hide a coordinate below beta
        h, l0 = self.h(Point({1: F(1, 10), 3: F(5)}), self.PAIR)
        assert (h, l0) == (beta - RootExpr.coerce(F(1, 10)), 4)

    def test_l0_one_past_the_last_support_index(self):
        beta = RootExpr.coerce(self.PAIR.beta)
        assert self.h(Point({1: F(5)}), self.PAIR) == (beta, 2)
        h, l0 = self.h(Point({1: F(5), 2: F(1, 2)}), self.PAIR)
        assert (h, l0) == (beta - RootExpr.coerce(F(1, 2)), 3)

    def test_l0_is_1(self):
        # the whole norm is below beta^2 / 4 but above alpha^2
        pair = AlphaBetaPair(RootValue(F(1, 10 ** 13), 4), RootValue(F(1, 2), 2))
        h, l0 = self.h(Point({1: F(1, 1000)}), pair)
        assert (h, l0) == (RootExpr.coerce(pair.beta) - RootExpr.coerce(F(1, 1000)), 1)
        assert self.h(Point({2: F(1, 1000)}), pair) == (RootExpr.coerce(pair.beta), 1)

    def test_numerators_equal_to_the_root_and_one_above(self):
        # D = 3; m = 2 (alpha^2 sits between the first two prefix sums);
        # beta^2 = bn/bd with isqrt(bn * 9 // bd) == c: numerator c is below
        # beta, c + 1 is above it, and the closer one is h
        seen = set()
        for c in (1, 5, 12):
            for sign in (1, -1):
                x = Point._from_ints((1, 2, 3), (sign * (c + 1), 40, sign * c), 3)
                alpha_sq = F((c + 1) ** 2 + 800, 9)
                alpha = RootValue(alpha_sq * alpha_sq * F(10 ** 12 + 1, 10 ** 12), 4)
                for floor_value in (c * c, c * c + 1, (c + 1) ** 2 - 1):
                    for scale in TestExactBoundaries.SCALES:
                        base = TestExactBoundaries.base_with_floor(floor_value, 9, scale)
                        assert isqrt(base.numerator * 9 // base.denominator) == c
                        pair = AlphaBetaPair(alpha, RootValue(base, 2))
                        h, _ = self.h(x, pair)
                        below = (2 * c + 1) ** 2 * base.denominator > 36 * base.numerator
                        beta = RootExpr.coerce(pair.beta)
                        assert h == (beta - RootExpr.coerce(F(c, 3)) if below
                                     else RootExpr.coerce(F(c + 1, 3)) - beta)
                        seen.add(below)
        assert seen == {True, False}

    def test_sum_squared_one_unit_either_side(self):
        # x = (a/D, b/D) with m = 1 and b < beta < a, and beta^2 = bn/bd
        # with (a + b)^2 * bd - 4 * bn * D^2 = e: beta - b/D is h iff e = 1
        alpha = RootValue(F(1, 2 * 10 ** 6), 4)
        checked = 0
        for a, b, den in ((2, 1, 1), (5, 2, 1), (9, 4, 1), (5, 2, 3), (7, 4, 3), (10, 3, 7)):
            x = Point._from_ints((1, 2), (a, b), den)
            assert x._den == den
            for e in (1, -1):
                found = 0
                for bd in range(1, 10 ** 4):
                    bn, rest = divmod((a + b) ** 2 * bd - e, 4 * den * den)
                    if rest or not non_square(F(bn, bd)):
                        continue
                    pair = AlphaBetaPair(alpha, RootValue(F(bn, bd), 2))
                    beta_sq = pair.beta.base  # already in lowest terms
                    assert (a + b) ** 2 * beta_sq.denominator \
                        - 4 * beta_sq.numerator * den * den == e
                    h, _ = self.h(x, pair)
                    beta = RootExpr.coerce(pair.beta)
                    assert h == (beta - RootExpr.coerce(F(b, den)) if e == 1
                                 else RootExpr.coerce(F(a, den)) - beta)
                    found += 1
                    if found == 3:
                        break
                checked += found
        assert checked == 36


# The position search and the run search before each compared first, kept
# verbatim as references: a root for every threshold, and a cutoff root
# that bounds the runs, each failing run bisected from its first index.

def reference_m_position(x: Point, alpha: RootValue) -> int:
    if alpha.degree != 4:
        raise ValueError(f"m_index needs a degree-4 threshold, got degree {alpha.degree}")
    base = alpha.base
    d4 = x._den_sq * x._den_sq
    return bisect_right(x._prefix_sq, isqrt(base.numerator * d4 // base.denominator))


def reference_first_failing_n(x: Point, schedule: Schedule) -> Optional[int]:
    cutoff = schedule.least_n_with_alpha_above(x.norm_sq())
    last = len(x.support) - 1
    n = 1
    while n < cutoff:
        pair = schedule.pair_at(n)
        pos = reference_m_position(x, pair.alpha)
        if _violation_past(x, pair, pos) is not None:
            return n
        if pos == last or n + 1 == cutoff:
            return None
        end = schedule.least_n_with_alpha_above(F(x._prefix_sq[pos], x._den_sq))
        passing, failing = n, end - 1
        if failing > passing and _violation_past(x, schedule.pair_at(failing),
                                                 pos) is not None:
            while failing - passing > 1:
                mid = (passing + failing) // 2
                if _violation_past(x, schedule.pair_at(mid), pos) is None:
                    passing = mid
                else:
                    failing = mid
            return failing
        n = end
    return None


@st.composite
def prefix_one_unit_from_alpha(draw):
    """A point and alpha^4 = bn/bd with P_k^2 * bd = bn * D^4 - 1 or + 1
    for a prefix sum P_k (the last one, the whole norm, half the time):
    P_k/D^2 one unit below or above alpha^2 in the integers compared.
    bd runs over several residues' lifts: P_k^2 * bd = -+1 mod D^4."""
    x = draw(points(wide_coordinate).filter(lambda p: not p.is_zero()))
    last = len(x.support) - 1
    k = last if draw(st.booleans()) else draw(st.integers(0, last))
    p, d4 = x._prefix_sq[k], x._den_sq * x._den_sq
    assume(gcd(p, x._den) == 1)
    sign = draw(st.sampled_from((1, -1)))
    bd = (-sign * pow(p * p, -1, d4)) % d4 + d4 * draw(st.integers(1, 4))
    bn = (p * p * bd + sign) // d4
    assert bn * d4 == p * p * bd + sign
    assume(bn > 0 and non_square(F(bn, bd)))
    return x, F(bn, bd)


@st.composite
def run_end_at_cutoff(draw):
    """A schedule and a point whose first coordinate r has r^2 between
    alpha_(c-1)^2 and alpha_c^2 and whose whole norm stays below alpha_c^2:
    its one run of constant m spans 1..c-1 and ends exactly at the
    cutoff c."""
    schedule = draw(st.sampled_from(SCHEDULES))
    c = draw(st.integers(2, 60))
    scale_n = 1000  # coordinates k / scale_n
    a4 = 2 * schedule.alpha_scale ** 4 * scale_n ** 4  # alpha_n^4 * scale_n^4 = a4 * n^4
    k_low = floor_root(a4 * (c - 1) ** 4, 4) + 1
    k_high = floor_root(a4 * c ** 4, 4)  # never exact: a4 * c^4 is not a 4th power
    assume(k_low <= k_high)
    k = draw(st.integers(k_low, k_high))
    total = k * k
    entries = {1: F(k, scale_n)}
    for index, j in enumerate(draw(st.lists(st.integers(1, scale_n), min_size=1,
                                            max_size=6)), 2):
        if (total + j * j) ** 2 < a4 * c ** 4:
            total += j * j
            entries[index] = F(j * draw(st.sampled_from((1, -1))), scale_n)
    assume(len(entries) > 1)
    x = Point(entries)
    assert schedule.least_n_with_alpha_above(x.norm_sq()) == c
    assert runs_of_m(x, schedule) == [[1, 1, c - 1]]
    return x, schedule


# the whole norm below alpha_1^2 = a^2 * sqrt(2) for every schedule here
inside_alpha_1 = points(unit_coordinate).map(lambda p: scale(F(1, 1000), p))


class TestCompareFirst:
    """`_m_position` and `first_failing_n` against the root-first references."""

    @given(st.one_of(point_and_bases().map(lambda case: case[:2]),
                     prefix_one_unit_from_alpha()))
    @example((Point(), F(2)))
    @example((Point({1: F(1)}), F(2)))  # P^2 * bd = 1 = bn * D^4 - 1
    @example((Point({1: F(1)}), F(1, 2)))  # P^2 * bd = 2 = bn * D^4 + 1
    @example((Point({1: F(2), 2: F(1)}), F(26)))  # P = 5: 25 = 26 - 1
    @example((Point({1: F(2), 2: F(1)}), F(24)))  # 25 = 24 + 1
    @settings(max_examples=400, deadline=None)
    def test_m_position_matches_reference(self, case):
        x, alpha4 = case
        alpha = RootValue(alpha4, 4)
        pos = _m_position(x, alpha.num, alpha.den)
        assert pos == reference_m_position(x, alpha)
        m = scan_m_index(x, alpha)
        assert pos == (len(x.support) if m is None else x.support.index(m))
        # alpha^4's integers need not be in lowest terms
        assert _m_position(x, 6 * alpha.num, 6 * alpha.den) == pos

    @given(st.one_of(
        st.tuples(st.one_of(run_points(), decaying_points(), inside_alpha_1),
                  st.sampled_from(SCHEDULES)),
        run_end_at_cutoff()))
    @example((Point(), SCHEDULES[0]))
    @example((Point({3: F(1, 2)}), SCHEDULES[0]))  # cutoff 1
    @example((Point({1: F(5, 2), 2: F(1, 2)}), SCHEDULES[0]))  # run end = cutoff 3
    @example((Point({1: F(5, 2), 2: F(1)}), SCHEDULES[0]))  # the same run fails at 2
    @example((Point({1: F(10 ** 30), 5: F(1, 3)}), SCHEDULES[0]))
    @settings(max_examples=400, deadline=None)
    def test_first_failing_n_matches_reference(self, case):
        x, schedule = case
        expected = reference_first_failing_n(x, schedule)
        assert first_failing_n(x, schedule) == expected
        if schedule.least_n_with_alpha_above(x.norm_sq()) <= 200:
            assert scan_first_failing_n(x, schedule) == expected


# The run search before it decided O from the integers alone, kept verbatim
# as a reference: a threshold pair per index it tests, the run's last
# index tested first, then a doubling search from the run's first index
# and one bisection. Its position search read alpha's base as a Fraction,
# and its run ends came from `Schedule._least_n_alpha_above`; both are
# kept beside it, verbatim.

def fraction_m_position(x: Point, alpha: RootValue) -> int:
    if alpha.degree != 4:
        raise ValueError(f"m_index needs a degree-4 threshold, got degree {alpha.degree}")
    prefix = x._prefix_sq
    if not prefix:
        return 0
    base = alpha.base
    target = base.numerator * x._den_sq * x._den_sq
    last = prefix[-1]
    if last * last * base.denominator < target:
        return len(prefix)
    return bisect_right(prefix, isqrt(target // base.denominator))


def least_n_alpha_above(schedule: Schedule, p: int, q: int) -> int:
    u, v, _, _ = schedule._scales
    return floor_root(p * p * v ** 4 // (2 * u ** 4 * q * q), 4) + 1


def gallop_first_failing_n(x: Point, schedule: Schedule) -> Optional[int]:
    last = len(x.support) - 1
    n = 1
    while True:
        pair = schedule.pair_at(n)
        pos = fraction_m_position(x, pair.alpha)
        if pos >= last:  # no m_n, or no coordinate after it
            return None
        if _violation_past(x, pair, pos) is not None:
            return n
        end = least_n_alpha_above(schedule, x._prefix_sq[pos], x._den_sq)
        passing, failing = n, end - 1
        if failing > passing and _violation_past(x, schedule.pair_at(failing),
                                                 pos) is not None:
            step = 1
            while n + step < failing:
                if _violation_past(x, schedule.pair_at(n + step), pos) is not None:
                    failing = n + step
                    break
                passing = n + step
                step *= 2
            while failing - passing > 1:
                mid = (passing + failing) // 2
                if _violation_past(x, schedule.pair_at(mid), pos) is None:
                    passing = mid
                else:
                    failing = mid
            return failing
        n = end


def run_end_gap(x: Point, schedule: Schedule, pos: int, f: int) -> int:
    """P_pos^2 * v^4 - 2 * u^4 * f^4 * D^4: positive exactly when alpha_f^2
    lies below the prefix sum at pos, so f is in pos's run (or before it)."""
    u, v, _, _ = schedule._scales
    p, d2 = x._prefix_sq[pos], x._den_sq
    return p * p * v ** 4 - 2 * u ** 4 * f ** 4 * d2 * d2


def tail_bound(x: Point, schedule: Schedule, pos: int) -> int:
    """The least n whose beta_n is below some coordinate after pos."""
    _, _, s, t = schedule._scales
    top = max(map(abs, x._nums[pos + 1:]))
    return isqrt(2 * s * s * x._den_sq // (t * t * top * top)) + 1


@st.composite
def tail_bound_at_run_end(draw):
    """A point and a schedule whose beta scale puts the tail bound f after
    m_1 at the last index T of m_1's run or one past it: the run-end gap
    at f is positive for f = T and negative for f = T + 1. b = M*r/D with
    r within 1/(4K) of (f - 1/2)/sqrt(2) lands f there for any f."""
    x = draw(st.one_of(run_points(), decaying_points(), points(wide_coordinate)))
    a = draw(st.sampled_from((F(1), F(1, 3), F(5), F(2, 7))))
    u, v = a.numerator, a.denominator
    pos = _m_position(x, 2 * u ** 4, v ** 4)
    assume(pos < len(x.support) - 1)
    p, d2 = x._prefix_sq[pos], x._den_sq
    end = floor_root(p * p * v ** 4 // (2 * u ** 4 * d2 * d2), 4)
    f = end + draw(st.sampled_from((0, 1)))
    top = max(map(abs, x._nums[pos + 1:]))
    k = 10 ** 6
    b = F(top, x._den) * F(isqrt(2 * (2 * f - 1) ** 2 * k * k), 4 * k)
    schedule = Schedule(a, b)
    assert tail_bound(x, schedule, pos) == f
    return x, schedule, pos, end, f


# {1: 1, 2: 2, 3: 3, 4: 15} has prefix sum 239 and 239^2 = 2 * 13^4 - 1
# (Pell's X^2 - 2Y^2 = -1 at Y = 13^2): on Schedule(1, 34) the run of m = 4
# spans 4..12, the tail bound after it is 13, and the run-end gap at 13 is
# exactly -1. With a second 4 after the first, x fails at 13.
PELL_SCHEDULE = Schedule(1, 34)
PELL_POINTS = (Point({1: F(1), 2: F(2), 3: F(3), 4: F(15), 5: F(4)}),
               Point({1: F(1), 2: F(2), 3: F(3), 4: F(15), 5: F(4), 6: F(4)}))


def witness_cases():
    """(z, schedule) of witnesses along two rays at four radii."""
    return [(construct_witness(VSpec(r_star, ray_source(direction)), schedule).z, schedule)
            for schedule in SCHEDULES
            for direction in (None, Point({2: F(3, 7), 5: F(-1, 2)}))
            for r_star in (F(1), F(1, 10), F(1, 100), F(1, 1000))]


class TestJumpByRuns:
    """`first_failing_n` on integers against the pair-building run search."""

    @given(st.one_of(
        st.tuples(st.one_of(run_points(), decaying_points(), inside_alpha_1,
                            points(wide_coordinate)),
                  st.sampled_from(SCHEDULES)),
        run_end_at_cutoff()))
    @example((Point(), SCHEDULES[0]))
    @example((Point({4: F(7, 3)}), SCHEDULES[1]))
    @example((Point({1: F(10 ** 30), 5: F(1, 3)}), SCHEDULES[2]))
    @example((PELL_POINTS[0], PELL_SCHEDULE))
    @example((PELL_POINTS[1], PELL_SCHEDULE))
    @settings(max_examples=500, deadline=None)
    def test_matches_gallop_search(self, case):
        x, schedule = case
        expected = gallop_first_failing_n(x, schedule)
        assert first_failing_n(x, schedule) == expected
        if schedule.least_n_with_alpha_above(x.norm_sq()) <= 200:
            assert scan_first_failing_n(x, schedule) == expected

    @given(tail_bound_at_run_end())
    @settings(max_examples=300, deadline=None)
    def test_tail_bound_at_a_run_end(self, case):
        x, schedule, pos, end, f = case
        gap = run_end_gap(x, schedule, pos, f)
        assert (gap > 0) == (f == end) and gap != 0
        assert run_end_gap(x, schedule, pos, end + 1) < 0
        found = first_failing_n(x, schedule)
        assert found == gallop_first_failing_n(x, schedule)
        if f == end:  # f is in m_1's run, and every index before it passes
            assert found == f
        else:
            assert found is None or found >= f

    def test_empty_and_single_coordinate(self):
        for schedule in SCHEDULES:
            for x in (Point(), Point({1: F(10 ** 30)}), Point({9: F(-1, 10 ** 30)})):
                assert first_failing_n(x, schedule) is None
                assert gallop_first_failing_n(x, schedule) is None

    def test_run_end_gap_minus_one(self):
        for x, expected in zip(PELL_POINTS, (None, 13)):
            assert x._prefix_sq[3] == 239 and x._den == 1
            assert runs_of_m(x, PELL_SCHEDULE)[:3] == [[2, 1, 1], [3, 2, 3], [4, 4, 12]]
            assert tail_bound(x, PELL_SCHEDULE, 3) == 13
            assert run_end_gap(x, PELL_SCHEDULE, 3, 13) == -1
            assert first_failing_n(x, PELL_SCHEDULE) == expected
            assert gallop_first_failing_n(x, PELL_SCHEDULE) == expected
            assert scan_first_failing_n(x, PELL_SCHEDULE) == expected

    def test_witness_points(self):
        for z, schedule in witness_cases():
            found = first_failing_n(z, schedule)
            assert found is not None
            assert found == gallop_first_failing_n(z, schedule)


class TestRootCounts:
    """How many integer roots a decision takes (the `roots` fixture)."""

    def test_m_position_below_alpha_takes_no_root(self, roots):
        alpha = SCHEDULES[0].pair_at(1).alpha  # alpha^2 = sqrt(2)
        below = Point({1: F(1), 4: F(-1, 3)})  # norm 10/9
        assert _m_position(below, alpha.num, alpha.den) == 2
        assert m_index(below, alpha) is None
        assert roots == []
        assert m_index(Point({1: F(1), 4: F(1)}), alpha) == 4  # norm 2: one root
        assert len(roots) == 1

    @pytest.mark.parametrize("x", [
        Point({1: F(2), 3: F(1, 3)}),
        Point({2: F(-7, 5), 4: F(1, 10), 9: F(-1, 5)}),
        Point({1: F(3, 2)}),  # no coordinate after m
    ])
    @pytest.mark.parametrize("schedule", SCHEDULES[:2])  # m exists at n = 1
    def test_openness_radius_takes_one_beta_root(self, roots, schedule, x):
        """The precondition (no coordinate after m reaches beta) and the
        search for h read one isqrt(bn * D^2 // bd)."""
        pair = schedule.pair_at(1)
        assert m_index(x, pair.alpha) is not None and in_A(x, pair)
        del roots[:]
        openness_radius(x, pair)
        assert roots.count(pair.beta.num * x._den_sq // pair.beta.den) == 1

    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_in_O_inside_the_alpha_1_ball_takes_no_root(self, roots, schedule):
        x = Point({2: F(1, 10), 7: F(-2, 7), 9: F(1, 5)})  # norm < 0.14
        assert schedule.least_n_with_alpha_above(x.norm_sq()) == 1
        del roots[:]
        assert in_O(x, schedule)
        assert roots == []
