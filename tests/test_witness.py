"""Witness construction, the generalized variant, and the verdict."""

import hashlib
import json
import random
from fractions import Fraction as F

import pytest

from erdos_clopen.exact import InputError, RootValue, is_rational_power
from erdos_clopen.space import Point, add, scale, unit
from erdos_clopen.clopen import DEFAULT_SCHEDULE, Schedule, first_failing_n, in_O
from erdos_clopen.witness import (
    SourceFailureError,
    VSpec,
    WitnessCase,
    construct_witness,
    file_source,
    generalized_witness,
    ray_source,
    refute_group_compatibility,
    verify_witness,
    _norm_exceeds,
)

import oracle


def pt(entries) -> Point:
    return Point([(i, F(v)) for i, v in entries])


def oracle_recheck(record, schedule=DEFAULT_SCHEDULE):
    """Re-verify a record's content with the interval oracle only."""
    a_base = lambda n: 2 * schedule.alpha_scale ** 4 * n ** 4
    b_base = lambda n: 2 * schedule.beta_scale ** 2 / (n * n)
    m_star = record.m_star
    assert not oracle.in_O(record.z.entries, a_base, b_base)
    assert not oracle.in_A(record.z.entries, a_base(m_star), b_base(m_star))
    m_x = oracle.m_index(record.x.entries, a_base(m_star))
    m_z = oracle.m_index(record.z.entries, a_base(m_star))
    assert m_z is not None and m_z <= m_x < record.l_star
    z_l = abs(record.z.coordinate(record.l_star))
    assert oracle.cmp_rational_vs_root(z_l, b_base(m_star), 2) == "gt"


class TestConstructWitness:
    def test_spec_ray_example(self):
        record = construct_witness(VSpec(F(1), ray_source()), DEFAULT_SCHEDULE)
        assert record.n_star == 2
        assert record.m_star == 3
        assert record.x == pt([(1, 4)])
        assert record.l_star == 2
        assert record.q == F(1, 2)
        assert record.case == WitnessCase.NON_NEGATIVE
        assert record.z == pt([(1, 4), (2, F(1, 2))])
        assert record.failing_n == 3
        assert all(check["holds"] for check in record.checks)
        oracle_recheck(record)

    @pytest.mark.parametrize("direction, failing_n", [
        ([(1, 1), (2, 1)], 1),         # z = (3, 3, 1/2): |z_2| > beta_1 past m = 1
        ([(1, 2), (2, F(1, 8))], 2),   # z = (4, 3/4): beta_2 < 3/4 < beta_1
    ])
    def test_failing_n_before_m_star(self, direction, failing_n):
        record = construct_witness(VSpec(F(1), ray_source(pt(direction))),
                                   DEFAULT_SCHEDULE)
        assert record.m_star == 3
        assert record.failing_n == failing_n == first_failing_n(record.z, DEFAULT_SCHEDULE)
        assert record.to_json()["failing_n"] == failing_n
        a_base = lambda n: 2 * F(n) ** 4
        b_base = lambda n: F(2, n * n)
        assert not oracle.in_A(record.z.entries, a_base(failing_n), b_base(failing_n))
        assert all(oracle.in_A(record.z.entries, a_base(n), b_base(n))
                   for n in range(1, failing_n))
        oracle_recheck(record)

    def test_negative_case(self):
        source = file_source([pt([(7, -5), (8, -3)])])
        record = construct_witness(VSpec(F(1), source), DEFAULT_SCHEDULE)
        assert record.case == WitnessCase.NEGATIVE
        assert record.l_star == 8
        assert record.y.coordinate(8) == -record.q
        assert record.z.coordinate(8) == -3 - record.q
        assert not in_O(record.z, DEFAULT_SCHEDULE)
        oracle_recheck(record)

    def test_zero_coordinate_at_l_star_is_nonnegative_case(self):
        source = file_source([pt([(7, -5)])])  # l* = 8 carries coordinate 0
        record = construct_witness(VSpec(F(1), source), DEFAULT_SCHEDULE)
        assert record.l_star == 8
        assert record.case == WitnessCase.NON_NEGATIVE
        assert record.z.coordinate(8) == record.q
        oracle_recheck(record)

    def test_vspec_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            VSpec(F(0), ray_source())
        with pytest.raises(ValueError):
            VSpec(F(-1), ray_source())

    def test_bounded_source_fails(self):
        bounded = file_source([pt([(1, 1)]), pt([(2, F(1, 2))])])
        with pytest.raises(SourceFailureError):
            construct_witness(VSpec(F(1), bounded), DEFAULT_SCHEDULE)

    def test_lying_source_is_caught(self):
        def liar(threshold):
            return pt([(1, 1)])

        with pytest.raises(SourceFailureError):
            construct_witness(VSpec(F(1), liar), DEFAULT_SCHEDULE)

    def test_determinism(self):
        v = VSpec(F(2, 3), ray_source(pt([(2, 1), (5, -1)])))
        a = construct_witness(v, DEFAULT_SCHEDULE)
        b = construct_witness(v, DEFAULT_SCHEDULE)
        assert a == b

    def test_q_strictly_between_beta_and_radius(self):
        for r_star in (F(1), F(1, 3), F(7, 2), F(1, 17)):
            record = construct_witness(VSpec(r_star, ray_source()),
                                       DEFAULT_SCHEDULE)
            beta_sq = DEFAULT_SCHEDULE.pair_at(record.m_star).beta.base
            assert record.q * record.q > beta_sq
            assert record.q < r_star
            assert record.y.norm_sq() < r_star * r_star

    def test_scaled_schedule(self):
        schedule = Schedule(alpha_scale=F(1, 2), beta_scale=F(3))
        record = construct_witness(VSpec(F(1), ray_source()), schedule)
        assert all(check["holds"] for check in record.checks)
        assert not in_O(record.z, schedule)


class TestRaySource:
    """The ray source's multiple is the least k with norm(k*d) above the
    threshold, the one a linear scan over k with _norm_exceeds finds."""

    @staticmethod
    def scanned(direction, threshold):
        k = 1
        while not _norm_exceeds(scale(F(k), direction), threshold):
            k += 1
        return scale(F(k), direction)

    def test_tie_at_degree_two_threshold(self):
        # |e_1 + e_2|^2 = 2 does not exceed sqrt(2)^2 = 2, so k = 2
        direction = pt([(1, 1), (2, 1)])
        threshold = RootValue(F(2), 2)
        assert not _norm_exceeds(direction, threshold)
        assert ray_source(direction)(threshold) == scale(F(2), direction) == \
            self.scanned(direction, threshold)

    def test_matches_linear_scan(self):
        rng = random.Random(3307)
        for _ in range(300):
            indices = rng.sample(range(1, 9), rng.randint(1, 3))
            direction = Point([(i, F(rng.randint(-9, 9) or 1, rng.randint(1, 9)))
                               for i in indices])
            degree = rng.choice((2, 4))
            base = F(rng.randint(1, 400 if degree == 2 else 10 ** 5), rng.randint(1, 9))
            if is_rational_power(base, 2) is not None:
                continue
            threshold = RootValue(base, degree)
            assert ray_source(direction)(threshold) == self.scanned(direction, threshold)

    def test_norm_exceeds_degree_four_matches_oracle(self):
        # norm > base^(1/4) iff norm_sq > sqrt(base), decided by the oracle
        rng = random.Random(3308)
        for _ in range(300):
            point = pt([(1, F(rng.randint(-40, 40), rng.randint(1, 9))),
                        (3, F(rng.randint(-40, 40), rng.randint(1, 9)))])
            base = F(rng.randint(1, 10 ** 7), rng.randint(1, 9))
            if is_rational_power(base, 2) is not None:
                continue
            expected = oracle.cmp_rational_vs_root(point.norm_sq(), base, 2) == "gt"
            assert _norm_exceeds(point, RootValue(base, 4)) == expected


class TestPinnedLookups:
    def test_schedule_indices_and_ray_points(self):
        """sha256 over seeded schedule-index lookups and ray-source points,
        recorded from the doubling-and-bisection search they used before
        being computed as integer roots: both must pick the same integers."""
        rng = random.Random(2606)

        def rational(low):
            return F(rng.randrange(low, 10 ** rng.randint(1, 30)),
                     rng.randrange(1, 10 ** rng.randint(1, 12)))

        lines = []
        for schedule in (DEFAULT_SCHEDULE, Schedule(F(1, 3), F(2)), Schedule(F(5), F(1, 7))):
            for _ in range(2000):
                norm_sq, bound = rational(0), rational(1)
                lines.append(f"{schedule.least_n_with_alpha_above(norm_sq)} "
                             f"{schedule.least_n_with_beta_below(bound)}")
        for _ in range(1000):
            indices = rng.sample(range(1, 21), rng.randint(1, 4))
            direction = Point([(i, F(rng.choice((-1, 1)) * rng.randrange(1, 10 ** 6),
                                     rng.randrange(1, 1000))) for i in indices])
            base = rational(1)
            while is_rational_power(base, 2) is not None:
                base = rational(1)
            threshold = RootValue(base, rng.choice((2, 4)))
            lines.append(json.dumps(ray_source(direction)(threshold).to_json(),
                                    sort_keys=True))
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == (
            "0a839664be5b05eeb05ffd548fedd1a551748aeaebff98b26f7ec82d734af79c")


class TestTinyRadii:
    """Ball radii far past the m* = 2^29 that was once the input boundary:
    the witness holds every check, and its cost is a count of integer roots
    that does not grow with m*."""

    @pytest.mark.parametrize("schedule", [DEFAULT_SCHEDULE, Schedule(F(1, 3), 2)])
    @pytest.mark.parametrize("digits", [9, 12, 18])
    def test_witness_holds_with_few_roots(self, roots, schedule, digits):
        record = construct_witness(VSpec(F(1, 10 ** digits), ray_source()), schedule)
        # 14 to 16 roots: m*'s two side conditions, the ray point, q, and
        # the m, A and O decisions on x and z
        assert len(roots) <= 16
        assert record.m_star > 2 ** 29
        assert record.failing_n == record.m_star
        assert all(check["holds"] for check in record.checks)
        a_base = lambda n: 2 * schedule.alpha_scale ** 4 * n ** 4
        b_base = lambda n: 2 * schedule.beta_scale ** 2 / (n * n)
        m = record.m_star
        assert not oracle.in_A(record.z.entries, a_base(m), b_base(m))
        assert oracle.in_A(record.z.entries, a_base(m - 1), b_base(m - 1))

    def test_first_radius_past_two_to_the_29(self):
        # r* = 1/N gives n* = N + 1, and on the default schedule m* = least
        # m with beta_m < 1/n*: 1/379625062 needs m* = 2^29 + 1
        s = DEFAULT_SCHEDULE
        assert s.least_n_with_beta_below(F(1, 379625063)) == 2 ** 29 + 1
        record = construct_witness(VSpec(F(1, 379625062), ray_source()), s)
        assert record.m_star == record.failing_n == 2 ** 29 + 1
        assert all(check["holds"] for check in record.checks)
        with pytest.raises(SourceFailureError):  # a bounded source still fails
            construct_witness(VSpec(F(1, 379625062), file_source([unit(1)])), s)


class TestIndexMinimality:
    """The construction picks the least admissible schedule indices."""

    def test_n_star_minimal(self):
        for r_star in (F(1), F(1, 2), F(2, 3), F(3), F(7, 5), F(1, 12)):
            record = construct_witness(VSpec(r_star, ray_source()),
                                       DEFAULT_SCHEDULE)
            n = record.n_star
            assert F(1, n) < r_star
            assert n == 1 or F(1, n - 1) >= r_star

    def test_m_star_bounds(self):
        for r_star in (F(1), F(1, 5), F(4), F(2, 7)):
            record = construct_witness(VSpec(r_star, ray_source()),
                                       DEFAULT_SCHEDULE)
            m, n = record.m_star, record.n_star
            s = DEFAULT_SCHEDULE
            # beta_m < 1/n and alpha_m > n at m*
            assert s.pair_at(m).beta.base < F(1, n * n)
            assert s.pair_at(m).alpha.base > n ** 4
            # m* = max(m1, m2) with both minimal: one step earlier, one of
            # the two side conditions must fail
            if m > 1:
                assert (s.pair_at(m - 1).beta.base > F(1, n * n)
                        or s.pair_at(m - 1).alpha.base < n ** 4)

    def test_l_star_is_least_admissible(self):
        from erdos_clopen.space import m_index
        record = construct_witness(VSpec(F(1), ray_source()), DEFAULT_SCHEDULE)
        alpha = DEFAULT_SCHEDULE.pair_at(record.m_star).alpha
        assert record.l_star == m_index(record.x, alpha) + 1


class TestGeneralizedWitness:
    def test_spec_eps_ladder(self):
        # beta_m* < 1/n* requires m large once eps shrinks: sqrt(2)/m < 1/10
        # forces m >= 15 for eps = 1/10
        record = generalized_witness(ray_source(), F(1, 10), DEFAULT_SCHEDULE)
        assert record.m_star >= 15
        assert record.q < F(1, 10)
        assert not in_O(record.z, DEFAULT_SCHEDULE)
        oracle_recheck(record)

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(InputError):
            generalized_witness(ray_source(), F(0), DEFAULT_SCHEDULE)
        with pytest.raises(InputError):
            generalized_witness(ray_source(), F(-1, 2), DEFAULT_SCHEDULE)

    def test_first_ray_point_past_threshold_is_used(self):
        record = generalized_witness(ray_source(), F(1, 2), DEFAULT_SCHEDULE)
        # x = n*e_1 for the first n past alpha_m*
        alpha4 = DEFAULT_SCHEDULE.pair_at(record.m_star).alpha.base
        n = record.x.coordinate(1)
        assert (n * n) ** 2 > alpha4
        assert ((n - 1) * (n - 1)) ** 2 < alpha4


class TestVerdict:
    def test_ray_verdict(self):
        verdict = refute_group_compatibility(VSpec(F(1), ray_source()),
                                             DEFAULT_SCHEDULE)
        assert verdict.holds
        assert all(check["holds"] for check in verdict.rechecks)
        data = verdict.to_json()
        assert data["holds"] is True
        assert data["witness"]["q"] == "1/2"
        assert {c["check"] for c in data["rechecks"]} == {
            "y_in_ball", "z_is_x_plus_y", "m_chain",
            "coordinate_violation", "z_outside_A_at_m_star", "z_outside_O",
        }

    def test_whole_space_candidate(self):
        # V = the whole space: any unbounded source works, r* arbitrary
        verdict = refute_group_compatibility(
            VSpec(F(1), ray_source(pt([(3, 2)]))), DEFAULT_SCHEDULE)
        assert verdict.holds

    def test_verdict_withheld_for_bounded_source(self):
        bounded = file_source([pt([(1, 1)])])
        with pytest.raises(SourceFailureError):
            refute_group_compatibility(VSpec(F(1), bounded), DEFAULT_SCHEDULE)


class TestVerifyWitnessChecks:
    def test_every_check_traces_exact_quantities(self):
        record = construct_witness(VSpec(F(1), ray_source()), DEFAULT_SCHEDULE)
        checks = verify_witness(record.x, record.y, record.z, record.m_star,
                                record.l_star, F(1), DEFAULT_SCHEDULE)
        by_name = {c["check"]: c for c in checks}
        assert by_name["y_in_ball"]["lhs"] == "1/4"
        assert by_name["coordinate_violation"]["holds"]

    def test_tampered_witness_is_flagged(self):
        record = construct_witness(VSpec(F(1), ray_source()), DEFAULT_SCHEDULE)
        bad_z = add(record.z, unit(record.l_star))  # no longer x + y
        checks = verify_witness(record.x, record.y, bad_z, record.m_star,
                                record.l_star, F(1), DEFAULT_SCHEDULE)
        assert not all(c["holds"] for c in checks)

    def test_z_inside_O_is_flagged(self):
        record = construct_witness(VSpec(F(1), ray_source()), DEFAULT_SCHEDULE)
        inside = record.x  # z with the bump removed
        assert in_O(inside, DEFAULT_SCHEDULE)
        checks = verify_witness(record.x, record.y, inside, record.m_star,
                                record.l_star, F(1), DEFAULT_SCHEDULE)
        holds = {c["check"]: c["holds"] for c in checks}
        assert not holds["z_outside_O"]
        assert not holds["z_outside_A_at_m_star"]
