"""Additive counterexamples: pairs inside a candidate neighborhood whose sum
leaves O, and the resulting incompatibility verdict.

Given any candidate V that contains a ball B(0, r*) around 0 and is
unbounded, the construction picks schedule indices n*, m* with
beta_m* < 1/n* < r* and alpha_m* > n*, draws an x from the unbounded
source with |x| > alpha_m*, and bumps one coordinate just past the first
exceedance index by a rational q between beta_m* and r*. The sum z = x + y
then violates the m*-th threshold pair, so z is outside O while both x and
y lie in V. Since every nonempty clopen set is unbounded, no clopen
neighborhood V of 0 can satisfy V + V inside O, and the clopen-generated
topology cannot make addition continuous.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .exact import (
    InputError,
    RootValue,
    exact_fraction,
    floor_root,
    format_rational,
    rational_in_interval,
)
from .space import Point, add, m_index, scale, unit
from .clopen import Schedule, first_failing_n, in_A


class SourceFailureError(InputError):
    """The unbounded source could not produce a point past the threshold."""


#: Maps a norm threshold to a point whose norm exceeds it (exactly checked).
PointSource = Callable[[RootValue], Point]


class WitnessCase:
    NON_NEGATIVE = "NonNegative"
    NEGATIVE = "Negative"


@dataclass(frozen=True)
class VSpec:
    """The consequences of "V is clopen and contains 0" that the
    construction consumes: a ball radius r* with B(0, r*) inside V, and an
    unbounded source of points of V."""

    ball_radius: Fraction
    source: PointSource

    def __post_init__(self):
        object.__setattr__(self, "ball_radius", exact_fraction(self.ball_radius))
        if self.ball_radius <= 0:
            raise InputError("ball_radius must be positive")


def _norm_exceeds(point: Point, threshold: RootValue) -> bool:
    """norm(point) > base^(1/d), exactly, as norm_sq^(d/2) > base (d = 2 or
    4; both sides are nonnegative, so raising them to the power d keeps the
    order)."""
    return point.norm_sq() ** (threshold.degree // 2) > threshold.base


def ray_source(direction: Optional[Point] = None) -> PointSource:
    """Integer multiples of a fixed nonzero direction d (default e_1);
    yields the least multiple k*d past the threshold base^(1/deg), that is
    the least k with k^deg > base / |d|^deg (both sides to the power deg)."""
    if direction is None:
        direction = unit(1)
    if direction.is_zero():
        raise InputError("ray direction must be nonzero")
    norm_sq = direction.norm_sq()

    def source(threshold: RootValue) -> Point:
        degree = threshold.degree
        return scale(floor_root(threshold.base / norm_sq ** (degree // 2), degree) + 1,
                     direction)

    return source


def file_source(points: Sequence[Point]) -> PointSource:
    """Scans a fixed list for the first point past the threshold."""
    points = list(points)

    def source(threshold: RootValue) -> Point:
        for point in points:
            if _norm_exceeds(point, threshold):
                return point
        raise SourceFailureError(
            f"none of the {len(points)} supplied points has norm above the threshold"
        )

    return source


@dataclass(frozen=True)
class WitnessRecord:
    """Everything needed to re-check one counterexample z = x + y."""

    x: Point
    y: Point
    z: Point
    n_star: int
    m_star: int
    l_star: int
    q: Fraction
    case: str
    failing_n: int
    checks: tuple

    def to_json(self) -> dict:
        return {
            "x": self.x.to_json(),
            "y": self.y.to_json(),
            "z": self.z.to_json(),
            "n_star": self.n_star,
            "m_star": self.m_star,
            "l_star": self.l_star,
            "q": format_rational(self.q),
            "case": self.case,
            "failing_n": self.failing_n,
            "checks": [_check_json(check) for check in self.checks],
        }


def _least_n_star(r_star: Fraction) -> int:
    """Least positive integer with 1/n < r_star, i.e. n > 1/r_star."""
    return r_star.denominator // r_star.numerator + 1


def construct_witness(v: VSpec, schedule: Schedule) -> WitnessRecord:
    """Build one counterexample for the candidate V and run every check of
    `verify_witness` on it once; raises AssertionError if any check fails."""
    r_star = v.ball_radius
    n_star = _least_n_star(r_star)
    # beta_m < 1/n* and alpha_m > n* (alpha_m > n* iff alpha_m^2 > n*^2)
    m_star = max(schedule.least_n_with_beta_below(Fraction(1, n_star)),
                 schedule.least_n_with_alpha_above(Fraction(n_star ** 2)))
    pair = schedule.pair_at(m_star)
    x = v.source(pair.alpha)
    # |x| > alpha_m* exactly when some prefix norm exceeds it
    m_x = m_index(x, pair.alpha)
    if m_x is None:
        raise SourceFailureError(
            "source point does not exceed the required threshold norm"
        )
    l_star = m_x + 1

    q = rational_in_interval(pair.beta, r_star)

    if x.coordinate(l_star) >= 0:
        case = WitnessCase.NON_NEGATIVE
        y = scale(q, unit(l_star))
    else:
        case = WitnessCase.NEGATIVE
        y = scale(-q, unit(l_star))
    z = add(x, y)

    checks = verify_witness(x, y, z, m_star, l_star, r_star, schedule)
    if any(not check["holds"] for check in checks):
        raise AssertionError("witness construction produced a failing check: "
                             f"{[_check_json(check) for check in checks]}")
    # the least schedule index whose A-set excludes z (at most m*)
    failing_n = next(check["lhs"]["first_failing_n"] for check in checks
                     if check["check"] == "z_outside_O")

    return WitnessRecord(
        x=x, y=y, z=z,
        n_star=n_star, m_star=m_star, l_star=l_star,
        q=q, case=case, failing_n=failing_n,
        checks=tuple(checks),
    )


def _check(name: str, lhs, rhs, relation: str, holds: bool) -> dict:
    """One entry of `verify_witness`: the inequality's name, the exact
    quantities compared (a `Fraction`, a `Point`, or a dict of ints, bools
    and None), the relation between them and whether it holds."""
    return {"check": name, "lhs": lhs, "rhs": rhs, "relation": relation, "holds": holds}


def _json_value(value):
    if isinstance(value, Fraction):
        return format_rational(value)
    return value.to_json() if isinstance(value, Point) else value


def _check_json(check: dict) -> dict:
    """A check as written in JSON: a `Fraction` as "p/q", a `Point` as
    `Point.to_json`; built only when a document or a message is written."""
    return {key: _json_value(value) for key, value in check.items()}


def verify_witness(x: Point, y: Point, z: Point, m_star: int, l_star: int,
                   r_star: Fraction, schedule: Schedule) -> list[dict]:
    """Check every inequality a witness record asserts, each once.

    `construct_witness` runs this on every witness it builds; the result is
    the record's `checks`. Each entry names the inequality and carries the
    exact quantities compared, as values (`_check_json` writes them), so a
    failure is reproducible in isolation.
    """
    pair = schedule.pair_at(m_star)
    m_x = m_index(x, pair.alpha)
    m_z = m_index(z, pair.alpha)
    z_l = z.coordinate(l_star)
    z_in_A_star = in_A(z, pair)
    failing = first_failing_n(z, schedule)  # None exactly when z is in O
    y_sq, r_sq, x_plus_y = y.norm_sq(), r_star * r_star, add(x, y)
    z_l_sq, beta_sq = z_l * z_l, pair.beta.base

    return [
        # |y|^2 = q^2 < r*^2
        _check("y_in_ball", y_sq, r_sq, "<", y_sq < r_sq),
        _check("z_is_x_plus_y", x_plus_y, z, "==", x_plus_y == z),
        # m_z <= m_x < l*
        _check("m_chain", {"m_z": m_z, "m_x": m_x}, {"l_star": l_star},
               "m_z <= m_x < l_star",
               m_z is not None and m_x is not None and m_z <= m_x < l_star),
        # |z_l*|^2 > beta_m*^2
        _check("coordinate_violation", z_l_sq, beta_sq, ">", z_l_sq > beta_sq),
        _check("z_outside_A_at_m_star", {"in_A": z_in_A_star}, {"expected": False},
               "==", not z_in_A_star),
        _check("z_outside_O", {"first_failing_n": failing}, {"failing_n_at_most": m_star},
               "exists a failing index <= m*",
               failing is not None and failing <= m_star),
    ]


def generalized_witness(k_source: PointSource, eps: Fraction,
                        schedule: Schedule) -> WitnessRecord:
    """Same construction for an arbitrary unbounded set K and ball B(0, eps):
    some x in K plus some y with |y| < eps lands outside O. `VSpec` rejects
    eps <= 0."""
    return construct_witness(VSpec(eps, k_source), schedule)


@dataclass(frozen=True)
class RefutationVerdict:
    """Machine-checkable assembly of the incompatibility argument around one
    witness, whose checks are the rechecks and decide `holds`."""

    witness: WitnessRecord

    def to_json(self) -> dict:
        witness = self.witness.to_json()
        return {
            "premise": _PREMISE,
            "witness": witness,
            "rechecks": witness["checks"],
            "conclusion": _CONCLUSION,
            "holds": all(check["holds"] for check in self.witness.checks),
        }


_PREMISE = (
    "The only bounded clopen subset of the space is empty, so any clopen "
    "candidate V containing 0 is unbounded and contains some ball B(0, r*)."
)

_CONCLUSION = (
    "V + V is not contained in the clopen neighborhood O of 0: the witness "
    "z = x + y lies outside O although x and y lie in V. Since V was an "
    "arbitrary clopen neighborhood of 0, no such V satisfies V + V inside O, "
    "so addition is not continuous at (0, 0) and the clopen-generated "
    "topology is not a group topology."
)


def refute_group_compatibility(v: VSpec, schedule: Schedule) -> RefutationVerdict:
    """Produce the full verdict for one candidate V."""
    return RefutationVerdict(construct_witness(v, schedule))
