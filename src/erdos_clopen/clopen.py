"""Threshold-pair set families, their intersection O, and radius certificates.

For a pair (alpha, beta) with alpha^2 and beta irrational, a point belongs
to the building-block set A when either its prefix norms never exceed
alpha (the index m below does not exist) or every coordinate past that
first-exceedance index m is smaller than beta in absolute value. O is the
intersection of the A-sets along a schedule alpha_n up, beta_n down; on a
finite-support point the intersection is decided by finitely many checks
because once the whole norm drops below alpha_n the point is inside
automatically.

Every membership (m, A and O) is decided on integers: the point's
numerators, prefix sums and denominator, the root values' base integers
and, for O, the schedule's scale integers, from which `first_failing_n`
jumps from one run of constant m to the next without building a
threshold pair.

Each certificate emitted here is a positive rational lower bound for one
of the explicit neighborhood radii, certified by exact comparisons only,
so samplers can exercise the open/closed character of the sets at desk
scale.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Optional

from .exact import (
    InputError,
    RootExpr,
    RootValue,
    expr_min,
    floor_root,
    format_rational,
    is_rational_power,
    largest_rational_at_most,
    parse_rational,
)
from .space import Point, _m_position, m_index

DEFAULT_DEN_CAP = 10 ** 6


class PreconditionViolatedError(InputError):
    """A radius certificate was requested for a point on the wrong side."""


class CertificateKind:
    CLAIM1_MARGIN = "Claim1Margin"
    CLAIM2_R0 = "Claim2_r0"
    CLAIM3_R = "Claim3_r"
    CLAIM4_W = "Claim4_W"


def sqrt_expr(value: Fraction) -> RootExpr:
    """sqrt of a nonnegative rational as an expression (rational if exact)."""
    if value < 0:
        raise ValueError(f"sqrt_expr needs a nonnegative value, got {value}")
    if value == 0:
        return RootExpr.coerce(Fraction(0))
    exact = is_rational_power(value, 2)
    if exact is not None:
        return RootExpr.coerce(exact)
    return RootExpr.coerce(RootValue(value, 2))


@dataclass(frozen=True)
class AlphaBetaPair:
    """Thresholds alpha (degree-4 root, so alpha^2 is irrational) and beta
    (degree-2 root, so beta itself is irrational)."""

    alpha: RootValue
    beta: RootValue

    def __post_init__(self):
        if self.alpha.degree != 4:
            raise ValueError("alpha must be a degree-4 root value")
        if self.beta.degree != 2:
            raise ValueError("beta must be a degree-2 root value")

    def to_json(self) -> dict:
        return {"alpha": self.alpha.to_json(), "beta": self.beta.to_json()}


DEFAULT_PAIR = AlphaBetaPair(RootValue(Fraction(2), 4), RootValue(Fraction(1, 2), 2))


@dataclass(frozen=True)
class Schedule:
    """The threshold sequences alpha_n = a*n*2^(1/4) and beta_n = b*sqrt(2)/n.

    alpha_n is strictly increasing and unbounded with alpha_n^2 =
    a^2*n^2*sqrt(2) irrational; beta_n strictly decreases to 0 and is
    irrational. Any positive rational scaling constants a, b keep every side
    condition: the bases alpha_n^4 = 2*a^4*n^4 and beta_n^2 = 2*b^2/n^2 are
    twice a rational square, so never one themselves, and validation reduces
    to positivity; building a schedule builds no pair. The integers (u, v,
    s, t) of a = u/v and b = s/t are read once into `_scales`, from which O
    membership (`first_failing_n`) is decided directly. Threshold pairs
    serve the certificates and witnesses only: each comes from the cached
    `pair_at(n)`, built from `_scales`, and each RootValue still checks its
    base. `_scales` is also the pair cache's key: equal schedules have equal
    integers and share cache entries; it takes no part in ==, hash or repr.
    """

    alpha_scale: Fraction = Fraction(1)
    beta_scale: Fraction = Fraction(1)
    _scales: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a, b = Fraction(self.alpha_scale), Fraction(self.beta_scale)
        object.__setattr__(self, "alpha_scale", a)
        object.__setattr__(self, "beta_scale", b)
        if a <= 0 or b <= 0:
            raise InputError("schedule scales must be positive")
        object.__setattr__(self, "_scales",
                           (a.numerator, a.denominator, b.numerator, b.denominator))

    def pair_at(self, n: int) -> AlphaBetaPair:
        if type(n) is not int or n < 1:  # bool is an int subclass, not an index
            raise ValueError(f"schedule index must be a positive integer, got {n!r}")
        return _cached_pair(self._scales, n)

    def least_n_with_alpha_above(self, norm_sq: Fraction) -> int:
        """Least n with norm_sq < alpha_n^2, i.e. n^4 > p^2 / (2*a^4*q^2)
        (equality cannot occur), computed in the integers of a nonnegative
        rational norm_sq = p/q and a = alpha_scale = u/v."""
        p, q = norm_sq.numerator, norm_sq.denominator
        u, v, _, _ = self._scales
        return floor_root(p * p * v ** 4 // (2 * u ** 4 * q * q), 4) + 1

    def least_n_with_beta_below(self, bound: Fraction) -> int:
        """Least n with beta_n < bound, i.e. n^2 > 2*b^2 / bound^2 (equality
        cannot occur: beta_n is irrational), computed in the integers of a
        positive rational bound = p/q and b = beta_scale = s/t."""
        p, q = bound.numerator, bound.denominator
        _, _, s, t = self._scales
        return floor_root(2 * s * s * q * q // (t * t * p * p), 2) + 1

    def to_json(self) -> dict:
        return {
            "alpha_scale": format_rational(self.alpha_scale),
            "beta_scale": format_rational(self.beta_scale),
            "degree": 4,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Schedule":
        if not isinstance(data, dict):
            raise InputError('a schedule must be a JSON object {"alpha_scale": "p/q", ...}')
        for key in data:
            if key not in ("alpha_scale", "beta_scale", "degree"):
                raise InputError(f"unknown schedule key {key!r} "
                                 "(expected alpha_scale, beta_scale or degree)")
        degree = data.get("degree", 4)
        if type(degree) is not int or degree != 4:  # not "4", 4.0 or true
            raise InputError(f"schedule degree must be 4, got {degree!r}")
        return cls(
            parse_rational(data.get("alpha_scale", "1/1")),
            parse_rational(data.get("beta_scale", "1/1")),
        )


# Keyed on a schedule's scale integers (u, v, s, t) and n, which are equal
# exactly when the schedules are: equal schedules share entries, and a key
# hashes as a tuple of ints, with no Fraction or dataclass hash or ==. The
# schedule's own 4-tuple is passed, so a key holds two references.
@lru_cache(maxsize=4096)
def _cached_pair(scales: tuple, n: int) -> AlphaBetaPair:
    u, v, s, t = scales
    # alpha_n^4 = 2*u^4*n^4/v^4 and beta_n^2 = 2*s^2/(t^2*n^2)
    return AlphaBetaPair(RootValue(Fraction(2 * u ** 4 * n ** 4, v ** 4), 4),
                         RootValue(Fraction(2 * s * s, t * t * n * n), 2))


DEFAULT_SCHEDULE = Schedule()


@dataclass(frozen=True)
class RadiusCertificate:
    """A certified positive rational lower bound for a neighborhood radius.

    `bound` is the largest rational with denominator <= den_cap that exact
    comparisons certify to be <= the true radius (if the radius is smaller
    than 1/den_cap, the cap is exceeded to keep the bound positive).
    `components` records the constituent quantities so the minimum can be
    re-checked in isolation.
    """

    kind: str
    bound: Fraction
    components: dict = field(compare=False)

    def __post_init__(self):
        if self.bound <= 0:
            raise ValueError("certificate bound must be positive")

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "bound": format_rational(self.bound),
            "components": {k: _component_json(v) for k, v in self.components.items()},
        }


def _component_json(value):
    return value.to_json() if isinstance(value, RootExpr) else value


def in_E_alpha(x: Point, alpha: RootValue) -> bool:
    """Membership in the set of points whose prefix norms never exceed alpha."""
    return m_index(x, alpha) is None


def in_A(x: Point, pair: AlphaBetaPair) -> bool:
    """Membership in the building-block set for (alpha, beta)."""
    return first_violating_index(x, pair) is None


def first_violating_index(x: Point, pair: AlphaBetaPair) -> Optional[int]:
    """Least support index past m with |x_l| >= beta; None if x is in A.

    m's position in the support is one bisection (`space._m_position`),
    and the coordinates after it are tested by `_violation_past`.
    """
    alpha = pair.alpha
    return _violation_past(x, pair, _m_position(x, alpha.num, alpha.den))


def _violation_past(x: Point, pair: AlphaBetaPair, pos: int) -> Optional[int]:
    """Least support index after position pos with |x_l| >= beta, if any.

    With beta^2 = bn/bd and x_l = num/D, |x_l| >= beta iff num^2 * bd >
    bn * D^2 (equality is impossible: beta is irrational) iff |num| >
    isqrt(bn * D^2 // bd): one integer root, then one comparison per entry.
    """
    nums = x._nums
    if pos + 1 >= len(nums):
        return None
    beta = pair.beta
    bound = isqrt(beta.num * x._den_sq // beta.den)
    for k in range(pos + 1, len(nums)):
        if abs(nums[k]) > bound:
            return x.support[k]
    return None


def in_O(x: Point, schedule: Schedule) -> bool:
    """Membership in the schedule intersection, decided finitely and in
    integers by `first_failing_n`: once the whole point lies inside the
    alpha_n ball, membership in the n-th set and every later one is
    automatic, so a point inside the alpha_1 ball is decided by one
    product, with no root.
    """
    return first_failing_n(x, schedule) is None


def first_failing_n(x: Point, schedule: Schedule) -> Optional[int]:
    """Least schedule index whose A-set excludes x; None when x is in O.

    Decided in the integers of the point and of the schedule's scales
    a = u/v and b = s/t, with alpha_n^4 = 2*u^4*n^4/v^4 and beta_n^2 =
    2*s^2/(t^2*n^2); no threshold pair is built. alpha_n increases, so
    m_n's support position pos never decreases: the schedule indices split
    into runs of constant m_n, at most one per support position, and end
    at the first n with no m_n (or with m_n at the last position), where x
    is in A_n and in every later A-set.

    Every index before n passes. With pos = m_n's position and M the
    largest |numerator| after it, an index n' of pos's run fails exactly
    when n'^2 * t^2 * M^2 > 2 * s^2 * D^2 (never equal: 2 is not a rational
    square), first at f = isqrt(2*s^2*D^2 // (t^2*M^2)) + 1. If f <= n,
    n fails; if f is still in pos's run (P_pos/D^2 > alpha_f^2), f is the
    answer. Otherwise every n' < f passes, later runs included, because a
    later m_n' leaves fewer coordinates to test, and the search jumps to f,
    whose m_f lies past pos: at most |support| steps, each one
    `_m_position` and one small root.
    """
    u, v, s, t = schedule._scales
    nums, prefix, d2 = x._nums, x._prefix_sq, x._den_sq
    last = len(nums) - 1
    a4, v4 = 2 * u ** 4, v ** 4
    b2, t2 = 2 * s * s * d2, t * t
    n = 1
    while True:
        pos = _m_position(x, a4 * n ** 4, v4)
        if pos >= last:  # no m_n, or no coordinate after it
            return None
        top = max(map(abs, nums[pos + 1:]))
        f = isqrt(b2 // (t2 * top * top)) + 1
        if f <= n:
            return n
        p = prefix[pos]
        if p * p * v4 > a4 * f ** 4 * d2 * d2:
            return f
        n = f


def closedness_radius(z: Point, pair: AlphaBetaPair,
                      den_cap: int = DEFAULT_DEN_CAP) -> RadiusCertificate:
    """Certified radius around z whose whole ball stays outside A.

    Requires z outside A: m exists and some coordinate past it reaches
    beta. l0 is the least such support index (the strict inequality
    |z_l0| > beta is automatic: the coordinate is rational, beta is not).
    The radius is min(|z_l0| - beta, prefix-norm margin over alpha).
    """
    alpha = pair.alpha
    pos = _m_position(z, alpha.num, alpha.den)
    l0 = _violation_past(z, pair, pos)
    if l0 is None:
        raise PreconditionViolatedError("point is inside A; no closedness radius")
    m = z.support[pos]
    coord_margin = RootExpr.coerce(abs(z.coordinate(l0))) - pair.beta
    prefix_margin = sqrt_expr(z.prefix_norm_sq(m)) - alpha
    return RadiusCertificate(
        kind=CertificateKind.CLAIM2_R0,
        bound=largest_rational_at_most(expr_min(coord_margin, prefix_margin), den_cap),
        components={
            "m": m,
            "l0": l0,
            "coordinate_margin": coord_margin,
            "prefix_margin": prefix_margin,
        },
    )


def openness_radius(x: Point, pair: AlphaBetaPair,
                    den_cap: int = DEFAULT_DEN_CAP) -> RadiusCertificate:
    """Certified radius around x whose whole ball stays inside A.

    When m does not exist the point's norm is strictly below alpha (its
    square is rational, alpha^2 is not) and the ball margin alpha - |x| is
    enough. (The boundary branch |x| = alpha of the underlying argument is
    unreachable for finite-support points.) When m exists the radius is
    min(prefix margin, beta/2, h, a) with l0 the least index whose tail
    sum of squares drops below (beta/2)^2, h the closest approach of the
    coordinates up to l0 to beta, and a the previous-prefix margin (the
    sentinel 1 when m = 1, kept verbatim for traceability).
    """
    alpha, beta = pair.alpha, pair.beta
    pos = _m_position(x, alpha.num, alpha.den)
    if pos == len(x.support):
        margin = RootExpr.coerce(alpha) - sqrt_expr(x.norm_sq())
        return RadiusCertificate(
            kind=CertificateKind.CLAIM1_MARGIN,
            bound=largest_rational_at_most(margin, den_cap),
            components={"ball_margin": margin},
        )
    # |num|/D < beta iff |num| <= bound (as in `_violation_past`); this one
    # root serves the precondition and h below
    bn, bd = beta.num, beta.den
    bound = isqrt(bn * x._den_sq // bd)
    if any(abs(n) > bound for n in x._nums[pos + 1:]):
        raise PreconditionViolatedError("point is outside A; no openness radius")
    m = x.support[pos]

    # the tail sum from l only changes just past a support index (and is 0
    # past the last one), so l0 is 1 or one past some support index. Past
    # position k the tail is (total - P_k) / D^2, below beta^2/4 = bn/(4bd)
    # iff 4*bd*(total - P_k) < bn*D^2 iff P_k > total - ceil(bn*D^2/(4*bd)),
    # and the prefix sums P_k strictly increase: one bisection.
    prefix = x._prefix_sq
    threshold = prefix[-1] + (-bn * x._den_sq // (4 * bd))
    l0 = 1 if threshold < 0 else x.support[bisect_right(prefix, threshold)] + 1

    beta_half = RootExpr([(Fraction(1, 2), beta)])

    # h: the closest approach to beta of |x_l| = |num|/D over l <= l0 (an
    # empty position is 0). Position l0 is empty or below beta/2, so the
    # largest b <= bound exists (0 if empty), and beta - b/D is below
    # a/D - beta for the least a > bound iff (a + b)^2 * bd > 4*bn*D^2
    # (never equal: beta is irrational).
    nums = [abs(n) for n in x._nums[:bisect_right(x.support, l0)]]
    b = max((n for n in nums if n <= bound), default=0)
    a = min((n for n in nums if n > bound), default=None)
    if a is None or (a + b) ** 2 * bd > 4 * bn * x._den_sq:
        h_expr = RootExpr.coerce(beta) - Fraction(b, x._den)
    else:
        h_expr = RootExpr.coerce(Fraction(a, x._den)) - beta

    if m == 1:
        a_expr = RootExpr.coerce(Fraction(1))
    else:
        a_expr = RootExpr.coerce(alpha) - sqrt_expr(x.prefix_norm_sq(m - 1))

    prefix_margin = sqrt_expr(x.prefix_norm_sq(m)) - alpha
    return RadiusCertificate(
        kind=CertificateKind.CLAIM3_R,
        bound=largest_rational_at_most(expr_min(prefix_margin, beta_half, h_expr, a_expr),
                                       den_cap),
        components={
            "m": m,
            "l0": l0,
            "prefix_margin": prefix_margin,
            "beta_half": beta_half,
            "h": h_expr,
            "a": a_expr,
        },
    )


def o_openness_radius(x: Point, schedule: Schedule,
                      den_cap: int = DEFAULT_DEN_CAP) -> RadiusCertificate:
    """Certified radius around x whose whole ball stays inside O.

    n0 is the least index with |x| < alpha_n0; the ball of the certified
    bound sits inside every A-set up to n0 and inside the alpha_n0 ball
    around 0, and that neighborhood is contained in O. x lies in every
    A-set from n0 on, so the loop decides membership in O: a point outside
    O fails the precondition of the first n's certificate whose A-set
    excludes it, and the error names that n.
    """
    n0 = schedule.least_n_with_alpha_above(x.norm_sq())
    bounds = {}
    for n in range(1, n0 + 1):
        try:
            cert = openness_radius(x, schedule.pair_at(n), den_cap)
        except PreconditionViolatedError:
            raise PreconditionViolatedError(
                f"point is outside O (A_{n} excludes it); no O-openness radius") from None
        bounds[str(n)] = cert.bound
    return RadiusCertificate(
        kind=CertificateKind.CLAIM4_W,
        bound=min(bounds.values()),
        components={
            "n0": n0,
            "per_n_bounds": {k: format_rational(v) for k, v in bounds.items()},
            # |x| < alpha_n0, so the n0 certificate is the alpha_n0 ball margin
            "ball_margin": cert.components["ball_margin"],
        },
    )
