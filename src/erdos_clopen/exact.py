"""Exact rational arithmetic and exact ordering against square/fourth roots.

Every predicate downstream (memberships, radius certificates, witness
construction) reduces to ordering questions of the forms

    rational  vs  base^(1/degree)                     (degree 2 or 4)
    a1 +/- b1*root1  vs  a2 +/- b2*root2              (two-term expressions)

and to two choices of a rational: the largest one below a value with a
capped denominator (certified radius bounds) and the simplest one inside
an interval (the witness rational q).

Every operand, a lone rational or root included, is one `RootExpr`,
which builds its canonical form on first use and keeps it (integer
radicands, rationally dependent root terms merged; radicals in distinct
classes are linearly independent over the rationals, so the zero test is
exact). Each expression also keeps one integer enclosure lo/den < value <
hi/den, whose root bounds come from integer square roots and which
`_settle` refines by doubling its precision until a decision holds at
both ends. An order is read from the two operands' enclosures; only when
they overlap is their difference built and its sign, zero test included,
decided exactly. The two choices are made by integer continued fractions
on the ends of a value's enclosure: a Stern-Brocot walk from the lower
end whose steps are quotients of integers, checked against the upper end
by one product with the walk's Farey successor, and the simplest-rational
recursion over partial quotients. The minimum `expr_min` returns keeps
the canonical form and enclosure its comparisons built, so a
certificate's bound below it starts from them. No floating point is
involved anywhere.

`Fraction` is the rational type of the public API; it already maintains
the canonical form (positive denominator, gcd 1).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from enum import Enum
from math import isqrt, lcm
from typing import Callable, Iterable, Optional, TypeVar, Union

T = TypeVar("T")


class Ordering(Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


class InputError(ValueError):
    """A value from outside the program is rejected: a flag, a JSON
    document, or an argument of the public API. The CLI reports it in one
    line and exits 2; any other exception is a bug."""


class InvalidRootError(InputError):
    """The base of a root value is a rational square, so the root is rational."""


class UnsupportedFormError(ValueError):
    """An expression falls outside the two-term fragment."""


class EmptyIntervalError(ValueError):
    """Interval endpoints with lo >= hi."""


# [0-9], not \d: \d and int() also take other scripts' digits
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")

#: Most digits a numeral of the input may have: CPython's default limit for
#: converting between int and str.
MAX_DIGITS = 4300


def parse_rational(text: str) -> Fraction:
    """Parse exact "p/q" (or plain integer "p") syntax in ASCII digits; no
    decimals, spaces or digit separators, at most MAX_DIGITS digits each.

    Raises InputError on anything else, including a zero denominator.
    """
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise InputError(f"invalid rational: {text!r} (expected p/q syntax)")
    if max(map(len, text.lstrip("+-").split("/"))) > MAX_DIGITS:
        raise InputError(f"invalid rational: a numeral has more than {MAX_DIGITS} digits")
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise InputError(f"invalid rational: {text!r} (zero denominator)")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def format_rational(value: Fraction) -> str:
    """Canonical "p/q" string, denominator always written."""
    return f"{value.numerator}/{value.denominator}"


def floor_root(value: Union[Fraction, int], degree: int) -> int:
    """floor(value^(1/degree)) for a rational or integer value >= 0, degree
    2 or 4: the same root of floor(value), by one or two `isqrt`s. The least
    integer k with k^degree > value is floor_root(value, degree) + 1."""
    r = isqrt(value.numerator // value.denominator)
    return isqrt(r) if degree == 4 else r


def is_rational_power(value: Fraction, degree: int) -> Optional[Fraction]:
    """Return positive rational r with r**degree == value, if one exists."""
    p, q = value.numerator, value.denominator
    if p <= 0:
        return None
    rp = floor_root(p, degree)
    if rp ** degree != p:  # most bases stop here, at the numerator's root
        return None
    rq = floor_root(q, degree)
    return Fraction(rp, rq) if rq ** degree == q else None


@dataclass(frozen=True, init=False, repr=False)
class RootValue:
    """The positive real base^(1/degree), degree 2 or 4, guaranteed irrational.

    The constructor rejects bases that are rational squares: for degree 2
    that would make the value rational; for degree 4 it would make the
    value's square rational. Either breaks the strict-inequality arguments
    downstream, so it is an error (InvalidRootError).

    The base is stored once, as the integers num/den in lowest terms
    (den > 0), which the membership and certificate paths read directly;
    `base` derives the Fraction on each read, for the cold readers (JSON,
    repr, the witness checks).
    """

    __slots__ = ("num", "den", "degree")
    num: int
    den: int
    degree: int

    def __init__(self, base: Fraction, degree: int):
        if type(base) is not Fraction:
            base = Fraction(base)
        if degree not in (2, 4):
            raise InvalidRootError(f"degree must be 2 or 4, got {degree}")
        if base.numerator <= 0:
            raise InvalidRootError(f"base must be positive, got {base}")
        if is_rational_power(base, 2) is not None:
            raise InvalidRootError(
                f"base {base} is the square of a rational; {base}^(1/{degree}) "
                "would not be irrational"
            )
        object.__setattr__(self, "num", base.numerator)
        object.__setattr__(self, "den", base.denominator)
        object.__setattr__(self, "degree", degree)

    @property
    def base(self) -> Fraction:
        return Fraction(self.num, self.den)

    def __reduce__(self):
        # copy and pickle rebuild through the constructor: the default slot
        # restore assigns to the frozen fields, which raises
        return RootValue, (self.base, self.degree)

    def __repr__(self):
        return f"RootValue({self.base!r}, degree={self.degree})"

    def to_json(self) -> dict:
        return {"base": f"{self.num}/{self.den}", "degree": self.degree}


# ---------------------------------------------------------------------------
# Root expressions: signed sums of terms, each rational or rational*RootValue.
# ---------------------------------------------------------------------------

#: A term is (coefficient, root-or-None); None means the term is the plain
#: coefficient.
Term = tuple[Fraction, Optional[RootValue]]

ExprLike = Union["RootExpr", Fraction, int, RootValue]


@dataclass(frozen=True, init=False, repr=False)
class RootExpr:
    """Immutable signed sum of rational and rational*root terms.

    The public comparison API (`cmp_root_expr`) only accepts expressions of
    at most two terms; internal machinery (interval selection, certificate
    minima) may build longer sums.

    `terms` is the one field, so ==, hash, repr and JSON read the sum as
    written. Two slots outside it are filled on first use: `_form`, the
    canonical form (rational part, merged (coef, n, degree) triples), and
    `_enclosure`, the tightest enclosure computed so far with its
    precision. Each is written as one tuple, so a reader on another thread
    sees the old value or the new one, never half of each.
    """

    __slots__ = ("terms", "_form", "_enclosure")
    terms: tuple[Term, ...]

    def __init__(self, terms: Iterable[Term]):
        cleaned = []
        for coef, root in terms:
            if type(coef) is not Fraction:
                coef = Fraction(coef)
            if not coef:
                continue
            if root is not None and not isinstance(root, RootValue):
                raise TypeError(f"expected RootValue, got {type(root).__name__}")
            cleaned.append((coef, root))
        object.__setattr__(self, "terms", tuple(cleaned))

    @classmethod
    def coerce(cls, value: ExprLike) -> "RootExpr":
        if isinstance(value, RootExpr):
            return value
        if isinstance(value, RootValue):
            return cls([(1, value)])
        return cls([(value, None)])

    def __reduce__(self):  # as `RootValue.__reduce__`; the memo slots start empty
        return RootExpr, (self.terms,)

    def __add__(self, other: ExprLike) -> "RootExpr":
        other = RootExpr.coerce(other)
        return RootExpr(self.terms + other.terms)

    def __sub__(self, other: ExprLike) -> "RootExpr":
        other = RootExpr.coerce(other)
        return RootExpr(self.terms + tuple((-c, r) for c, r in other.terms))

    def __neg__(self) -> "RootExpr":
        return RootExpr(tuple((-c, r) for c, r in self.terms))

    def __repr__(self):
        if not self.terms:
            return "RootExpr(0)"
        parts = []
        for coef, root in self.terms:
            if root is None:
                parts.append(str(coef))
            else:
                parts.append(f"{coef}*({root.base})^(1/{root.degree})")
        return "RootExpr(" + " + ".join(parts) + ")"

    def to_json(self) -> dict:
        return {
            "terms": [
                {"coef": format_rational(c)}
                if r is None
                else {"coef": format_rational(c), "root": r.to_json()}
                for c, r in self.terms
            ]
        }

    def _canonical(self) -> tuple[Fraction, tuple[tuple[Fraction, int, int], ...]]:
        """The rational part and the root terms as (coef, n, degree) triples,
        n a positive integer, over distinct irrationality classes:
        coef*(p/q)^(1/d) is rewritten as (coef/q)*(p*q^(d-1))^(1/d), then
        dependent terms are merged, so the value is zero only when every
        component is zero."""
        form = getattr(self, "_form", None)
        if form is None:
            rational = Fraction(0)
            roots = []
            for coef, root in self.terms:
                if root is None:
                    rational += coef
                else:
                    p, q = root.num, root.den
                    if q != 1:
                        coef, p = coef / q, p * q ** (root.degree - 1)
                    roots.append((coef, p, root.degree))
            form = rational, _merge_dependent(roots) if len(roots) > 1 else tuple(roots)
            object.__setattr__(self, "_form", form)
        return form

    def _enclosure_at(self, bits: int) -> tuple[int, int, int]:
        """Integers (lo, hi, den) with lo/den < value < hi/den, the width
        (hi - lo)/den of order 2^-bits; lo == hi for a rational value. A
        tighter enclosure already computed is reused."""
        rational, roots = self._canonical()
        if not roots:
            return rational.numerator, rational.numerator, rational.denominator
        memo = getattr(self, "_enclosure", None)
        if memo is None or memo[0] < bits:
            den = lcm(rational.denominator, *(coef.denominator for coef, _, _ in roots))
            lo = hi = rational.numerator * (den // rational.denominator) << bits
            for coef, n, degree in roots:
                c = coef.numerator * (den // coef.denominator)
                r = _root_enclosure(n, degree, bits)
                lo += c * (r if c > 0 else r + 1)
                hi += c * (r + 1 if c > 0 else r)
            memo = bits, (lo, hi, den << bits)
            object.__setattr__(self, "_enclosure", memo)
        return memo[1]

    def _sign(self) -> int:
        """Exact sign: -1, 0, or +1."""
        rational, roots = self._canonical()
        if not roots:
            return -1 if rational < 0 else (1 if rational > 0 else 0)
        if rational == 0 and len(roots) == 1:
            return 1 if roots[0][0] > 0 else -1
        # nonzero by linear independence of the merged classes, so some
        # enclosure excludes 0
        return _settle(lambda lo, hi, den: 1 if lo > 0 else (-1 if hi < 0 else None), self)


_START_BITS = 64
_MAX_BITS = 1 << 22  # separation guard; unreachable for nonzero values


@lru_cache(maxsize=65536)
def _root_enclosure(n: int, degree: int, bits: int) -> int:
    """The r with r/2^bits < n^(1/degree) < (r + 1)/2^bits.

    n is a positive integer that is not a perfect power of the degree, so
    the floor r of n^(1/degree) * 2^bits is never exact and both bounds are
    strict.
    """
    return floor_root(n << degree * bits, degree)


def _settle(choose: Callable[..., Optional[T]], *values: RootExpr) -> T:
    """The first answer other than None of choose(lo_1, hi_1, den_1,
    lo_2, ...), given one enclosure per value, doubling their precision
    until there is one.

    choose must answer for every enclosure narrow enough, and for exact
    rational values at once; raises RuntimeError past _MAX_BITS.
    """
    # start at the tightest enclosure any value already keeps
    bits = max(_START_BITS, *(getattr(value, "_enclosure", (0,))[0] for value in values))
    while True:
        answer = choose(*(end for value in values for end in value._enclosure_at(bits)))
        if answer is not None:
            return answer
        bits *= 2
        if bits > _MAX_BITS:
            raise RuntimeError("enclosure failed to settle a nonzero value")


def _merge_dependent(roots: list[tuple[Fraction, int, int]],
                     ) -> tuple[tuple[Fraction, int, int], ...]:
    """Merge root terms whose ratio is rational; drop zero coefficients.

    Two terms c1*n1^(1/d) and c2*n2^(1/d) of the same degree collapse when
    n1/n2 = r^d for rational r (then n1^(1/d) = r*n2^(1/d)). Terms of
    different degrees never collapse: a fourth root of a non-square cannot
    be a rational multiple of a square root. Afterwards the surviving
    classes together with 1 are linearly independent over the rationals,
    which is what makes the zero test of `RootExpr._sign` exact.
    """
    merged: list[tuple[Fraction, int, int]] = []
    for coef, n, degree in roots:
        for i, (mcoef, mn, mdegree) in enumerate(merged):
            if degree != mdegree:
                continue
            if n == mn:
                merged[i] = (mcoef + coef, mn, mdegree)
                break
            ratio = is_rational_power(Fraction(n, mn), degree)
            if ratio is not None:
                merged[i] = (mcoef + coef * ratio, mn, mdegree)
                break
        else:
            merged.append((coef, n, degree))
    return tuple((c, n, d) for c, n, d in merged if c != 0)


def _order(a: RootExpr, b: RootExpr) -> int:
    """The sign of a - b: -1, 0 or +1.

    The ends of an enclosure are strict bounds (lo == hi only for a
    rational), so when the two enclosures at _START_BITS are disjoint they
    decide a strict order at once. Only overlapping enclosures, of equal or
    very close values, build the difference and take its exact sign.
    """
    a_lo, a_hi, a_den = a._enclosure_at(_START_BITS)
    b_lo, b_hi, b_den = b._enclosure_at(_START_BITS)
    if a_hi * b_den < b_lo * a_den:
        return -1
    if b_hi * a_den < a_lo * b_den:
        return 1
    return (a - b)._sign()


def cmp_rational_vs_root(s: Fraction, t: RootValue) -> Ordering:
    """Exact order of the rational s against the irrational t, read like
    any other order from the two enclosures; never EQUAL."""
    return Ordering(_order(RootExpr.coerce(s), RootExpr.coerce(t)))


def cmp_root_expr(lhs: ExprLike, rhs: ExprLike) -> Ordering:
    """Exact ordering of two signed sums of at most two terms each.

    Returns EQUAL precisely when the two expressions denote the same real
    number. Raises UnsupportedFormError beyond the two-term fragment.
    """
    lhs, rhs = RootExpr.coerce(lhs), RootExpr.coerce(rhs)
    for side, expr in (("lhs", lhs), ("rhs", rhs)):
        if len(expr.terms) > 2:
            raise UnsupportedFormError(
                f"{side} has {len(expr.terms)} terms; at most two are supported")
    return Ordering(_order(lhs, rhs))


def expr_min(*exprs: ExprLike) -> RootExpr:
    """The minimum of the given expressions, decided exactly; the first of
    any equal minima. The winner keeps the canonical form and enclosure
    its comparisons built, for a bound read off it next."""
    if not exprs:
        raise ValueError("expr_min needs at least one expression")
    best = RootExpr.coerce(exprs[0])
    for candidate in exprs[1:]:
        candidate = RootExpr.coerce(candidate)
        if _order(candidate, best) < 0:
            best = candidate
    return best


def _simplest_between(xp: int, xq: int, yp: int, yq: int) -> Optional[Fraction]:
    """The simplest rational strictly between x = xp/xq and y = yp/yq
    (xq, yq > 0), or None when x >= y.

    0 when the interval straddles 0; otherwise the least denominator, ties
    broken by the least numerator magnitude, which for 0 <= x is the first
    Stern-Brocot node inside. With n = floor(x), the continued-fraction
    recursion takes the integer n + 1 when it lies below y, and otherwise
    answers n + 1/t for t the simplest rational in (1/(y - n), 1/(x - n));
    h/k accumulates the convergents of the partial quotients taken so far.
    """
    if xp * yq >= yp * xq:
        return None
    if xp < 0 < yp:
        return Fraction(0)
    if yp <= 0:
        return -_simplest_between(-yp, yq, -xp, xq)
    h0, h1, k0, k1 = 0, 1, 1, 0
    while True:
        n = xp // xq
        if (n + 1) * yq < yp:  # yq == 0 stands for y = infinity
            return Fraction(h1 * (n + 1) + h0, k1 * (n + 1) + k0)
        h0, h1 = h1, n * h1 + h0
        k0, k1 = k1, n * k1 + k0
        xp, xq, yp, yq = yq, yp - n * yq, xq, xp - n * xq


def rational_in_interval(lo: ExprLike, hi: ExprLike) -> Fraction:
    """Deterministic rational strictly inside (lo, hi).

    Returns 0 when the interval straddles 0 and otherwise the
    smallest-denominator rational in the open interval, ties broken by
    smallest numerator magnitude. The simplest rational of the inner
    interval (lo's upper bound, hi's lower bound) lies in (lo, hi), and
    the simplest of the outer one is at least as simple as any rational
    in (lo, hi); once the enclosures are narrow enough for the two to
    agree, that rational is the answer. Raises EmptyIntervalError when
    lo >= hi.
    """
    lo, hi = RootExpr.coerce(lo), RootExpr.coerce(hi)
    if _order(lo, hi) >= 0:
        raise EmptyIntervalError(f"empty interval: lo {lo!r} >= hi {hi!r}")

    def choose(lo_lo: int, lo_hi: int, lo_den: int,
               hi_lo: int, hi_hi: int, hi_den: int) -> Optional[Fraction]:
        inner = _simplest_between(lo_hi, lo_den, hi_lo, hi_den)
        return inner if inner == _simplest_between(lo_lo, lo_den, hi_hi, hi_den) else None

    return _settle(choose, lo, hi)


def _floor_approx(p: int, q: int, cap: int) -> tuple[int, int, int, int]:
    """Largest a/b <= p/q with 1 <= b <= cap (q > 0), as coprime (a, b),
    and e/f, the least rational above a/b with 1 <= f <= cap.

    Walks the Stern-Brocot tree between neighbouring fences a/b <= p/q <
    c/d, moving one fence per step as far as it stays on its side of p/q
    (the lower one no further than the cap allows). Once b + d exceeds the
    cap, every rational strictly between the fences has a denominator above
    it, so a/b is the answer. The fences stay Farey neighbours (bc - ad =
    1), and the rationals x/y with bx - ay = 1 are (c + ka)/(d + kb) for
    integers k; the successor e/f of a/b among denominators <= cap is the
    one with the largest such denominator, k = (cap - d) // b (negative
    when the upper fence's denominator exceeds the cap).
    """
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
    k = (cap - d) // b
    return a, b, c + k * a, d + k * b


def largest_rational_at_most(value: ExprLike, den_cap: int) -> Fraction:
    """Largest p/q <= value with 1 <= q <= den_cap, for positive values.

    For an enclosure lo <= value <= hi, the answer a/b for lo is the
    value's when no rational with denominator at most den_cap lies in
    (lo, hi], that is when hi lies below a/b's successor among those
    rationals: one walk from lo and one product. If that answer is 0 (the
    value lies below 1/den_cap), returns 1/q for the least q with
    1/q <= value, deliberately exceeding the cap so the result stays
    positive; that q is ceil(1/value), read off both ends.
    """
    value = RootExpr.coerce(value)
    if den_cap < 1:
        raise InputError(f"den_cap must be >= 1, got {den_cap}")
    if value._sign() <= 0:
        raise ValueError("largest_rational_at_most expects a positive value")
    # the walk settles once the enclosure is narrower than about den_cap^-2,
    # so start there instead of walking at each doubling on the way up
    value._enclosure_at(max(_START_BITS, 2 * den_cap.bit_length() + 8))

    def choose(lo: int, hi: int, den: int) -> Optional[Fraction]:
        a, b, e, f = _floor_approx(lo, den, den_cap)
        if hi * f >= e * den:
            return None
        if a > 0:
            return Fraction(a, b)
        if lo <= 0:
            return None
        q = -(-den // lo)
        return Fraction(1, q) if q == -(-den // hi) else None

    return _settle(choose, value)
