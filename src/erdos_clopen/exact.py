"""Exact rational arithmetic and exact ordering against square/fourth roots.

Every predicate downstream (memberships, radius certificates, witness
construction) reduces to ordering questions of the forms

    rational  vs  base^(1/degree)                     (degree 2 or 4)
    a1 +/- b1*root1  vs  a2 +/- b2*root2              (two-term expressions)

Both are decided with integer arithmetic only: a positive rational s
compares to base^(1/d) exactly as s^d compares to base, and multi-term
differences are first tested for exact equality (by merging rationally
dependent root terms; radicals in distinct classes are linearly
independent over the rationals) and then separated by interval
enclosures whose endpoints come from integer square roots. No floating
point is involved anywhere.

`Fraction` is the rational type throughout; it already maintains the
canonical form (positive denominator, gcd 1).
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from enum import Enum
from math import isqrt
from typing import Callable, Iterable, Optional, Union


class Ordering(Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


class ExactError(Exception):
    """Base class for errors raised by the exact-arithmetic layer."""


class InvalidRootError(ExactError):
    """The base of a root value is a rational square, so the root is rational."""


class UnsupportedFormError(ExactError):
    """An expression falls outside the two-term fragment."""


class EmptyIntervalError(ExactError):
    """Interval endpoints with lo >= hi."""


_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse exact "p/q" (or plain integer "p") syntax; no decimals.

    Raises ValueError on anything else, including a zero denominator.
    """
    if not isinstance(text, str) or not _RATIONAL_RE.match(text.strip()):
        raise ValueError(f"invalid rational: {text!r} (expected p/q syntax)")
    text = text.strip()
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise ValueError(f"invalid rational: {text!r} (zero denominator)")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def format_rational(value: Fraction) -> str:
    """Canonical "p/q" string, denominator always written."""
    return f"{value.numerator}/{value.denominator}"


def _iroot_exact(n: int, degree: int) -> Optional[int]:
    """Return r with r**degree == n for n >= 0, else None."""
    if n < 0:
        return None
    if degree == 2:
        r = isqrt(n)
        return r if r * r == n else None
    # degree 4: floor(n^(1/4)) == isqrt(isqrt(n))
    r = isqrt(isqrt(n))
    return r if r ** 4 == n else None


def is_rational_power(value: Fraction, degree: int) -> Optional[Fraction]:
    """Return positive rational r with r**degree == value, if one exists."""
    if value <= 0:
        return None
    pn = _iroot_exact(value.numerator, degree)
    if pn is None:
        return None
    pd = _iroot_exact(value.denominator, degree)
    if pd is None:
        return None
    return Fraction(pn, pd)


def is_rational_square(value: Fraction) -> bool:
    return is_rational_power(value, 2) is not None


class RootValue:
    """The positive real base^(1/degree), degree 2 or 4, guaranteed irrational.

    The constructor rejects bases that are rational squares: for degree 2
    that would make the value rational; for degree 4 it would make the
    value's square rational. Either breaks the strict-inequality arguments
    downstream, so it is an error (InvalidRootError).
    """

    __slots__ = ("base", "degree")

    def __init__(self, base: Fraction, degree: int):
        base = Fraction(base)
        if degree not in (2, 4):
            raise InvalidRootError(f"degree must be 2 or 4, got {degree}")
        if base <= 0:
            raise InvalidRootError(f"base must be positive, got {base}")
        if is_rational_square(base):
            raise InvalidRootError(
                f"base {base} is the square of a rational; {base}^(1/{degree}) "
                "would not be irrational"
            )
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "degree", degree)

    def __setattr__(self, name, value):
        raise AttributeError("RootValue is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, RootValue)
            and self.base == other.base
            and self.degree == other.degree
        )

    def __hash__(self):
        return hash((self.base, self.degree))

    def __repr__(self):
        return f"RootValue({self.base!r}, degree={self.degree})"

    def to_json(self) -> dict:
        return {"base": format_rational(self.base), "degree": self.degree}

    @classmethod
    def from_json(cls, data: dict) -> "RootValue":
        return cls(parse_rational(data["base"]), int(data["degree"]))


def cmp_rational_vs_root(s: Fraction, t: RootValue) -> Ordering:
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
    if power < t.base:
        return Ordering.LESS
    if power > t.base:
        return Ordering.GREATER
    raise InvalidRootError(f"base {t.base} is a perfect {t.degree}th power")


# ---------------------------------------------------------------------------
# Root expressions: signed sums of terms, each rational or rational*RootValue.
# ---------------------------------------------------------------------------

#: A term is (coefficient, root-or-None); None means the term is the plain
#: coefficient.
Term = tuple[Fraction, Optional[RootValue]]

ExprLike = Union["RootExpr", Fraction, int, RootValue]


class RootExpr:
    """Immutable signed sum of rational and rational*root terms.

    The public comparison API (`cmp_root_expr`) only accepts expressions of
    at most two terms; internal machinery (interval selection, certificate
    minima) may build longer sums.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[Term]):
        cleaned = []
        for coef, root in terms:
            coef = Fraction(coef)
            if coef == 0:
                continue
            if root is not None and not isinstance(root, RootValue):
                raise TypeError(f"expected RootValue, got {type(root).__name__}")
            cleaned.append((coef, root))
        object.__setattr__(self, "terms", tuple(cleaned))

    def __setattr__(self, name, value):
        raise AttributeError("RootExpr is immutable")

    @classmethod
    def coerce(cls, value: ExprLike) -> "RootExpr":
        if isinstance(value, RootExpr):
            return value
        if isinstance(value, RootValue):
            return cls([(Fraction(1), value)])
        return cls([(Fraction(value), None)])

    @classmethod
    def of_rational(cls, value: Fraction) -> "RootExpr":
        return cls([(Fraction(value), None)])

    @classmethod
    def of_root(cls, coef: Fraction, root: RootValue) -> "RootExpr":
        return cls([(Fraction(coef), root)])

    def __add__(self, other: ExprLike) -> "RootExpr":
        other = RootExpr.coerce(other)
        return RootExpr(self.terms + other.terms)

    def __sub__(self, other: ExprLike) -> "RootExpr":
        other = RootExpr.coerce(other)
        return RootExpr(self.terms + tuple((-c, r) for c, r in other.terms))

    def __neg__(self) -> "RootExpr":
        return RootExpr(tuple((-c, r) for c, r in self.terms))

    def __eq__(self, other):
        return isinstance(other, RootExpr) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

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

    @classmethod
    def from_json(cls, data: dict) -> "RootExpr":
        terms = []
        for item in data["terms"]:
            coef = parse_rational(item["coef"])
            root = RootValue.from_json(item["root"]) if "root" in item else None
            terms.append((coef, root))
        return cls(terms)


@lru_cache(maxsize=65536)
def _root_enclosure(n: int, degree: int, bits: int) -> tuple[Fraction, Fraction]:
    """Strict rational enclosure of n^(1/degree) with width 2^-bits.

    n is a positive integer that is not a perfect power of the degree, so
    the floor below is never exact and both bounds are strict.
    """
    scale = 1 << bits
    if degree == 2:
        r = isqrt(n * scale * scale)
    else:
        r = isqrt(isqrt(n * scale ** 4))
    return Fraction(r, scale), Fraction(r + 1, scale)


def _canonical_root_term(coef: Fraction, root: RootValue) -> tuple[Fraction, int, int]:
    """Rewrite coef*(p/q)^(1/d) as coef'*N^(1/d) with N a positive integer.

    (p/q)^(1/d) = (p*q^(d-1))^(1/d) / q.
    """
    p, q = root.base.numerator, root.base.denominator
    n = p * q ** (root.degree - 1)
    return coef / q, n, root.degree


class _Value:
    """Canonical form of a RootExpr value with lazy certified enclosure.

    After construction, `rational` holds the plain part and `roots` holds
    (coef, n, degree) triples over distinct irrationality classes: any two
    root terms whose ratio is rational have been merged, so the whole value
    is zero only when every component is zero. Comparisons against
    rationals are answered from a cached enclosure that refines on demand.
    """

    __slots__ = ("rational", "roots", "_bits", "_lo", "_hi")

    _START_BITS = 64
    _MAX_BITS = 1 << 22  # separation guard; unreachable for nonzero values

    def __init__(self, expr: RootExpr):
        rational = Fraction(0)
        roots: list[tuple[Fraction, int, int]] = []
        for coef, root in expr.terms:
            if root is None:
                rational += coef
                continue
            coef2, n, degree = _canonical_root_term(coef, root)
            roots.append((coef2, n, degree))
        self.rational = rational
        self.roots = _merge_dependent(roots)
        self._bits = 0
        self._lo: Optional[Fraction] = None
        self._hi: Optional[Fraction] = None

    def is_zero(self) -> bool:
        return self.rational == 0 and not self.roots

    def is_rational(self) -> Optional[Fraction]:
        return self.rational if not self.roots else None

    def _refine(self, bits: int) -> None:
        lo = hi = self.rational
        for coef, n, degree in self.roots:
            rlo, rhi = _root_enclosure(n, degree, bits)
            if coef > 0:
                lo += coef * rlo
                hi += coef * rhi
            else:
                lo += coef * rhi
                hi += coef * rlo
        self._bits, self._lo, self._hi = bits, lo, hi

    def sign(self) -> int:
        """Exact sign: -1, 0, or +1."""
        if not self.roots:
            return -1 if self.rational < 0 else (1 if self.rational > 0 else 0)
        if self.rational == 0 and len(self.roots) == 1:
            return 1 if self.roots[0][0] > 0 else -1
        # Nonzero by linear independence of the merged classes.
        return self.compare_to(Fraction(0)).value

    def compare_to(self, other: Fraction) -> Ordering:
        """Exact ordering of this value against a rational."""
        if not self.roots:
            diff = self.rational - other
            if diff < 0:
                return Ordering.LESS
            return Ordering.GREATER if diff > 0 else Ordering.EQUAL
        # value - other is nonzero: subtracting a rational cannot cancel the
        # independent root part.
        bits = max(self._bits, self._START_BITS)
        while True:
            if self._bits < bits:
                self._refine(bits)
            if self._hi < other:
                return Ordering.LESS
            if self._lo > other:
                return Ordering.GREATER
            bits *= 2
            if bits > self._MAX_BITS:
                raise RuntimeError("enclosure failed to separate a nonzero value")


def _merge_dependent(
    roots: list[tuple[Fraction, int, int]],
) -> tuple[tuple[Fraction, int, int], ...]:
    """Merge root terms whose ratio is rational; drop zero coefficients.

    Two terms c1*n1^(1/d) and c2*n2^(1/d) of the same degree collapse when
    n1/n2 = r^d for rational r (then n1^(1/d) = r*n2^(1/d)). Terms of
    different degrees never collapse: a fourth root of a non-square cannot
    be a rational multiple of a square root. Afterwards the surviving
    classes together with 1 are linearly independent over the rationals,
    which is what makes the zero test in _Value exact.
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


_ORDER_FROM_SIGN = {-1: Ordering.LESS, 0: Ordering.EQUAL, 1: Ordering.GREATER}


def _validate_two_term(expr: RootExpr, side: str) -> None:
    if len(expr.terms) > 2:
        raise UnsupportedFormError(
            f"{side} has {len(expr.terms)} terms; at most two are supported"
        )


def cmp_root_expr(lhs: ExprLike, rhs: ExprLike) -> Ordering:
    """Exact ordering of two signed sums of at most two terms each.

    Returns EQUAL precisely when the two expressions denote the same real
    number. Raises UnsupportedFormError beyond the two-term fragment.
    """
    lhs = RootExpr.coerce(lhs)
    rhs = RootExpr.coerce(rhs)
    _validate_two_term(lhs, "lhs")
    _validate_two_term(rhs, "rhs")
    return _ORDER_FROM_SIGN[_Value(lhs - rhs).sign()]


def expr_min(*exprs: ExprLike) -> RootExpr:
    """The minimum of the given expressions, decided exactly."""
    if not exprs:
        raise ValueError("expr_min needs at least one expression")
    best = RootExpr.coerce(exprs[0])
    for candidate in exprs[1:]:
        candidate = RootExpr.coerce(candidate)
        if _Value(candidate - best).sign() < 0:
            best = candidate
    return best


def least_true(pred: Callable[[int], bool], known_false: int = 0) -> int:
    """Least n > known_false with pred(n), for pred monotone (false, then
    true for good) on the integers past known_false.

    Doubles from max(1, 2*known_false) until pred holds, then bisects the
    last doubling step, so it makes O(log n) calls. pred(known_false) is
    taken as false and never called.
    """
    lo, hi = known_false, max(1, 2 * known_false)
    while not pred(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _floor_value(value: _Value) -> int:
    """Largest integer <= the value; the value must be nonnegative."""
    exact = value.is_rational()
    if exact is not None:
        if exact < 0:
            raise ValueError("_floor_value expects a nonnegative value")
        return exact.numerator // exact.denominator
    if value.compare_to(Fraction(0)) == Ordering.LESS:
        raise ValueError("_floor_value expects a nonnegative value")
    # irrational here, so the value never equals an integer
    return least_true(lambda n: value.compare_to(Fraction(n)) == Ordering.LESS) - 1


def rational_in_interval(lo: ExprLike, hi: ExprLike) -> Fraction:
    """Deterministic rational strictly inside (lo, hi).

    Returns the smallest-denominator rational in the open interval, ties
    broken by smallest numerator magnitude, found by mediant descent on the
    Stern-Brocot tree (with run-length galloping, so tiny intervals cost
    logarithmic work). Raises EmptyIntervalError when lo >= hi.
    """
    lo_expr = RootExpr.coerce(lo)
    hi_expr = RootExpr.coerce(hi)
    if _Value(lo_expr - hi_expr).sign() >= 0:
        raise EmptyIntervalError(f"empty interval: lo {lo_expr!r} >= hi {hi_expr!r}")
    lo_val = _Value(lo_expr)
    hi_val = _Value(hi_expr)
    if lo_val.sign() < 0:
        if hi_val.sign() > 0:
            return Fraction(0)
        # entirely nonpositive: mirror into the positive cone
        return -_positive_mediant_search(_Value(-hi_expr), _Value(-lo_expr))
    return _positive_mediant_search(lo_val, hi_val)


def _positive_mediant_search(lo: _Value, hi: _Value) -> Fraction:
    """Stern-Brocot walk for 0 <= lo < hi; first tree node inside wins."""
    a, b = 0, 1  # left fence  a/b <= lo
    c, d = 1, 0  # right fence c/d >= hi
    while True:
        p, q = a + c, b + d
        med = Fraction(p, q)
        side = lo.compare_to(med)
        # each walk takes the largest step j; step 1 is the mediant just compared
        if side != Ordering.LESS:  # med <= lo: walk right
            j = least_true(lambda k: lo.compare_to(Fraction(a + k * c, b + k * d))
                           == Ordering.LESS, 1) - 1
            a, b = a + j * c, b + j * d
        elif hi.compare_to(med) != Ordering.GREATER:  # med >= hi: walk left
            j = least_true(lambda k: hi.compare_to(Fraction(c + k * a, d + k * b))
                           == Ordering.GREATER, 1) - 1
            c, d = c + j * a, d + j * b
        else:
            return med


def largest_rational_at_most(value: ExprLike, den_cap: int) -> Fraction:
    """Largest p/q <= value with 1 <= q <= den_cap, for positive values.

    Walks the Stern-Brocot tree toward the value. While the fences
    (lower a/b <= value, upper c/d > value) have mediant denominator b+d
    within the cap, the walk continues; once b+d exceeds it, every rational
    strictly above a/b and at most the value has denominator >= b+d, so a/b
    is the answer. If that answer is 0 (the value lies below 1/den_cap),
    falls back to 1/q for the least workable q, deliberately exceeding the
    cap so the result stays positive.
    """
    if den_cap < 1:
        raise ValueError(f"den_cap must be >= 1, got {den_cap}")
    val = _Value(RootExpr.coerce(value))
    if val.sign() <= 0:
        raise ValueError("largest_rational_at_most expects a positive value")
    exact = val.is_rational()
    if exact is not None and exact.denominator <= den_cap:
        return exact
    f = _floor_value(val)
    a, b = f, 1        # a/b <= value
    c, d = f + 1, 1    # c/d > value
    while b + d <= den_cap:
        side = val.compare_to(Fraction(a + c, b + d))
        if side == Ordering.GREATER:
            # mediant < value: improve the lower fence, but never past the cap
            # (bounding the probe also keeps it finite when the upper fence
            # has already collapsed onto a rational value); as in the
            # mediant search, step 1 is the mediant just compared
            j_cap = (den_cap - b) // d
            j = least_true(lambda k: k > j_cap or val.compare_to(
                Fraction(a + k * c, b + k * d)) != Ordering.GREATER, 1) - 1
            a, b = a + j * c, b + j * d
        elif side == Ordering.LESS:
            # mediant > value: tighten the upper fence (its denominator is
            # allowed to exceed the cap; only the lower fence is the answer)
            j = least_true(lambda k: val.compare_to(Fraction(c + k * a, d + k * b))
                           != Ordering.LESS, 1) - 1
            c, d = c + j * a, d + j * b
        else:
            # mediant == value: possible only for a rational value whose
            # denominator exceeds the cap; approach it from below
            c, d = a + c, b + d
    if a > 0:
        return Fraction(a, b)
    # value < 1/den_cap: smallest q with 1/q <= value keeps the bound positive
    return Fraction(1, least_true(
        lambda k: val.compare_to(Fraction(1, k)) != Ordering.LESS, 1))
