"""Finite-support rational sequences: the computable points of the space.

Only finitely supported points are represented. They are dense in the full
space and every membership predicate used here is exactly decidable on
them; an infinite-support point would need a stream interface with no
exact decision procedure. Indices are 1-based.

A point is stored once, in one canonical integer form: its support (the
increasing tuple of indices with nonzero coordinates), one integer
numerator per support index, and one common denominator D > 0 with
gcd(D, numerators) = 1, so coordinate k is nums[k] / D. Equality and
hashing compare that triple. Every constructor goes through
`Point._canonicalise`, which drops zeros, divides out the gcd and builds
the integer prefix sums of squared numerators that the membership
predicates (which run in tight sampling loops) search instead of
allocating Fractions. `entries` derives the `(index, Fraction)` pairs on
request.

The prefix sums strictly increase, so the first-exceedance index for alpha
is found on them by `_m_position`, which takes alpha^4 as two integers:
one product against the whole norm decides that there is none, and
otherwise one integer root and one bisection find it. Every decision of
m, A and O goes through it on integers only, with no Fraction built.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd, isqrt, lcm
from typing import Iterable, Mapping, Optional, Sequence, Union

from .exact import MAX_DIGITS, InputError, RootValue, format_rational, parse_rational

EntryLike = Union[Mapping[int, Fraction], Iterable[tuple[int, Fraction]]]

_set = object.__setattr__


@dataclass(frozen=True, init=False, repr=False)
class Point:
    """Immutable sparse sequence with nonzero rational coordinates."""

    __slots__ = ("support", "_nums", "_den", "_prefix_sq", "_den_sq")
    # the fields == and hash compare; the two derived slots are not fields
    support: tuple
    _nums: tuple
    _den: int

    def __init__(self, entries: EntryLike = ()):
        items = entries.items() if isinstance(entries, Mapping) else entries
        coords = {}
        for index, value in items:
            if not isinstance(index, int) or index < 1:
                raise InputError(f"indices must be positive integers, got {index!r}")
            if index in coords:
                raise InputError(f"duplicate index {index}")
            coords[index] = Fraction(value)
        support = sorted(coords)
        den = lcm(*(value.denominator for value in coords.values()))
        self._canonicalise(support, [coords[i].numerator * (den // coords[i].denominator)
                                     for i in support], den)

    def _canonicalise(self, support: Sequence[int], nums: Sequence[int],
                      den: int) -> "Point":
        """Store coordinates nums[k] / den at the increasing indices
        support[k] in canonical form; the one path every point is built by."""
        if not all(nums):
            support = [i for i, n in zip(support, nums) if n]
            nums = [n for n in nums if n]
        g = gcd(den, *nums)
        if g != 1:
            den //= g
            nums = [n // g for n in nums]
        _set(self, "support", tuple(support))
        _set(self, "_nums", tuple(nums))
        _set(self, "_den", den)
        _set(self, "_prefix_sq", tuple(accumulate(n * n for n in nums)))
        _set(self, "_den_sq", den * den)
        return self

    @classmethod
    def _from_ints(cls, support: Sequence[int], nums: Sequence[int],
                   den: int) -> "Point":
        """Internal constructor for increasing positive indices, integer
        numerators (zeros allowed) and a positive common denominator."""
        return cls.__new__(cls)._canonicalise(support, nums, den)

    def __reduce__(self):  # as `RootValue.__reduce__`; the derived slots are rebuilt
        return Point._from_ints, (self.support, self._nums, self._den)

    @property
    def entries(self) -> tuple[tuple[int, Fraction], ...]:
        """The nonzero coordinates as (index, value) pairs, by index."""
        den = self._den
        return tuple((i, Fraction(n, den)) for i, n in zip(self.support, self._nums))

    def coordinate(self, index: int) -> Fraction:
        pos = bisect_left(self.support, index)
        if pos < len(self.support) and self.support[pos] == index:
            return Fraction(self._nums[pos], self._den)
        return Fraction(0)

    def is_zero(self) -> bool:
        return not self.support

    def norm_sq(self) -> Fraction:
        """Exact sum of squared coordinates."""
        return Fraction(self._prefix_sq[-1] if self.support else 0, self._den_sq)

    def prefix_norm_sq(self, index: int) -> Fraction:
        """Exact sum of squared coordinates over positions <= index."""
        pos = bisect_right(self.support, index)
        return Fraction(self._prefix_sq[pos - 1] if pos else 0, self._den_sq)

    def __repr__(self):
        inner = ", ".join(f"{i}: {v}" for i, v in self.entries)
        return f"Point({{{inner}}})"

    def to_json(self) -> dict:
        return {"coords": {str(i): format_rational(v) for i, v in self.entries}}

    @classmethod
    def from_json(cls, data: dict) -> "Point":
        coords = data.get("coords", {}) if isinstance(data, dict) else None
        if not isinstance(coords, dict):
            raise InputError('a point must be a JSON object {"coords": {"index": "p/q", ...}}')
        for key in data:
            if key != "coords":
                raise InputError(f"unknown point key {key!r} (expected 'coords')")
        # ASCII digits only: int() also takes spaces, underscores and
        # other scripts' digits
        for key in coords:
            if not (key.isascii() and key.isdigit()):
                raise InputError(f"invalid point index: {key!r} (expected ASCII digits)")
            if len(key) > MAX_DIGITS:
                raise InputError(f"invalid point index: more than {MAX_DIGITS} digits")
        return cls((int(key), parse_rational(text)) for key, text in coords.items())


ZERO = Point()


def unit(index: int) -> Point:
    """The standard unit vector at the given 1-based index."""
    if index < 1:
        raise InputError(f"indices must be positive integers, got {index!r}")
    return Point._from_ints((index,), (1,), 1)


def add(x: Point, y: Point) -> Point:
    return _add_ints(x, y.support, y._nums, y._den)


def _add_ints(x: Point, support: Sequence[int], nums: Sequence[int], den: int) -> Point:
    """x plus nums[k] / den at the increasing indices support[k], canonicalised once."""
    common = lcm(x._den, den)
    fx, fy = common // x._den, common // den
    merged = dict(zip(x.support, [n * fx for n in x._nums]))
    for index, n in zip(support, nums):
        merged[index] = merged.get(index, 0) + n * fy
    indices = sorted(merged)
    return Point._from_ints(indices, [merged[i] for i in indices], common)


def scale(factor: Fraction, x: Point) -> Point:
    p, q = Fraction(factor).as_integer_ratio()
    return Point._from_ints(x.support, [n * p for n in x._nums], x._den * q)


def m_index(x: Point, alpha: RootValue) -> Optional[int]:
    """Least m whose prefix sum of squares exceeds alpha^2, if any.

    alpha must be a degree-4 root so that alpha^2 (a degree-2 root of the
    same base) is irrational and the exceedance test has no boundary case.
    Partial sums only change at support indices, so m is a support index,
    found by `_m_position` on alpha's integers; returns None exactly when
    x.norm_sq() < alpha^2.
    """
    if alpha.degree != 4:
        raise ValueError(f"m_index needs a degree-4 threshold, got degree {alpha.degree}")
    pos = _m_position(x, alpha.num, alpha.den)
    return x.support[pos] if pos < len(x.support) else None


def _m_position(x: Point, num: int, den: int) -> int:
    """Position in x.support of the first-exceedance index for the alpha
    with alpha^4 = num/den (positive integers, in lowest terms or not, and
    alpha^2 irrational), or len(x.support) when there is none.

    With prefix sums P over D^2, P/D^2 > alpha^2 iff P^2 * den > num * D^4
    (equality is impossible: alpha^2 is irrational). The last prefix sum
    is the whole norm: when it stays below, there is no m and one product
    decides it. Otherwise P/D^2 > alpha^2 iff P > isqrt(num * D^4 // den)
    (P is an integer, and the floor of num * D^4 / den does not depend on
    the representation), and the prefix sums strictly increase, so one
    bisection finds the first.
    """
    prefix = x._prefix_sq
    if not prefix:
        return 0
    target = num * x._den_sq * x._den_sq
    last = prefix[-1]
    if last * last * den < target:
        return len(prefix)
    return bisect_right(prefix, isqrt(target // den))
