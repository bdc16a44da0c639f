"""Finite-support rational sequences: the computable points of the space.

Only finitely supported points are represented. They are dense in the full
space and every membership predicate used here is exactly decidable on
them; an infinite-support point would need a stream interface with no
exact decision procedure. Indices are 1-based.

Internally a point keeps its coordinates over a common denominator D with
integer prefix sums of squared numerators, so the membership predicates
(which run in tight sampling loops) compare plain integers instead of
allocating Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Optional, Union

from .exact import RootValue, format_rational, parse_rational

EntryLike = Union[Mapping[int, Fraction], Iterable[tuple[int, Fraction]]]


class Point:
    """Immutable sparse sequence with nonzero rational coordinates.

    Zero coordinates are dropped at construction (canonical form) and
    entries are kept sorted by index.
    """

    __slots__ = ("entries", "_nums", "_prefix_sq", "_den_sq", "_norm_sq")

    def __init__(self, entries: EntryLike = ()):
        if isinstance(entries, Mapping):
            items = entries.items()
        else:
            items = list(entries)
        cleaned = []
        seen = set()
        for index, value in items:
            if not isinstance(index, int) or index < 1:
                raise ValueError(f"indices must be positive integers, got {index!r}")
            if index in seen:
                raise ValueError(f"duplicate index {index}")
            seen.add(index)
            value = Fraction(value)
            if value != 0:
                cleaned.append((index, value))
        cleaned.sort()
        self._finish(tuple(cleaned))

    def _finish(self, entries: tuple[tuple[int, Fraction], ...]) -> None:
        object.__setattr__(self, "entries", entries)
        den = lcm(*(v.denominator for _, v in entries)) if entries else 1
        nums = tuple(v.numerator * (den // v.denominator) for _, v in entries)
        prefix = []
        total = 0
        for n in nums:
            total += n * n
            prefix.append(total)
        object.__setattr__(self, "_nums", nums)
        object.__setattr__(self, "_prefix_sq", tuple(prefix))
        object.__setattr__(self, "_den_sq", den * den)
        object.__setattr__(self, "_norm_sq", None)

    @classmethod
    def _from_sorted(cls, entries: tuple[tuple[int, Fraction], ...]) -> "Point":
        """Internal constructor for entries already canonical (sorted by
        index, unique, nonzero Fractions)."""
        point = cls.__new__(cls)
        point._finish(entries)
        return point

    def __setattr__(self, name, value):
        raise AttributeError("Point is immutable")

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(index for index, _ in self.entries)

    def coordinate(self, index: int) -> Fraction:
        for i, value in self.entries:
            if i == index:
                return value
            if i > index:
                break
        return Fraction(0)

    def is_zero(self) -> bool:
        return not self.entries

    def norm_sq(self) -> Fraction:
        """Exact sum of squared coordinates."""
        cached = self._norm_sq
        if cached is None:
            cached = (Fraction(self._prefix_sq[-1], self._den_sq)
                      if self.entries else Fraction(0))
            object.__setattr__(self, "_norm_sq", cached)
        return cached

    def prefix_norm_sq(self, index: int) -> Fraction:
        """Exact sum of squared coordinates over positions <= index."""
        total = 0
        for pos, (i, _) in enumerate(self.entries):
            if i > index:
                break
            total = self._prefix_sq[pos]
        return Fraction(total, self._den_sq)

    def tail_norm_sq(self, index: int) -> Fraction:
        """Exact sum of squared coordinates over positions >= index."""
        return self.norm_sq() - self.prefix_norm_sq(index - 1)

    def __eq__(self, other):
        return isinstance(other, Point) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        inner = ", ".join(f"{i}: {v}" for i, v in self.entries)
        return f"Point({{{inner}}})"

    def __add__(self, other: "Point") -> "Point":
        return add(self, other)

    def __sub__(self, other: "Point") -> "Point":
        return add(self, scale(Fraction(-1), other))

    def __rmul__(self, factor) -> "Point":
        return scale(Fraction(factor), self)

    def __neg__(self) -> "Point":
        return scale(Fraction(-1), self)

    def to_json(self) -> dict:
        return {"coords": {str(i): format_rational(v) for i, v in self.entries}}

    @classmethod
    def from_json(cls, data: dict) -> "Point":
        coords = data.get("coords", {})
        entries = []
        for key, text in coords.items():
            index = int(key)
            entries.append((index, parse_rational(text)))
        return cls(entries)


ZERO = Point()


def unit(index: int) -> Point:
    """The standard unit vector at the given 1-based index."""
    if index < 1:
        raise ValueError(f"indices must be positive integers, got {index!r}")
    return Point._from_sorted(((index, Fraction(1)),))


def add(x: Point, y: Point) -> Point:
    if y.is_zero():
        return x
    if x.is_zero():
        return y
    entries = dict(x.entries)
    for index, value in y.entries:
        merged = entries.get(index, 0) + value
        if merged:
            entries[index] = merged
        else:
            entries.pop(index, None)
    return Point._from_sorted(tuple(sorted(entries.items())))


def scale(factor: Fraction, x: Point) -> Point:
    factor = Fraction(factor)
    if factor == 0:
        return ZERO
    return Point._from_sorted(tuple((i, factor * v) for i, v in x.entries))


def norm_sq(x: Point) -> Fraction:
    return x.norm_sq()


def distance_sq(x: Point, y: Point) -> Fraction:
    return (x - y).norm_sq()


def m_index(x: Point, alpha: RootValue) -> Optional[int]:
    """Least m whose prefix sum of squares exceeds alpha^2, if any.

    alpha must be a degree-4 root so that alpha^2 (a degree-2 root of the
    same base) is irrational and the exceedance test has no boundary case:
    prefix > alpha^2 iff prefix^2 > base. Partial sums only change at
    support indices, so only those are scanned; returns None exactly when
    norm_sq(x) < alpha^2.
    """
    if alpha.degree != 4:
        raise ValueError(f"m_index needs a degree-4 threshold, got degree {alpha.degree}")
    base = alpha.base
    bn, bd = base.numerator, base.denominator
    den4 = x._den_sq * x._den_sq
    target = bn * den4
    prefix = x._prefix_sq
    for pos, (index, _) in enumerate(x.entries):
        p = prefix[pos]
        if p * p * bd > target:
            return index
    return None
