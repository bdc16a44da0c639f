"""Seeded input generation and the reference decisions the output checks use.

Inputs come from the benchmark's own `random.Random` stream, never from
`erdos_clopen.harness`, so a change to the library cannot shift what a
workload runs. A raw point is a tuple of `(index, Fraction)` pairs sorted by
index with nonzero values; the library `Point` is built from it during set-up.

The reference predicates below re-derive memberships with plain `Fraction`
comparisons, written independently of the library: a point's first
exceedance index is the least position whose prefix sum of squares, squared,
exceeds the alpha^4 base, and membership in A asks that every later squared
coordinate is below the beta^2 base. Instead of the library's scan per
threshold, they precompute squared prefix sums and suffix maxima once per
point and sweep thresholds monotonically.
"""

from __future__ import annotations

import random
from fractions import Fraction

# (alpha^4 base, beta^2 base) rungs: alpha^2 runs from about 1.4 to 45, so
# the first exceedance index falls early, late or never on typical points.
LADDER = (
    (Fraction(2), Fraction(1, 2)),
    (Fraction(7), Fraction(3)),
    (Fraction(20), Fraction(1, 20)),
    (Fraction(200), Fraction(5, 3)),
    (Fraction(600), Fraction(1, 200)),
    (Fraction(2000), Fraction(2, 7)),
)

# (alpha_scale, beta_scale) of the schedules alpha_n = a*n*2^(1/4),
# beta_n = b*sqrt(2)/n; the first is the library default.
SCHEDULES = (
    (Fraction(1), Fraction(1)),
    (Fraction(1, 3), Fraction(2)),
    (Fraction(2), Fraction(1, 2)),
)


def raw_point(rng: random.Random, max_support: int, max_index: int,
              max_den: int, decay: bool) -> tuple:
    """A finite-support point with distinct indices in [1, max_index].

    Magnitudes are log-uniform in [1/64, 4]; with `decay` they also shrink
    like 1/rank^2, which keeps many points inside A and O for several
    schedule indices.
    """
    size = rng.randint(1, max_support)
    indices = sorted(rng.sample(range(1, max_index + 1), size))
    entries = []
    for rank, index in enumerate(indices, start=1):
        den = rng.randint(1, max_den)
        magnitude = 2.0 ** rng.uniform(-6.0, 2.0)
        if decay:
            magnitude /= rank * rank
        num = max(1, round(magnitude * den)) * rng.choice((-1, 1))
        entries.append((index, Fraction(num, den)))
    return tuple(entries)


def add_raw(x: tuple, y: tuple) -> tuple:
    """Coordinatewise sum of two raw points, zeros dropped."""
    merged = dict(x)
    for index, value in y:
        merged[index] = merged.get(index, 0) + value
    return tuple(sorted((i, v) for i, v in merged.items() if v != 0))


def norm_sq(x: tuple) -> Fraction:
    return sum((v * v for _, v in x), Fraction(0))


class Reference:
    """Membership decisions for one raw point from Fraction comparisons."""

    def __init__(self, x: tuple):
        self.indices = [i for i, _ in x]
        squares = [v * v for _, v in x]
        total = Fraction(0)
        self.prefix_sq_sq = []  # (sum of squares up to position k)^2
        for sq in squares:
            total += sq
            self.prefix_sq_sq.append(total * total)
        self.norm_sq_sq = total * total
        self.suffix_max = [Fraction(0)] * len(squares)  # max square after k
        running = Fraction(0)
        for k in range(len(squares) - 1, -1, -1):
            self.suffix_max[k] = running
            running = max(running, squares[k])

    def _exceed_pos(self, alpha4: Fraction, start: int = 0):
        for k in range(start, len(self.prefix_sq_sq)):
            if self.prefix_sq_sq[k] > alpha4:
                return k
        return None

    def m_index(self, alpha4: Fraction):
        k = self._exceed_pos(alpha4)
        return None if k is None else self.indices[k]

    def in_A(self, alpha4: Fraction, beta2: Fraction) -> bool:
        k = self._exceed_pos(alpha4)
        return k is None or self.suffix_max[k] < beta2

    def first_failing_n(self, alpha_scale: Fraction, beta_scale: Fraction,
                        limit=None):
        """Least n whose (alpha_n, beta_n) set excludes the point, scanning
        the n with norm >= alpha_n (past them the point is inside)."""
        a4 = 2 * alpha_scale ** 4
        b2 = 2 * beta_scale ** 2
        n = 1
        k = 0
        while self.norm_sq_sq >= a4 * n ** 4 and (limit is None or n <= limit):
            alpha4 = a4 * n ** 4
            while self.prefix_sq_sq[k] <= alpha4:  # exists: norm >= alpha_n
                k += 1
            if self.suffix_max[k] >= b2 / (n * n):
                return n
            n += 1
        return None


def perturbation(rng: random.Random, bound: Fraction, max_index: int) -> tuple:
    """A raw point of norm strictly below `bound`, along a random direction."""
    size = rng.randint(1, 4)
    indices = sorted(rng.sample(range(1, max_index + 1), size))
    direction = tuple((i, Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9)))
                      for i in indices)
    length_sq = norm_sq(direction)
    factor = bound * Fraction(rng.randint(1, 99), 100)
    while factor * factor * length_sq >= bound * bound:
        factor /= 2
    return tuple((i, factor * v) for i, v in direction)
