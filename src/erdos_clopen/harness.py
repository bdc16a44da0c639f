"""Deterministic sampling and the desk-scale claim-verification suite.

Every claim here is a theorem, so the suite is a falsification harness for
the implementation: a violation report always indicates a bug and carries
enough data (points, certificate, comparison trace) to replay the failed
check in isolation. Sampling is a pure function of (config, draw index);
reports are deterministic functions of (schedule, config). Each in-radius
perturbation of a point is built as one integer point.
"""

from __future__ import annotations

import time
from bisect import insort
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import partial
from math import lcm
from typing import Optional

from .exact import InputError, floor_root, format_rational
from .space import Point, _add_ints, unit
from .clopen import (
    AlphaBetaPair,
    Schedule,
    closedness_radius,
    first_failing_n,
    in_A,
    in_E_alpha,
    in_O,
    o_openness_radius,
    openness_radius,
)
from .witness import VSpec, construct_witness, ray_source


class InvalidParamsError(InputError):
    """Claim id or parameters outside the suite's contract."""


#: Most coordinates one sampled point may have; `_draw_ints` inserts its
#: indices one at a time, in time quadratic in their number.
_MAX_COORDINATES = 1000

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class SplitMix64:
    """splitmix64 (Steele et al.): 64-bit state, fixed mixing constants.

    Chosen over random.Random so that draws, and therefore report bytes,
    are identical on every platform and Python version.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection; 1 <= n <= 2^64
        (past 2^64 no 64-bit draw would be accepted)."""
        if not 0 < n <= 1 << 64:
            raise ValueError(f"below() needs 1 <= n <= 2^64, got {n}")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % n


def derive_seed(seed: int, *salts: int) -> int:
    """Deterministic sub-stream seed from a master seed and integer salts."""
    return _extend_seed(SplitMix64(seed).next_u64(), *salts)


def _extend_seed(h: int, *salts: int) -> int:
    """derive_seed(seed, *first, *salts) from h = derive_seed(seed, *first):
    one SplitMix64 mix per salt."""
    for salt in salts:
        h = SplitMix64(h ^ ((salt * _GOLDEN) & _MASK64)).next_u64()
    return h


@dataclass(frozen=True)
class SampleConfig:
    """Caps and seed for deterministic point sampling."""

    max_support: int = 6
    max_index: int = 12
    max_numerator: int = 8
    max_denominator: int = 8
    seed: int = 0
    count: int = 10000
    count_inner: int = 16

    def __post_init__(self):
        if self.max_support < 0:
            raise InvalidParamsError("max_support must be >= 0")
        for name in ("max_index", "max_numerator", "max_denominator"):
            if not 1 <= getattr(self, name) <= 1 << 64:
                raise InvalidParamsError(f"{name} must be in [1, 2^64]")
        if min(self.max_support, self.max_index) > _MAX_COORDINATES:
            raise InvalidParamsError(
                f"a draw has at most {_MAX_COORDINATES} coordinates: "
                f"min(max_support, max_index) must be <= {_MAX_COORDINATES}")
        if self.count < 0 or self.count_inner < 0:
            raise InvalidParamsError("count and count_inner must be >= 0")
        if not 0 <= self.seed <= _MASK64:  # SplitMix64 keeps only 64 bits
            raise InvalidParamsError("seed must be in [0, 2^64)")

    def to_json(self) -> dict:
        return asdict(self)


def _draw_ints(rng: SplitMix64, config: SampleConfig) -> tuple[list, list, int]:
    """(increasing support, numerators, common denominator) of one sampled point."""
    size = rng.below(min(config.max_support, config.max_index) + 1)
    indices = []  # increasing
    for remaining in range(config.max_index, config.max_index - size, -1):
        # the pick-th smallest index in [1, max_index] not chosen yet
        index = 1 + rng.below(remaining)
        for chosen in indices:
            if chosen > index:
                break
            index += 1
        insort(indices, index)
    nums, dens = [], []
    for _ in indices:
        magnitude = 1 + rng.below(config.max_numerator)
        nums.append(-magnitude if rng.below(2) else magnitude)
        dens.append(1 + rng.below(config.max_denominator))
    den = lcm(*dens)
    return indices, [n * (den // d) for n, d in zip(nums, dens)], den


def _sample_point_with(rng: SplitMix64, config: SampleConfig) -> Point:
    return Point._from_ints(*_draw_ints(rng, config))


def sample_point(config: SampleConfig, draw: int) -> Point:
    """Deterministic pseudo-random finite-support point for one draw.

    Support size is uniform on [0, max_support], indices are distinct in
    [1, max_index], and coordinates are nonzero p/q within the caps. The
    draw index seeds an independent stream, so draws can be generated in
    any order.
    """
    if draw < 0 or draw >= config.count:
        raise InvalidParamsError(f"draw {draw} outside [0, {config.count})")
    return _sample_point_with(SplitMix64(derive_seed(config.seed, draw)), config)


def _sample_rational_positive(rng: SplitMix64, config: SampleConfig) -> Fraction:
    num = 1 + rng.below(config.max_numerator)
    den = 1 + rng.below(config.max_denominator)
    return Fraction(num, den)


def perturb_within(base: Point, bound: Fraction, rng: SplitMix64,
                   config: SampleConfig) -> Point:
    """base + bound/(2c) * d for a sampled direction d, built as one integer
    point; c = floor(|d|) + 1 is the least integer with c^2 > |d|^2, so the
    step |d| * bound / (2c) is below bound / 2."""
    support, nums, den = _draw_ints(rng, config)
    if not support:
        return base
    root_ceil = floor_root(sum(n * n for n in nums) // (den * den), 2) + 1
    p, q = bound.numerator, bound.denominator
    return _add_ints(base, support, [n * p for n in nums], 2 * root_ceil * q * den)


@dataclass
class ClaimReport:
    """Outcome of one claim's sampled verification; empty violations = pass."""

    claim: str
    samples_run: int
    eligible: int
    violations: list = field(default_factory=list)
    elapsed_ms: Optional[int] = None
    config: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self, include_timing: bool = False) -> dict:
        # elapsed_ms stays null unless timing is requested, so reports are
        # byte-identical across same-seed runs
        return {
            "claim": self.claim,
            "samples_run": self.samples_run,
            "eligible": self.eligible,
            "violations": self.violations,
            "elapsed_ms": self.elapsed_ms if include_timing else None,
            "config": self.config,
        }


def _violation(draw: int, point: Optional[Point], detail: str, **extra) -> dict:
    record = {"draw": draw, "detail": detail}
    if point is not None:
        record["point"] = point.to_json()
    record.update({k: (v.to_json() if isinstance(v, Point) else v)
                   for k, v in extra.items()})
    return record


def _check_perturbations(report: ClaimReport, draw: int, x: Point, cert, salt: int,
                         config: SampleConfig, escaped, detail: str, **extra) -> None:
    """Record a violation for each of count_inner perturbations of x within
    the certified bound for which escaped(perturbed point) holds; the
    draw's seed is mixed once and extended by (inner, salt) per
    perturbation."""
    draw_seed = derive_seed(config.seed, draw)
    for inner in range(config.count_inner):
        rng = SplitMix64(_extend_seed(draw_seed, inner, salt))
        y = perturb_within(x, cert.bound, rng, config)
        if escaped(y):
            report.violations.append(_violation(
                draw, x, detail, certificate=cert.to_json(), perturbed=y, **extra))


def _verify_c1(pair: AlphaBetaPair, config: SampleConfig) -> ClaimReport:
    """Sampled points with norm below alpha must land in A."""
    report = ClaimReport("C1", config.count, 0)
    for draw in range(config.count):
        x = sample_point(config, draw)
        if not in_E_alpha(x, pair.alpha):  # in E_alpha iff norm < alpha
            continue
        report.eligible += 1
        if not in_A(x, pair):
            report.violations.append(_violation(draw, x, "ball point escaped A"))
    return report


def _verify_radius(claim: str, inside: bool, salt: int, detail: str,
                   pair: AlphaBetaPair, config: SampleConfig) -> ClaimReport:
    """Certified radii keep the perturbed neighborhood on its point's side
    of A: closedness radii around points outside A (C2), openness radii
    around points of A (C3)."""
    report = ClaimReport(claim, config.count, 0)
    # looked up per call, not bound at import: a rebound module global is used
    radius = openness_radius if inside else closedness_radius
    for draw in range(config.count):
        x = sample_point(config, draw)
        if in_A(x, pair) != inside:
            continue
        report.eligible += 1
        _check_perturbations(report, draw, x, radius(x, pair), salt, config,
                             lambda y: in_A(y, pair) != inside, detail)
    return report


def _verify_c4(schedule: Schedule, config: SampleConfig) -> ClaimReport:
    """O contains 0, is stable inside certified radii, and its complement is
    open via the failing pair's closedness radius; the finite membership
    decision agrees with `in_A` at every index up to ten past the cutoff."""
    report = ClaimReport("C4", config.count, 0)
    if not in_O(Point(), schedule):
        report.violations.append(_violation(-1, Point(), "identity escaped O"))
    for draw in range(config.count):
        x = sample_point(config, draw)
        report.eligible += 1
        cutoff = schedule.least_n_with_alpha_above(x.norm_sq())
        n_bad = first_failing_n(x, schedule)
        member = n_bad is None
        extended = all(in_A(x, schedule.pair_at(n)) for n in range(1, cutoff + 11))
        if member != extended:
            report.violations.append(_violation(
                draw, x, "finite check changed when extended by 10 indices"))
            continue
        if member:
            _check_perturbations(report, draw, x, o_openness_radius(x, schedule), 4, config,
                                 lambda y: not in_O(y, schedule),
                                 "in-radius perturbation escaped O")
        else:
            _check_perturbations(report, draw, x, closedness_radius(x, schedule.pair_at(n_bad)),
                                 4, config, lambda y: in_O(y, schedule),
                                 "in-radius perturbation entered O", failing_n=n_bad)
    return report


def _synthetic_source(rng: SplitMix64, config: SampleConfig):
    """Unbounded source along a sampled direction (e_1 fallback for zero)."""
    direction = _sample_point_with(rng, config)
    if direction.is_zero():
        direction = unit(1 + rng.below(config.max_index))
    return ray_source(direction)


def _verify_witnesses(claim: str, salt: int, radius_key: str,
                      schedule: Schedule, config: SampleConfig) -> ClaimReport:
    """One witness per random (radius, source) candidate, for C5 a ball
    B(0, r*) inside V and for Remark a ball B(0, eps) beside an unbounded K.
    `construct_witness` runs every check of the record once and raises
    AssertionError if one fails, so a draw fails exactly when the call raises."""
    report = ClaimReport(claim, config.count, config.count)
    for draw in range(config.count):
        rng = SplitMix64(derive_seed(config.seed, draw, salt))
        radius = _sample_rational_positive(rng, config)
        source = _synthetic_source(rng, config)
        try:
            construct_witness(VSpec(radius, source), schedule)
        except Exception as exc:  # construction must never fail for valid candidates
            report.violations.append(_violation(
                draw, None, f"construction failed: {exc!r}",
                **{radius_key: format_rational(radius)}))
    return report


#: claim id -> (runner, the type of its params), in report order
_RUNNERS = {"C1": (_verify_c1, AlphaBetaPair),
            "C2": (partial(_verify_radius, "C2", False, 2, "in-radius perturbation entered A"),
                   AlphaBetaPair),
            "C3": (partial(_verify_radius, "C3", True, 3, "in-radius perturbation escaped A"),
                   AlphaBetaPair),
            "C4": (_verify_c4, Schedule),
            "C5": (partial(_verify_witnesses, "C5", 5, "r_star"), Schedule),
            "Remark": (partial(_verify_witnesses, "Remark", 6, "eps"), Schedule)}
CLAIM_IDS = tuple(_RUNNERS)
_NEEDS = {AlphaBetaPair: "an AlphaBetaPair", Schedule: "a Schedule"}


def verify_claim(claim: str, params, config: SampleConfig) -> ClaimReport:
    """Run one claim's sampled invariant; params is an AlphaBetaPair for
    C1-C3 and a Schedule for C4, C5, and Remark."""
    started = time.monotonic()
    if claim not in _RUNNERS:
        raise InvalidParamsError(f"unknown claim {claim!r}")
    runner, params_type = _RUNNERS[claim]
    if not isinstance(params, params_type):
        raise InvalidParamsError(f"{claim} needs {_NEEDS[params_type]}")
    report = runner(params, config)
    report.elapsed_ms = int((time.monotonic() - started) * 1000)
    report.config = {"sample": config.to_json(), "params": params.to_json()}
    return report


def run_suite(schedule: Schedule, config: SampleConfig,
              claims: tuple = CLAIM_IDS) -> list[ClaimReport]:
    """All requested claims with a shared config; C1-C3 use the schedule's
    first threshold pair. Reports come back in claim order."""
    pair = schedule.pair_at(1)
    reports = []
    for claim in claims:
        params = pair if claim in ("C1", "C2", "C3") else schedule
        reports.append(verify_claim(claim, params, config))
    return reports


def suite_exit_status(reports: list[ClaimReport]) -> int:
    return 0 if all(report.passed for report in reports) else 1
