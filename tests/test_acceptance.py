"""Acceptance gate: the seven exit criteria at their stated scales.

Criteria 1 and 7 drive the CLI end to end (10^4-sample suite, byte-level
determinism); the others hammer the library against the independent
interval oracle at the stated counts. Each test prints one PASS/FAIL line.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest

from erdos_clopen.exact import (
    Ordering,
    RootExpr,
    RootValue,
    cmp_rational_vs_root,
    cmp_root_expr,
)
from erdos_clopen.space import Point, add, unit
from erdos_clopen.clopen import (
    DEFAULT_PAIR,
    DEFAULT_SCHEDULE,
    CertificateKind,
    closedness_radius,
    first_failing_n,
    in_A,
    in_O,
    o_openness_radius,
    openness_radius,
)
from erdos_clopen.witness import (
    VSpec,
    construct_witness,
    generalized_witness,
    ray_source,
    verify_witness,
)
from erdos_clopen.harness import (
    SampleConfig,
    SplitMix64,
    derive_seed,
    perturb_within,
    sample_point,
)

import oracle


def line(criterion: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


# ---------------------------------------------------------------------------
# Criteria 1 and 7: the CLI suite at full scale, twice.
# ---------------------------------------------------------------------------

SUITE_ARGS = ["verify", "--claims", "1,2,3,4,5,remark", "--samples", "10000",
              "--seed", "42", "--schedule", "default"]


@pytest.fixture(scope="session")
def suite_run_factory(tmp_path_factory):
    base = tmp_path_factory.mktemp("acceptance")

    def run(tag: str):
        report = base / f"report-{tag}.json"
        cmd = [sys.executable, "-m", "erdos_clopen.cli", *SUITE_ARGS,
               "--report", str(report)]
        started = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True)
        elapsed = time.monotonic() - started
        payload = report.read_bytes() if report.exists() else b""
        return proc.returncode, elapsed, payload

    return run


@pytest.fixture(scope="session")
def first_suite_run(suite_run_factory):
    return suite_run_factory("one")


def test_criterion_1_claim_suite(first_suite_run):
    code, elapsed, payload = first_suite_run
    reports = json.loads(payload)
    violations = sum(len(r["violations"]) for r in reports)
    ok = (code == 0 and violations == 0 and len(reports) == 6
          and all(r["samples_run"] == 10000 for r in reports)
          and elapsed < 60.0)
    line(1, "claim-suite 10^4 samples", ok,
         f"exit={code}, violations={violations}, {elapsed:.1f}s < 60s")
    assert code == 0
    assert violations == 0
    assert elapsed < 60.0


def test_criterion_7_determinism(first_suite_run, suite_run_factory):
    code1, _, payload1 = first_suite_run
    code2, _, payload2 = suite_run_factory("two")
    ok = payload1 == payload2 and code1 == code2 and payload1
    line(7, "byte-identical reports", bool(ok),
         f"{len(payload1)} bytes compared")
    assert payload1 == payload2
    assert code1 == code2


# ---------------------------------------------------------------------------
# Criterion 2: 100 witness configurations, engine + >=100-digit oracle.
# ---------------------------------------------------------------------------

def _witness_directions():
    rng = SplitMix64(derive_seed(2024, 2))
    config = SampleConfig(seed=2024, count=1 << 20, max_support=4,
                          max_index=9, max_numerator=6, max_denominator=6)
    directions = [unit(1), unit(2), unit(5),
                  Point([(1, F(-3)), (4, F(2))]),
                  Point([(2, F(1, 2)), (3, F(-5, 3)), (7, F(4))])]
    draw = 0
    while len(directions) < 10:
        candidate = sample_point(config, draw)
        draw += 1
        if not candidate.is_zero():
            directions.append(candidate)
    return directions


def _oracle_witness_recheck(record, r_star, schedule=DEFAULT_SCHEDULE):
    dps = oracle.WITNESS_DPS
    a_base = lambda n: 2 * schedule.alpha_scale ** 4 * n ** 4
    b_base = lambda n: 2 * schedule.beta_scale ** 2 / (n * n)
    m = record.m_star
    if record.y.norm_sq() >= r_star * r_star:
        return "y outside the r* ball"
    if add(record.x, record.y) != record.z:
        return "z is not x + y"
    m_x = oracle.m_index(record.x.entries, a_base(m), dps)
    m_z = oracle.m_index(record.z.entries, a_base(m), dps)
    if not (m_z is not None and m_x is not None and m_z <= m_x < record.l_star):
        return "m-chain broken"
    z_l = abs(record.z.coordinate(record.l_star))
    if oracle.cmp_rational_vs_root(z_l, b_base(m), 2, dps) != "gt":
        return "no coordinate violation at l*"
    if oracle.in_O(record.z.entries, a_base, b_base, start_dps=dps):
        return "z inside O per oracle"
    return None


def test_criterion_2_witness_soundness():
    radii = [F(1), F(1, 2), F(2), F(1, 3), F(3, 4),
             F(5), F(1, 10), F(7, 3), F(9, 8), F(1, 16)]
    directions = _witness_directions()
    failures = []
    produced = 0
    for i, r_star in enumerate(radii):
        for j, direction in enumerate(directions):
            tag = f"r*={r_star}, direction #{j}"
            record = construct_witness(
                VSpec(r_star, ray_source(direction)),
                DEFAULT_SCHEDULE)
            produced += 1
            engine_checks = verify_witness(
                record.x, record.y, record.z, record.m_star, record.l_star,
                r_star, DEFAULT_SCHEDULE)
            if not all(c["holds"] for c in engine_checks):
                failures.append(f"{tag}: engine check failed")
                continue
            problem = _oracle_witness_recheck(record, r_star)
            if problem:
                failures.append(f"{tag}: {problem}")
    ok = produced == 100 and not failures
    line(2, "witness soundness x100 (engine + 120-digit oracle)", ok,
         f"{produced} witnesses, {len(failures)} failures")
    assert produced == 100
    assert failures == []


# ---------------------------------------------------------------------------
# Criterion 3: 10^5 comparison calls against the adaptive oracle.
# ---------------------------------------------------------------------------

def _random_fraction(rng, max_num, max_den, signed=True):
    num = 1 + rng.below(max_num)
    den = 1 + rng.below(max_den)
    if signed and rng.below(2):
        num = -num
    return F(num, den)


def _random_root(rng) -> RootValue:
    from erdos_clopen.exact import is_rational_power
    degree = 2 if rng.below(2) else 4
    while True:
        base = _random_fraction(rng, 60, 60, signed=False)
        if is_rational_power(base, 2) is None:
            return RootValue(base, degree)


def _random_expr(rng) -> RootExpr:
    terms = []
    for _ in range(1 + rng.below(2)):
        coef = _random_fraction(rng, 20, 12)
        root = None if rng.below(3) == 0 else _random_root(rng)
        terms.append((coef, root))
    return RootExpr(terms)


def _equal_rewrite(rng, expr: RootExpr) -> RootExpr:
    """Value-preserving rewrite: scale one root term's base by k^degree."""
    terms = list(expr.terms)
    for i, (coef, root) in enumerate(terms):
        if root is not None:
            k = 2 + rng.below(3)
            terms[i] = (coef / k, RootValue(root.base * k ** root.degree,
                                            root.degree))
            return RootExpr(terms)
    return expr


def test_criterion_3_oracle_agreement():
    # 10^5 rational-vs-root calls plus 5x10^4 expression calls covers both
    # the per-operation and the combined reading of the 10^5 requirement
    rng = SplitMix64(derive_seed(2024, 3))
    disagreements = 0
    ran = 0

    for _ in range(100000):
        s = _random_fraction(rng, 80, 40)
        if rng.below(10) == 0:
            s = -abs(s) if rng.below(2) else F(0)
        t = _random_root(rng)
        got = cmp_rational_vs_root(s, t)
        expected = oracle.cmp_rational_vs_root(s, t.base, t.degree)
        ran += 1
        if (got == Ordering.LESS) != (expected == "lt"):
            disagreements += 1

    for i in range(50000):
        lhs = _random_expr(rng)
        rhs = _equal_rewrite(rng, lhs) if i % 25 == 0 else _random_expr(rng)
        got = cmp_root_expr(lhs, rhs)
        expected = oracle.cmp_exprs(oracle.terms_of_expr(lhs),
                                    oracle.terms_of_expr(rhs), max_dps=400)
        ran += 1
        if got == Ordering.EQUAL:
            if expected is not None:
                disagreements += 1
        elif expected != ("lt" if got == Ordering.LESS else "gt"):
            disagreements += 1

    ok = ran == 150000 and disagreements == 0
    line(3, "exactness oracle agreement 1.5x10^5", ok,
         f"{ran} calls, {disagreements} disagreements")
    assert ran == 150000
    assert disagreements == 0


# ---------------------------------------------------------------------------
# Criterion 4: m-index equals the linear-scan oracle, 10^4 x 20.
# ---------------------------------------------------------------------------

THRESHOLD_BASES = [F(2), F(3), F(5), F(6), F(7), F(8), F(10), F(11), F(12),
                   F(13), F(17), F(23), F(3, 2), F(5, 2), F(7, 2), F(2, 9),
                   F(5, 4), F(99, 10), F(19, 3), F(1, 2)]


def test_criterion_4_m_index_brute_force():
    from erdos_clopen.space import m_index
    assert len(THRESHOLD_BASES) == 20
    thresholds = [RootValue(base, 4) for base in THRESHOLD_BASES]
    config = SampleConfig(seed=4242, count=10000)
    mismatches = 0
    for draw in range(config.count):
        x = sample_point(config, draw)
        for threshold in thresholds:
            if m_index(x, threshold) != oracle.m_index(x.entries, threshold.base):
                mismatches += 1
    ok = mismatches == 0
    line(4, "m-index vs linear-scan oracle 10^4 x 20", ok,
         f"{config.count * len(thresholds)} checks, {mismatches} mismatches")
    assert mismatches == 0


# ---------------------------------------------------------------------------
# Criterion 5: certificate validity, 10^3 bases per kind, 16 perturbations.
# ---------------------------------------------------------------------------

def _collect(config: SampleConfig, eligible, needed: int, cap: int = 400000):
    found = []
    for draw in range(cap):
        x = sample_point(config, draw)
        if eligible(x):
            found.append((draw, x))
            if len(found) == needed:
                return found
    raise AssertionError(f"only {len(found)} eligible bases in {cap} draws")


def _perturbations_ok(base: Point, bound: F, keep, salt: int, config) -> bool:
    for inner in range(16):
        rng = SplitMix64(derive_seed(5150, salt, inner))
        y = perturb_within(base, bound, rng, config)
        if not keep(y):
            return False
    return True


def test_criterion_5_certificate_validity():
    pair, schedule = DEFAULT_PAIR, DEFAULT_SCHEDULE
    violations = []
    checked = {}

    small = SampleConfig(seed=51, count=1 << 30, max_support=3, max_index=6,
                        max_numerator=1, max_denominator=4)
    bases = _collect(small, lambda x: in_A(x, pair)
                     and x.norm_sq() ** 2 < pair.alpha.base, 1000)
    checked["Claim1Margin"] = len(bases)
    for draw, x in bases:
        cert = openness_radius(x, pair)
        if cert.kind != CertificateKind.CLAIM1_MARGIN or cert.bound <= 0 \
                or not _perturbations_ok(x, cert.bound,
                                         lambda y: in_A(y, pair), draw, small):
            violations.append(("Claim1Margin", draw))

    general = SampleConfig(seed=52, count=1 << 30)
    bases = _collect(
        general,
        lambda x: in_A(x, pair) and x.norm_sq() ** 2 > pair.alpha.base, 1000)
    checked["Claim3_r"] = len(bases)
    for draw, x in bases:
        cert = openness_radius(x, pair)
        if cert.kind != CertificateKind.CLAIM3_R or cert.bound <= 0 \
                or not _perturbations_ok(x, cert.bound,
                                         lambda y: in_A(y, pair), draw, general):
            violations.append(("Claim3_r", draw))

    bases = _collect(general, lambda x: not in_A(x, pair), 1000)
    checked["Claim2_r0"] = len(bases)
    for draw, x in bases:
        cert = closedness_radius(x, pair)
        if cert.bound <= 0 or not _perturbations_ok(
                x, cert.bound, lambda y: not in_A(y, pair), draw, general):
            violations.append(("Claim2_r0", draw))

    bases = _collect(general, lambda x: in_O(x, schedule), 1000)
    checked["Claim4_W"] = len(bases)
    for draw, x in bases:
        cert = o_openness_radius(x, schedule)
        if cert.bound <= 0 or not _perturbations_ok(
                x, cert.bound, lambda y: in_O(y, schedule), draw, general):
            violations.append(("Claim4_W", draw))

    ok = not violations and all(n == 1000 for n in checked.values())
    line(5, "certificate validity 10^3 x 4 kinds x 16 perturbations", ok,
         f"bases={checked}, violations={len(violations)}")
    assert violations == []


# ---------------------------------------------------------------------------
# Criterion 6: the generalized remark across eps ladder and K samplers.
# ---------------------------------------------------------------------------

def test_criterion_6_generalized_remark():
    failures = []
    produced = 0
    for eps in (F(1, 10), F(1, 2), F(1)):
        for j, direction in enumerate(_witness_directions()):
            record = generalized_witness(ray_source(direction), eps,
                                         DEFAULT_SCHEDULE)
            produced += 1
            if in_O(record.z, DEFAULT_SCHEDULE):
                failures.append(f"eps={eps} K#{j}: z in O")
            if record.y.norm_sq() >= eps * eps:
                failures.append(f"eps={eps} K#{j}: y outside eps ball")
            if first_failing_n(record.z, DEFAULT_SCHEDULE) is None:
                failures.append(f"eps={eps} K#{j}: no failing index")
    ok = produced == 30 and not failures
    line(6, "generalized remark, 3 eps x 10 sources", ok,
         f"{produced} witnesses, {len(failures)} failures")
    assert produced == 30
    assert failures == []
