"""The three workloads: what one operation is, its inputs, and its check.

Each workload is built in set-up from the seed alone: it generates inputs,
constructs the library objects the timed phase queries, and exposes

- `tasks`: the cycle of task indices the closed loop walks through;
- `warmup`, `trace_tasks`: the tasks of the warm-up pass and of the traced
  pass;
- `run(task)`: one timed call into the library;
- `digest(task, output)`: an untimed, comparable summary of the output;
- `verify(task, digest)`: the untimed check of a digest against the
  benchmark's own reference decisions;
- `weight`: how many operations one `run` performs (draws, for
  `verify_suite`; 1 otherwise).

Library functions are looked up on the module at call time, so the traced
run's wrappers (installed on those modules) see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

from inputs import (
    LADDER,
    SCHEDULES,
    Reference,
    add_raw,
    norm_sq,
    perturbation,
    raw_point,
)

OUT_DIR = Path(__file__).resolve().parent / "out"
MAX_SUPPORT = 24
MAX_INDEX = 64
MAX_DEN = 1000


def _pairs(lib):
    return [lib.clopen.AlphaBetaPair(lib.exact.RootValue(a, 4), lib.exact.RootValue(b, 2))
            for a, b in LADDER]


def _schedules(lib):
    return [lib.clopen.Schedule(a, b) for a, b in SCHEDULES]


class Membership:
    """One operation is one point's full query set: `in_A` on every ladder
    pair, `in_O` on every schedule and `m_index` on every ladder alpha."""

    name = "membership"
    weight = 1
    POOL = 4000

    def __init__(self, lib, seed: int):
        self.lib = lib
        rng = random.Random(f"membership:{seed}")
        self.raw = [raw_point(rng, MAX_SUPPORT, MAX_INDEX, MAX_DEN, decay=bool(i % 2))
                    for i in range(self.POOL)]
        self.points = [lib.space.Point(x) for x in self.raw]
        self.pairs = _pairs(lib)
        self.schedules = _schedules(lib)
        self.tasks = list(range(self.POOL))
        self.warmup = self.trace_tasks = self.tasks

    def run(self, task: int):
        clopen, space = self.lib.clopen, self.lib.space
        x = self.points[task]
        return (tuple(clopen.in_A(x, pair) for pair in self.pairs),
                tuple(clopen.in_O(x, schedule) for schedule in self.schedules),
                tuple(space.m_index(x, pair.alpha) for pair in self.pairs))

    def digest(self, task: int, output):
        return output

    def verify(self, task: int, digest) -> bool:
        ref = Reference(self.raw[task])
        expected = (tuple(ref.in_A(a4, b2) for a4, b2 in LADDER),
                    tuple(ref.first_failing_n(a, b) is None for a, b in SCHEDULES),
                    tuple(ref.m_index(a4) for a4, _ in LADDER))
        return digest == expected


# Rungs of the witness ladder, as r*. m* is about sqrt(2)/r*, so 1/2000
# (m* = 2830) scans fit the library's 4096-entry pair cache and 1/3000
# (m* = 4245) scans do not: a sequential scan longer than the cache evicts
# every pair before it is reused.
SHALLOW_RUNGS = (Fraction(1), Fraction(1, 10), Fraction(1, 100))
SCAN_RUNGS = (Fraction(1, 1000), Fraction(1, 2000), Fraction(1, 3000))
# Scan witnesses come in runs of one rung at fixed places in the cycle, so
# the pair cache sees the same sequence of scans for every seed.
SCAN_RUNS = ((1, 3), (2, 3), (0, 2), (2, 2), (1, 2))  # (rung, run length)
RADIUS_TASKS = 40  # per kind
SHALLOW_TASKS = 10  # per shallow rung
PERTURBATIONS = 3


class Certify:
    """One operation is one certified radius on a point on the right side
    of A or O, or one `construct_witness` along a ray."""

    name = "certify"
    weight = 1

    def __init__(self, lib, seed: int):
        self.lib = lib
        rng = random.Random(f"certify:{seed}")
        self.pairs = _pairs(lib)
        self.schedules = _schedules(lib)
        self.specs = []  # (kind, raw point or direction, parameter index or r*)
        for kind in ("closed", "open", "o-open"):
            found = 0
            while found < RADIUS_TASKS:
                x = raw_point(rng, MAX_SUPPORT, MAX_INDEX, MAX_DEN, decay=rng.random() < 0.5)
                ref = Reference(x)
                if kind == "o-open":
                    param = found % len(SCHEDULES)
                    wanted = ref.first_failing_n(*SCHEDULES[param]) is None
                else:
                    param = found % len(LADDER)
                    wanted = ref.in_A(*LADDER[param]) == (kind == "open")
                if wanted:
                    self.specs.append((kind, x, param))
                    found += 1
        for rung in SHALLOW_RUNGS:
            for i in range(SHALLOW_TASKS):
                self.specs.append(("witness", self._direction(rng, single=bool(i % 2)), rung))
        for rung in SCAN_RUNGS:  # multi-coordinate rays fail early: no scan
            self.specs.append(("witness", self._direction(rng, single=False), rung))
        rng.shuffle(self.specs)
        scans = [[("witness", self._direction(rng, single=True), SCAN_RUNGS[rung])
                  for _ in range(length)] for rung, length in SCAN_RUNS]
        stride = len(self.specs) // len(scans)
        for k, run in enumerate(reversed(scans)):
            at = (len(scans) - 1 - k) * stride
            self.specs[at:at] = run
        self.points = [None if kind == "witness" else lib.space.Point(x)
                       for kind, x, _ in self.specs]
        self.directions = [lib.space.Point(x) if kind == "witness" else None
                           for kind, x, _ in self.specs]
        self.tasks = list(range(len(self.specs)))
        self.warmup = self.trace_tasks = self.tasks
        self.scan_rung = {task: rung for task, (kind, x, rung) in enumerate(self.specs)
                          if kind == "witness" and len(x) == 1 and rung in SCAN_RUNGS}
        self.seed = seed

    @staticmethod
    def _direction(rng: random.Random, single: bool) -> tuple:
        if single:
            return ((rng.randint(1, 8), Fraction(rng.randint(1, 9), rng.randint(1, 9))),)
        size = rng.randint(2, 5)
        return tuple((i, Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)))
                     for i in sorted(rng.sample(range(1, 13), size)))

    def run(self, task: int):
        clopen, witness = self.lib.clopen, self.lib.witness
        kind, _, param = self.specs[task]
        if kind == "closed":
            return clopen.closedness_radius(self.points[task], self.pairs[param])
        if kind == "open":
            return clopen.openness_radius(self.points[task], self.pairs[param])
        if kind == "o-open":
            return clopen.o_openness_radius(self.points[task], self.schedules[param])
        v = witness.VSpec(param, witness.ray_source(self.directions[task]))
        return witness.construct_witness(v, self.schedules[0])

    def digest(self, task: int, output):
        if self.specs[task][0] == "witness":
            return (output.x.entries, output.y.entries, output.z.entries,
                    output.m_star, output.q)
        return output.bound

    def verify(self, task: int, digest) -> bool:
        kind, x, param = self.specs[task]
        if kind == "witness":
            return self._verify_witness(x, param, *digest)
        bound = digest
        if not bound > 0:
            return False
        rng = random.Random(f"certify-check:{self.seed}:{task}")
        for _ in range(PERTURBATIONS):
            ref = Reference(add_raw(x, perturbation(rng, bound, MAX_INDEX)))
            if kind == "o-open":
                if ref.first_failing_n(*SCHEDULES[param]) is not None:
                    return False
            elif ref.in_A(*LADDER[param]) != (kind == "open"):
                return False
        return True

    @staticmethod
    def _verify_witness(direction, r_star, x, y, z, m_star, q) -> bool:
        if [i for i, _ in x] != [i for i, _ in direction]:
            return False
        multiples = {value / d for (_, value), (_, d) in zip(x, direction)}
        if len(multiples) != 1:
            return False
        (c,) = multiples
        return (c > 0 and c.denominator == 1  # x is a point of the ray
                and add_raw(x, y) == z
                and norm_sq(y) < r_star * r_star
                and Reference(z).first_failing_n(*SCHEDULES[0], limit=m_star) is not None)


class VerifySuite:
    """One operation is one sampled draw of `erdos-clopen verify` over all six
    claims, run in process through `cli.main`. One call draws SAMPLES per
    claim; the cycle is CALLS calls, each with its own seed derived from the
    workload seed, so every cycle runs the same draws."""

    name = "verify_suite"
    SAMPLES = 20
    CALLS = 10
    CLAIMS = ("C1", "C2", "C3", "C4", "C5", "Remark")
    weight = SAMPLES * len(CLAIMS)

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.seed = seed
        self.report = OUT_DIR / f"verify-report-{seed}.json"
        self.tasks = list(range(self.CALLS))
        self.warmup = [self.CALLS, self.CALLS + 1]  # seeds the cycle does not use
        self.trace_tasks = self.tasks[:5]

    def call_seed(self, task: int) -> int:
        return self.seed * 100003 + task

    def run(self, task: int):
        argv = ["verify", "--claims", "1,2,3,4,5,remark",
                "--samples", str(self.SAMPLES), "--seed", str(self.call_seed(task)),
                "--report", str(self.report)]
        with contextlib.redirect_stdout(io.StringIO()):
            return self.lib.cli.main(argv)

    def digest(self, task: int, output):
        text = self.report.read_text(encoding="utf-8")
        reports = json.loads(text)
        return (output, tuple((r["claim"], r["samples_run"], len(r["violations"]))
                              for r in reports), len(text.encode("utf-8")))

    def verify(self, task: int, digest) -> bool:
        code, claims, _ = digest
        return (code == 0
                and tuple(c for c, _, _ in claims) == self.CLAIMS
                and all(n == self.SAMPLES and bad == 0 for _, n, bad in claims))


WORKLOADS = {cls.name: cls for cls in (Membership, Certify, VerifySuite)}
