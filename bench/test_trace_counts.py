"""Traced runs repeat their counts exactly, and show what they are meant to.

Call counts and cache hit and miss counts depend only on the workload and
the seed, so two traced runs with the same seed must report identical
values; a later change may cite a count as evidence only because of this.
Run from the root of a checkout:

    python3 -m pytest -q bench/test_trace_counts.py
"""

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
COUNT_SUFFIXES = (".calls", ".hits", ".misses")
SEED = 7


@functools.lru_cache(maxsize=None)
def traced(workload: str, attempt: int) -> dict:
    """Per-layer metric values of one traced run (`attempt` tells runs apart)."""
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    document = json.loads(result.stdout.strip().splitlines()[-1])
    assert document["correct"] and document["failed"] == 0
    return {name: metric["value"] for name, metric in document["metrics"].items()}


def counts(metrics: dict) -> dict:
    return {name: value for name, value in metrics.items()
            if name.endswith(COUNT_SUFFIXES) or name == "trace.spans"}


@pytest.mark.parametrize("workload", ["membership", "certify", "verify_suite"])
def test_same_seed_same_counts(workload):
    first = counts(traced(workload, 0))
    assert sum(value for name, value in first.items() if name.endswith(".calls")) > 0
    assert first["clopen.pair_cache.hits"] + first["clopen.pair_cache.misses"] > 0
    assert counts(traced(workload, 1)) == first


def test_membership_leaves_exact_idle():
    metrics = traced("membership", 0)
    exact_calls = {name: value for name, value in metrics.items()
                   if name.startswith("exact.") and name.endswith(".calls")}
    assert exact_calls and not any(exact_calls.values())
    assert metrics["clopen.in_O.calls"] > 0 and metrics["space.m_index.calls"] > 0


def test_certify_ladder_shows_pair_cache_cliff():
    metrics = traced("certify", 0)
    below = metrics["witness.pair_cache.hit_ratio.r_1_2000"]
    above = metrics["witness.pair_cache.hit_ratio.r_1_3000"]
    assert below > 0.5 > above
