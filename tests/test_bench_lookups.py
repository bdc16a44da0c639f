"""The names the benchmark looks up in the package still exist.

`bench/tracing.py` wraps library functions by (module, name) at run time,
`bench/run.py` reads two caches' statistics, and every bench script reads
attributes off the library modules, so renaming or deleting any of them
breaks a benchmark run; these tests read the same table and the same
attribute reads.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"
MODULES = {"exact", "space", "clopen", "witness", "harness", "cli"}


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # standard library imports only
    return module


def lookup(module: str, name: str):
    return getattr(importlib.import_module(f"erdos_clopen.{module}"), name)


@pytest.mark.parametrize("module, name", sorted(
    {(module, name) for module, name, _ in load_tracing().FUNCTION_SPANS}
    | {("harness", "verify_claim"), ("witness", "ray_source")}))
def test_traced_function_exists(module, name):
    assert callable(lookup(module, name))


@pytest.mark.parametrize("module, name", [("clopen", "_cached_pair"),
                                          ("exact", "_root_enclosure")])
def test_read_cache_reports_statistics(module, name):
    assert lookup(module, name).cache_info().maxsize > 0


def bench_attribute_reads() -> set:
    """(module, name) for each `X.name` in bench/*.py whose X is a library
    module: a bare module name, or `lib.X` (also `self.lib.X`)."""
    reads = set()
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Attribute):
                continue
            owner = node.value
            if isinstance(owner, ast.Name) and owner.id in MODULES:
                reads.add((owner.id, node.attr))
            elif (isinstance(owner, ast.Attribute) and owner.attr in MODULES
                  and last_name(owner.value) == "lib"):
                reads.add((owner.attr, node.attr))
    return reads


def last_name(node: ast.expr):
    """`x` for the expression `x` or `a.b.x`; None for anything else."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def test_bench_attribute_reads_are_found():
    reads = bench_attribute_reads()
    assert len(reads) == 17
    assert {("clopen", "Schedule"), ("clopen", "AlphaBetaPair"), ("exact", "RootValue"),
            ("witness", "VSpec"), ("clopen", "_cached_pair")} <= reads


@pytest.mark.parametrize("module, name", sorted(bench_attribute_reads()))
def test_bench_attribute_read_exists(module, name):
    assert hasattr(importlib.import_module(f"erdos_clopen.{module}"), name)
