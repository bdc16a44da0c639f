"""The names the benchmark's tracer looks up in the package still exist.

`bench/tracing.py` wraps library functions by (module, name) at run time
and `bench/run.py` reads two caches' statistics, so renaming any of them
breaks a traced benchmark run; this test reads the same table.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


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
