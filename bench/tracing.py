"""Spans around the library's public functions, installed at run time.

The library modules import their neighbours' functions by name
(`from .clopen import in_A`), so each wrapper replaces the original under
every name that refers to it in every module of the package; `Point` gets a
wrapped `__init__`, and the `ray_source` factory returns wrapped sources. `uninstall` restores the originals.

A span records its id, its parent span, the operation that caused it, its
name and its start and end (perf_counter ns). Spans stay in memory; self
time (duration minus the time covered by direct children) and call counts
are accumulated per name as spans close.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter_ns

# (module, function, span name)
FUNCTION_SPANS = (
    ("exact", "largest_rational_at_most", "exact.largest_rational_at_most"),
    ("exact", "expr_min", "exact.expr_min"),
    ("exact", "rational_in_interval", "exact.rational_in_interval"),
    ("exact", "cmp_rational_vs_root", "exact.cmp_rational_vs_root"),
    ("space", "add", "space.point_build"),
    ("space", "scale", "space.point_build"),
    ("space", "unit", "space.point_build"),
    ("space", "m_index", "space.m_index"),
    ("clopen", "in_A", "clopen.in_A"),
    ("clopen", "in_O", "clopen.in_O"),
    ("clopen", "first_failing_n", "clopen.first_failing_n"),
    ("clopen", "closedness_radius", "clopen.closedness_radius"),
    ("clopen", "openness_radius", "clopen.openness_radius"),
    ("clopen", "o_openness_radius", "clopen.o_openness_radius"),
    ("witness", "construct_witness", "witness.construct_witness"),
    ("witness", "verify_witness", "witness.verify_witness"),
    ("harness", "perturb_within", "harness.perturb_within"),
    ("harness", "sample_point", "harness.sample_point"),
    ("cli", "main", "cli.main"),
)
SPAN_NAMES = sorted({name for _, _, name in FUNCTION_SPANS} | {"witness.source"})


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent id or -1, op id, name, start ns, end ns)
        self.calls = Counter()
        self.self_ns = Counter()
        self.total_ns = Counter()
        self.op = -1
        self._stack = []  # [span id, ns covered by direct children]
        self._restore = []  # (owner, attribute, original)

    def span(self, name: str, fn, args, kwargs):
        span_id = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        frame = [span_id, 0]
        self._stack.append(frame)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            duration = end - start
            self.spans[span_id] = (span_id, parent[0] if parent else -1, self.op,
                                   name, start, end)
            self.calls[name] += 1
            self.self_ns[name] += duration - frame[1]
            self.total_ns[name] += duration
            if parent is not None:
                parent[1] += duration

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, args, kwargs)
        return traced

    def _rebind(self, modules, original, replacement) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self, lib) -> None:
        modules = lib.modules()
        for module_name, function, name in FUNCTION_SPANS:
            original = getattr(getattr(lib, module_name), function)
            self._rebind(modules, original, self.wrap(name, original))

        verify_claim = lib.harness.verify_claim

        @functools.wraps(verify_claim)
        def traced_verify_claim(claim, *args, **kwargs):
            return self.span(f"harness.verify_claim.{claim}", verify_claim,
                             (claim,) + args, kwargs)
        self._rebind(modules, verify_claim, traced_verify_claim)

        ray_source = lib.witness.ray_source

        @functools.wraps(ray_source)
        def traced_ray_source(*args, **kwargs):
            return self.wrap("witness.source", ray_source(*args, **kwargs))
        self._rebind(modules, ray_source, traced_ray_source)

        point = lib.space.Point
        original_init = point.__init__
        self._restore.append((point, "__init__", original_init))
        point.__init__ = self.wrap("space.point_build", original_init)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def nested_calls(self, name: str, ancestor: str) -> int:
        """Spans called `name` with an enclosing span called `ancestor`."""
        names = {}
        parents = {}
        for span_id, parent, _, span_name, _, _ in self.spans:
            names[span_id] = span_name
            parents[span_id] = parent
        count = 0
        for span_id, span_name in names.items():
            if span_name != name:
                continue
            up = parents[span_id]
            while up != -1 and names[up] != ancestor:
                up = parents[up]
            count += up != -1
        return count

    def write(self, handle) -> None:
        """Write every span to a text handle as one tab-separated line."""
        handle.write("id\tparent\top\tname\tstart_ns\tend_ns\n")
        for span in self.spans:
            handle.write("\t".join(map(str, span)) + "\n")
