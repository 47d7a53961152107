"""Spans and exact call counts, recorded from outside the package.

Spans: the traced run makes the same public calls as the untraced run.
While it runs, every function named in ``TRACED`` is replaced, in each
``fatpoints`` module that refers to it, by a wrapper that records a span
(name, start, end, parent, op id), so the calls the package makes inside
``resolve``, ``oracle_report`` and ``cli.run`` get spans too.  The originals
are restored afterwards.

Counts: a separate pass runs the real public entry points under cProfile,
which counts calls by code object, so the counts are exact and repeat from
run to run.
"""

from __future__ import annotations

import contextlib
import cProfile
import sys
import time

import workloads

# (module, function): span name is "<module>.<function>"
TRACED = (
    ("cli", "run"),
    ("cli", "parse_config"),
    ("resolution", "resolve"),
    ("oracle", "oracle_report"),
    ("configuration", "validate"),
    ("configuration", "check_proximity"),
    ("negcurves", "enumerate_negative_curves"),
    ("cohomology", "make_context"),
    ("cohomology", "h0_with_decomposition"),
    ("cohomology", "h0_any"),
    ("zariski", "zariski_decompose"),
    ("syzygy", "s_dim"),
    ("resolution", "free_module_from_hilbert"),
    ("resolution", "hilbert_function"),
    ("oracle", "sample_coordinates"),
    ("oracle", "hilbert_oracle"),
    ("oracle", "nu_oracle"),
)

# Per-layer times.  "inclusive" sums the spans of the named kinds that have
# no ancestor of those kinds; "self" sums their durations less their direct
# children; "under <name>" sums the spans of the named kinds whose parent is
# a span called <name>.
TIME_METRICS = {
    "cli.parse_ms": ("inclusive", ("cli.parse_config",)),
    "cli.run_ms": ("inclusive", ("cli.run",)),
    "configuration.ms": ("inclusive", ("configuration.validate", "configuration.check_proximity")),
    "negcurves.ms": ("inclusive", ("negcurves.enumerate_negative_curves",)),
    "zariski.ms": ("inclusive", ("zariski.zariski_decompose",)),
    "cohomology.self_ms": (
        "self",
        ("cohomology.make_context", "cohomology.h0_with_decomposition", "cohomology.h0_any"),
    ),
    "syzygy.ms": ("inclusive", ("syzygy.s_dim",)),
    "resolution.self_ms": (
        "self",
        ("resolution.resolve", "resolution.free_module_from_hilbert", "resolution.hilbert_function"),
    ),
    "oracle.sample_ms": ("inclusive", ("oracle.sample_coordinates",)),
    "oracle.hilbert_ms": ("inclusive", ("oracle.hilbert_oracle",)),
    "oracle.nu_ms": ("self", ("oracle.nu_oracle",)),
    "oracle.pipeline_ms": ("under oracle.oracle_report", ("cohomology.h0_any", "syzygy.s_dim")),
}


@contextlib.contextmanager
def swapped(replacements: dict):
    """Replace each function in ``replacements`` by its wrapper in every
    ``fatpoints`` module that refers to it; restore the originals on exit."""
    by_id = {id(fn): (fn, wrapper) for fn, wrapper in replacements.items()}
    undo = []
    for name, module in list(sys.modules.items()):
        if name != "fatpoints" and not name.startswith("fatpoints."):
            continue
        for attr, value in list(vars(module).items()):
            hit = by_id.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                undo.append((module, attr, value))
    try:
        yield
    finally:
        for module, attr, value in undo:
            setattr(module, attr, value)


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, op id]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = None

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def installed(self, fp):
        """Record a span around every call of a traced function."""
        replacements = {}
        for module_name, fn_name in TRACED:
            fn = getattr(getattr(fp, module_name, None), fn_name, None)
            if fn is not None:
                replacements[fn] = self.wrap(f"{module_name}.{fn_name}", fn)
        return swapped(replacements)

    def layer_times_ms(self) -> dict[str, float]:
        spans = self.spans
        children_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                children_time[parent] += end - start
        out = {}
        for metric, (mode, names) in TIME_METRICS.items():
            total = 0.0
            for idx, (name, start, end, parent, _) in enumerate(spans):
                if name not in names:
                    continue
                if mode == "self":
                    total += end - start - children_time[idx]
                elif mode.startswith("under "):
                    if parent >= 0 and spans[parent][0] == mode[len("under "):]:
                        total += end - start
                elif not self._has_ancestor(idx, names):
                    total += end - start
            out[metric] = total * 1000.0
        return out

    def _has_ancestor(self, idx: int, names) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False


def run_traced(fp, ops, tracer: Tracer) -> list:
    """The results of ``ops``, called as in the untraced run, with spans."""
    results = []
    with tracer.installed(fp):
        for op in ops:
            tracer.op = op.entry_id
            results.append(workloads.call(fp, op))
    return results


def matrix_cells(op) -> int:
    """Entries of the interpolation matrices for degrees 0..max_degree:
    conditions (m(m+1)/2 per point) times monomials.  Computed from the
    multiplicities and the degree, not counted."""
    if op.kind != "oracle":
        return 0
    rows = sum(m * (m + 1) // 2 for m in op.mults if m > 0)
    return sum(rows * (d + 2) * (d + 1) // 2 for d in range(op.args[2] + 1))


class CallCounter:
    """Exact call counts of the package's public functions.

    Calls are counted by cProfile, keyed by code object.  The two functions
    whose arguments or results the counts need are wrapped as well: the
    class passed to ``zariski_decompose`` (for the repeat share) and the
    lengths of the lists it and ``enumerate_negative_curves`` return.
    """

    def __init__(self, fp):
        self.fp = fp
        self.targets = {
            "validate": fp.configuration.validate,
            "enumerate": fp.negcurves.enumerate_negative_curves,
            "intersect": fp.lattice.intersect,
            "decompose": fp.zariski.zariski_decompose,
            "h0": fp.cohomology.h0_with_decomposition,
            "s_dim": fp.syzygy.s_dim,
            "hilbert_oracle": fp.oracle.hilbert_oracle,
            "nu_oracle": fp.oracle.nu_oracle,
        }
        self.profile = cProfile.Profile(builtins=False)
        self.candidates = 0
        self.steps = 0
        self.decompositions = 0
        self.repeats = 0
        self._seen: set = set()

    def _decompose(self, fn):
        def counted(f, *args, **kwargs):
            self.decompositions += 1
            if f in self._seen:
                self.repeats += 1
            self._seen.add(f)
            result = fn(f, *args, **kwargs)
            self.steps += len(result.trace)
            return result

        return counted

    def _enumerate(self, fn):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.candidates += len(result)
            return result

        return counted

    def run(self, op):
        self._seen = set()
        decompose, enumerate_ = self.targets["decompose"], self.targets["enumerate"]
        with swapped({decompose: self._decompose(decompose), enumerate_: self._enumerate(enumerate_)}):
            self.profile.enable()
            try:
                return workloads.call(self.fp, op)
            finally:
                self.profile.disable()

    def metrics(self, ops) -> dict[str, float]:
        codes = {fn.__code__: key for key, fn in self.targets.items()}
        calls = dict.fromkeys(self.targets, 0)
        resolution_file = self.fp.resolution.__file__
        h0_code = self.targets["h0"].__code__
        degrees = 0
        for entry in self.profile.getstats():
            code = entry.code
            if code in codes:
                calls[codes[code]] += entry.callcount
            if getattr(code, "co_filename", None) == resolution_file:
                degrees += sum(sub.callcount for sub in entry.calls or () if sub.code is h0_code)
        if calls["decompose"] != self.decompositions:
            raise RuntimeError("decompositions escaped the counting wrapper")
        return {
            "configuration.validate_calls": calls["validate"],
            "negcurves.enumerate_calls": calls["enumerate"],
            "negcurves.candidates": self.candidates,
            "lattice.intersect_calls": calls["intersect"],
            "zariski.decompose_calls": calls["decompose"],
            "zariski.steps": self.steps,
            "zariski.repeat_share": self.repeats / calls["decompose"] if calls["decompose"] else 0.0,
            "cohomology.h0_calls": calls["h0"],
            "syzygy.s_dim_calls": calls["s_dim"],
            "resolution.degrees": degrees,
            "oracle.hilbert_calls": calls["hilbert_oracle"],
            "oracle.nu_calls": calls["nu_oracle"],
            "oracle.matrix_cells": sum(matrix_cells(op) for op in ops),
        }
