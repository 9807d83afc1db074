"""In-memory span recorder for the traced benchmark run.

The recorder wraps acmag's public functions from outside the package. A
module that did ``from .x import f`` holds its own reference to ``f``, so
each wrapper is bound under every name, in every ``acmag`` module, that
refers to the original function (``acmag.nv.propagate`` as well as
``acmag.dynamics.propagate``). ``uninstall`` restores the originals, so
untraced iterations run the program untouched.

A span is ``[name, start_ns, end_ns, parent_index, iteration]``. A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from statistics import median

# Functions timed as spans: (module, function).
SPANNED = (
    ("nv", "scaling_study"),
    ("nv", "sweep_signal"),
    ("nv", "sequence_unitary"),
    ("nv", "bell_readout"),
    ("nv", "parameter_uncertainty"),
    ("dynamics", "propagate"),
    ("dynamics", "generator_numeric"),
    ("dynamics", "generator_closed_form"),
    ("linalg", "expm_hermitian"),
    ("linalg", "pure_cov"),
    ("linalg", "tensor"),
    ("linalg", "haar_state"),
    ("qfim", "sample_probe_determinants"),
    ("qfim", "qfim_from_generators"),
    ("qfim", "relative_error_curves"),
    ("qfim", "qfim_closed_form"),
    ("bounds", "strategy_comparison"),
    ("bounds", "envelope_integral"),
    ("fitting", "loglog_slope"),
    ("fitting", "envelope_slope"),
    ("cli", "emit_results"),
    ("cli", "run"),
)
# Called about 71k times per nv_scaling iteration: counted, not timed, so
# its cost stays inside the spans of its callers.
COUNTED = (("nv", "nv_rotating_hamiltonian"),)
# cli.run spans are named per command.
CLI_COMMANDS = ("nv-scaling", "qfim-scan", "convergence", "bounds",
                "probe-search")


def _grid_steps(args, kwargs, grid_position):
    grid = kwargs["grid"] if "grid" in kwargs else args[grid_position]
    return grid.steps


def _written_bytes(result):
    return sum(os.path.getsize(path) for path in result)


# Work counters per span: name -> (counter, amount(args, kwargs, result)).
EXTRAS = {
    "dynamics.propagate": (
        "dynamics.propagate.steps", lambda a, k, r: _grid_steps(a, k, 1)),
    "dynamics.generator_numeric": (
        "dynamics.generator_numeric.steps",
        lambda a, k, r: _grid_steps(a, k, 2)),
    "cli.emit_results": (
        "cli.emit_results.bytes", lambda a, k, r: _written_bytes(r)),
}


def _span_names() -> list[str]:
    names = [f"{m}.{f}" for m, f in SPANNED if (m, f) != ("cli", "run")]
    return names + [f"cli.run.{c}" for c in CLI_COMMANDS]


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, as (name, unit)."""
    out = []
    for name in _span_names():
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [(f"{m}.{f}.calls", "count") for m, f in COUNTED]
    out += [(counter, "bytes" if counter.endswith("bytes") else "count")
            for counter, _ in EXTRAS.values()]
    out += [("dynamics.generator_numeric.ns_per_step", "ns"),
            ("trace.overhead_s", "s")]
    return out


class SpanRecorder:
    """Records spans and counters for the iterations it is installed in."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple[str, int], int] = defaultdict(int)
        self.iteration = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: dict[object, object] | None = None

    def _spanned(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns
        extra = EXTRAS.get(name)
        per_command = name == "cli.run"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = f"{name}.{args[0]}" if per_command else name
            index = len(spans)
            spans.append([label, clock(), 0,
                          stack[-1] if stack else -1, self.iteration])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            if extra is not None:
                counts[extra[0], self.iteration] += extra[1](args, kwargs,
                                                             result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[f"{name}.calls", self.iteration] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, iteration: int) -> None:
        """Wrap the traced functions for one iteration."""
        self.iteration = iteration
        if self._wrappers is None:
            self._wrappers = {}
            for kind, table in ((self._spanned, SPANNED),
                                (self._counted, COUNTED)):
                for module, fn_name in table:
                    original = getattr(sys.modules[f"acmag.{module}"], fn_name)
                    self._wrappers[original] = kind(f"{module}.{fn_name}",
                                                    original)
        modules = [m for n, m in list(sys.modules.items())
                   if n == "acmag" or n.startswith("acmag.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(value) if callable(value) else None
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        self.iteration = -1

    def metrics(self, iterations: list[int], overhead_s: float) -> dict:
        """Per-iteration medians of every per-layer metric over ``iterations``."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals = defaultdict(int)
        for (name, start, end, _, it), child in zip(self.spans, child_ns):
            totals[f"{name}.calls", it] += 1
            totals[f"{name}.self_s", it] += end - start - child
        for key, amount in self.counts.items():
            totals[key] += amount

        out = {}
        for name, unit in per_layer_metrics():
            values = [totals.get((name, it), 0) for it in iterations]
            value = median(values) if values else 0
            out[name] = {"value": value / 1e9 if unit == "s" else value,
                         "unit": unit}
        steps = out["dynamics.generator_numeric.steps"]["value"]
        self_s = out["dynamics.generator_numeric.self_s"]["value"]
        out["dynamics.generator_numeric.ns_per_step"]["value"] = (
            self_s * 1e9 / steps if steps else 0.0)
        out["trace.overhead_s"]["value"] = overhead_s
        return out

    def write(self, path) -> None:
        """Write the spans as tab-separated lines, one per span."""
        with open(path, "w") as f:
            f.write("iteration\tindex\tparent\tname\tstart_ns\tend_ns\n")
            for index, (name, start, end, parent, it) in enumerate(self.spans):
                f.write(f"{it}\t{index}\t{parent}\t{name}\t{start}\t{end}\n")
