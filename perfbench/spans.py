"""Spans and counters recorded from outside the package.

A traced run wraps the package's public functions (one wrapper per layer
metric in :data:`LAYERS`) so that every call records a span with its
name, start, end, parent span and job id, plus the counters of that layer.
Spans stay in memory and are written out when the run ends.  Nothing
under ``src/`` is modified: in-process workloads call the wrappers
directly, and the traced CLI child installs them on the names that
``chbez.cli`` and ``chbez.gallery`` imported.

This module must not import numpy or chbez at import time: the traced CLI
child imports it before timing ``import chbez.cli``.
"""

from __future__ import annotations

import importlib
import json
import math
import time
from collections import defaultdict

# Span name -> (module, attribute) of the public function it wraps.
LAYERS = {
    "bbasis.basis_matrix": ("chbez.bbasis", "basis_matrix"),
    "xform.transform_matrix": ("chbez.xform", "transform_matrix"),
    "exact.exact_curve": ("chbez.exact", "exact_curve"),
    "exact.exact_rational_curve": ("chbez.exact", "exact_rational_curve"),
    "curve.evaluate": ("chbez.curve", "evaluate"),
    "curve.elevate": ("chbez.curve", "elevate"),
    "curve.subdivide": ("chbez.curve", "subdivide"),
    "surface.exact_surface": ("chbez.surface", "exact_surface"),
    "surface.exact_rational_surface": ("chbez.surface", "exact_rational_surface"),
    "surface.sample_lattice": ("chbez.surface", "sample_lattice"),
    "io.parse_document": ("chbez.io", "parse_document"),
    "io.export_svg": ("chbez.io", "export_svg"),
    "io.export_obj": ("chbez.io", "export_obj"),
    "io.export_table": ("chbez.io", "export_table"),
    "gallery.run_gallery": ("chbez.gallery", "run_gallery"),
}

# BezierPiece.evaluate is a method; it gets its own wrapper.
PIECE_EVALUATE = "curve.piece_evaluate"

# Spans recorded by the CLI child itself rather than by a wrapper.
CLI_IMPORT = "cli.import"
CLI_MAIN = "cli.main"
JOB = "job"


def _size(x) -> int:
    import numpy as np

    return int(np.size(x))


def _count(tracer: "Tracer", name: str, args, kwargs, result):
    """Layer counters, taken from arguments and results at the boundary."""
    if name == "io.parse_document":
        tracer.add("io.parse_document_calls", 1)
    elif name == "io.export_svg":
        tracer.add("io.export_svg_bytes", len(result))
    elif name == "io.export_obj":
        net = args[1] if len(args) > 1 else kwargs.get("control_net")
        vertices = _size(args[0]) // 3 + (_size(net) // 3 if net is not None else 0)
        tracer.add("io.export_obj_vertices", vertices)
        tracer.add("io.export_obj_bytes", len(result))
    elif name == "io.export_table":
        tracer.add("io.export_table_values", _size(args[0]))
    elif name == "surface.exact_rational_surface":
        from chbez import min_orders

        requested = args[1] if len(args) > 1 else kwargs.get("orders")
        start = sum(requested) if requested is not None else sum(min_orders(args[0]))
        tracer.add("surface.elevation_steps", sum(result.orders) - start)
    elif name == "surface.sample_lattice":
        tracer.add("surface.sample_lattice_points", math.prod(int(c) for c in args[2]))
    elif name == "xform.transform_matrix":
        space = args[0]
        tracer.add("xform.transform_matrix_calls", 1)
        tracer.add("xform.repeat_calls", 1 if space in tracer.seen_spaces else 0)
        tracer.seen_spaces.add(space)
    elif name == "bbasis.basis_matrix":
        tracer.add("bbasis.basis_matrix_params", _size(args[1]))
    elif name == "exact.exact_rational_curve":
        tracer.add("exact.elevation_steps", result.elevations)
    elif name == "curve.evaluate":
        tracer.add("curve.evaluate_params", _size(args[1]))
    elif name == PIECE_EVALUATE:
        tracer.add("curve.piece_evaluate_params", _size(args[1]))


class Tracer:
    """In-memory span and counter store for one process.

    ``spans`` holds ``[name, start, end, parent, job]`` lists; ``parent`` is
    the index of the enclosing span or -1.  Times are ``perf_counter``
    seconds, which on Linux share one monotonic clock across processes, so
    spans recorded by a child can be merged under the parent's job span.
    """

    def __init__(self, seen_spaces=None):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.seen_spaces = seen_spaces if seen_spaces is not None else set()
        self.job = None
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        self._stack.append(index)
        return index

    def close(self, index: int):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def record(self, name: str, start: float, end: float) -> int:
        """Add a finished span under the current one (for times taken elsewhere)."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, self.job])
        return len(self.spans) - 1

    def add(self, counter: str, value: float):
        self.counts[counter] += value

    def wrap(self, name: str, fn):
        """``fn`` with a span and the layer's counters around every call."""

        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            _count(self, name, args, kwargs, result)
            return result

        return traced

    def merge(self, spans: list[list], counts: dict, parent: int):
        """Append spans recorded by another process below span ``parent``."""
        offset = len(self.spans)
        for name, start, end, p, _ in spans:
            self.spans.append([name, start, end, parent if p < 0 else p + offset, self.job])
        for key, value in counts.items():
            self.counts[key] += value

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def public_function(name: str):
    module, attr = LAYERS[name]
    return getattr(importlib.import_module(module), attr)


def install(tracer: Tracer, modules) -> None:
    """Replace the public functions that ``modules`` imported by traced ones."""
    originals = {public_function(name): name for name in LAYERS}
    for module in modules:
        for attr, value in list(vars(module).items()):
            name = originals.get(value) if callable(value) else None
            if name is not None:
                setattr(module, attr, tracer.wrap(name, value))


def self_times(spans: list[list], scales=None) -> dict[str, float]:
    """Total self time per span name: duration minus time covered by children.

    ``scales``, indexed by job id, multiplies the spans of each job (the
    benchmark's scaling to a reference host speed).
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, job) in enumerate(spans):
        factor = scales[job] if scales is not None and job is not None else 1.0
        totals[name] += ((end - start) - child[i]) * factor
    return dict(totals)


def write(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh)
