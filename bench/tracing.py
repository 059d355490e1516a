"""Spans around the calls into each layer of ``revcarleson``.

The tracer wraps the public functions listed in ``LAYERS`` from outside the
program.  The modules import these names directly (``cli`` holds
``greedy_packing``, ``criteria`` holds ``measure_of_ball``, ``dbr`` holds
``refine`` ...), so a wrapper replaces the function in every loaded
``revcarleson`` module namespace that holds it, and :meth:`Tracer.restore`
puts every original back.

A span is ``(span_id, parent_id, op_id, name, start, end)``.  Spans are kept
in memory and written out when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

from workloads import SUBCOMMANDS

LAYERS = {
    "geometry": ("greedy_packing", "sample_cap"),
    "quadrature": ("sphere_grid", "refine", "integrate_sphere",
                   "integrate_window"),
    "measures": ("integrate_measure", "measure_of_ball", "measure_of_window"),
    "kernels": ("kernel_norm", "hp_norm", "normalized_kernel"),
    "criteria": ("condition_iii_profile", "condition_ii_profile",
                 "window_profile", "forward_profile",
                 "reverse_inequality_witness", "equivalence_report"),
    "dbr": ("kernel_test", "one_minus_b_integral", "refute_sampling"),
}


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _search_cells(args, kwargs, result):
    sgrid = _arg(args, kwargs, 1, "sgrid")
    cells = len(sgrid.centers()) * len(sgrid.deltas())
    return {"criteria.cells": cells,
            "criteria.cells_skipped": cells - len(result.values)}


# Counts taken at the layer boundary from a call's arguments and result.
COUNTERS = {
    "geometry.greedy_packing": lambda a, k, r: {"geometry.balls": len(r[0])},
    # refine builds its grid through sphere_grid, so count only here
    "quadrature.sphere_grid": lambda a, k, r: {
        "quadrature.grid_nodes_built": len(r)},
    "quadrature.integrate_sphere": lambda a, k, r: {
        "quadrature.integrate_sphere.nodes": len(_arg(a, k, 1, "grid"))},
    "quadrature.integrate_window": lambda a, k, r: {
        "quadrature.integrate_window.radial_nodes":
            len(_arg(a, k, 3, "radial").nodes)},
    "kernels.kernel_norm": lambda a, k, r: {
        "kernels.kernel_norm.quadrature_calls":
            int(_arg(a, k, 2, "grid") is not None)},
    "criteria.condition_iii_profile": _search_cells,
    "criteria.window_profile": _search_cells,
    "criteria.forward_profile": _search_cells,
    "criteria.condition_ii_profile": lambda a, k, r: {
        "criteria.w_points": len(r.values)},
}

COUNT_NAMES = ("geometry.balls", "quadrature.grid_nodes_built",
               "quadrature.integrate_sphere.nodes",
               "quadrature.integrate_window.radial_nodes",
               "kernels.kernel_norm.quadrature_calls",
               "criteria.cells", "criteria.cells_skipped", "criteria.w_points")


class Tracer:
    """Records spans and boundary counts while installed."""

    package = "revcarleson"

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op_id = None
        self._stack = []
        self._next_id = 0
        self._patched = []       # (module, attribute, original)

    # -- spans ---------------------------------------------------------------

    def _open(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start):
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((sid, parent, self.op_id, name, start, end))

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name`` (used for op roots)."""
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid, parent, name, start)

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            sid, parent = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, parent, name, start)
            if counter is not None:
                self.counts.update(counter(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------------

    def _modules(self):
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == self.package
                                      or n.startswith(self.package + "."))]

    def install(self) -> None:
        """Replace every listed function in every module that holds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        for layer, names in LAYERS.items():
            home = sys.modules[f"{self.package}.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    def patched_names(self) -> list:
        return sorted(f"{m.__name__}.{a}" for m, a, _ in self._patched)

    # -- results -------------------------------------------------------------

    def take(self):
        """Return and clear the spans and counts recorded so far."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts

    @staticmethod
    def write(spans, path) -> None:
        with open(path, "w") as fh:
            for span in spans:
                fh.write(json.dumps(list(span)) + "\n")


def layer_metrics(spans, counts) -> dict:
    """Per-layer metrics of one pass: calls, busy and self time, counts.

    Busy time is a span's duration; self time is its duration minus the
    time covered by its direct children (calls are sequential, so the
    children's durations do not overlap).
    """
    child_time = defaultdict(float)
    for _, parent, _, _, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    calls, busy = Counter(), defaultdict(float)
    self_time = defaultdict(float)
    for sid, _, _, name, start, end in spans:
        calls[name] += 1
        busy[name] += end - start
        self_time[name.split(".", 1)[0]] += end - start - child_time[sid]
    out = {}
    for layer, names in LAYERS.items():
        for fname in names:
            name = f"{layer}.{fname}"
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.busy_s"] = busy[name]
    for layer in (*LAYERS, "cli"):
        out[f"{layer}.self_s"] = self_time[layer]
    for command in SUBCOMMANDS:
        out[f"cli.{command}.busy_s"] = busy[f"cli.{command}"]
    for name in COUNT_NAMES:
        out[name] = counts[name]
    return out
