"""In-memory spans around the public functions of the quasitrace layers.

A `Tracer` rebinds each traced function on every quasitrace module that holds
it (``rotation_block`` is bound in ``words``, ``transfer`` and ``dynamics``),
so calls made inside the package are seen too.  Each call records a span
``[name, start, end, parent]`` and adds the work it was asked to do, counted
from its arguments and array shapes.  `restore` puts the originals back.

The layers are the package modules.  ``phase`` and ``xfloat`` are value types
called inside ``words`` and ``transfer``; their cost is part of those layers'
self time.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import Counter

import numpy as np


def _transfer_sites(k, *args, **kwargs):
    from quasitrace.words import fib_number
    return {"transfer.site_steps": fib_number(k)}


def _norm_profile_sites(l_values, *args, **kwargs):
    # norm_profile sweeps floor(max |L|) + 1 sites
    top = math.floor(max(abs(l) for l in l_values)) + 1 if len(l_values) else 0
    return {"transfer.site_steps": top}


def _rotation_symbols(n_lo, n_hi, *args, **kwargs):
    return {"words.rotation_block.symbols": n_hi - n_lo + 1}


def _trace_grid_points(E, *args, **kwargs):
    return {"spectrum.trace_grid.points": int(np.size(E))}


def _eigensystem_work(trunc, *args, **kwargs):
    m = int(trunc.diagonal.size)
    return {"dynamics.eigensystem.sites": m,
            "dynamics.eigensystem.vector_bytes": 8 * m * m}


def _abel_work(es, sites, *args, **kwargs):
    m = int(es.eigenvalues.size)
    return {"dynamics.abel_site_masses.sites": len(sites),
            "dynamics.abel_site_masses.kernel_entries": m * m}


# "layer.function" -> work counted per call (None: calls and time only)
TRACED = {
    "words.rotation_block": _rotation_symbols,
    "transfer.dual_traces_upto": _transfer_sites,
    "transfer.phase_trace_parity": None,  # sweeps through traces_*_upto
    "transfer.traces_right_upto": _transfer_sites,
    "transfer.traces_left_upto": _transfer_sites,
    "transfer.norm_profile": _norm_profile_sites,
    "transfer.norm_trace_inequality": _transfer_sites,
    "spectrum.trace_grid": _trace_grid_points,
    "spectrum.bands": None,
    "spectrum.derivative_growth_scan": None,
    "spectrum.norm_growth_check": None,
    "dynamics.eigensystem": _eigensystem_work,
    "dynamics.abel_site_masses": _abel_work,
    "dynamics.exponent_trend": None,
    "dynamics.dynamical_bound_check": None,
    "cli.main": None,
}


class Tracer:
    """Records spans and work counts for the functions in `TRACED`."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name, func, work):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if work is not None:
                counts.update(work(*args, **kwargs))
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return func(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return traced

    def install(self) -> None:
        """Rebind every traced function wherever a quasitrace module holds it."""
        import quasitrace.cli  # noqa: F401  (loads every layer)

        wrapped = {}
        for name, work in TRACED.items():
            layer, func_name = name.split(".")
            original = getattr(sys.modules[f"quasitrace.{layer}"], func_name)
            wrapped[id(original)] = (original, self._wrap(name, original, work))
        modules = [m for key, m in sys.modules.items()
                   if key == "quasitrace" or key.startswith("quasitrace.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def export(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def summarize(spans) -> dict:
    """Calls and self time per span name.

    Self time is a span's duration minus the time its direct children cover;
    spans come from one thread, so children never overlap each other.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict = {}
    for (name, start, end, _), inner in zip(spans, child_time):
        entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - inner
    return out
