"""Spans: recording them in a traced process and turning them into layer metrics.

A span is one call into a layer: its name (``<layer>.<function>``), start
and end on the process's monotonic clock, the index of the span that was
open when it began (its parent), the exception type it raised if any, and
optional work counts (``units``).  Spans stay in memory and are written
once, when the traced process ends.

A span's self time is its duration minus the part of its interval that its
children cover.  A layer's self time is the sum over its spans.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

LAYERS = ("oracle", "extrapolation", "constants", "edgeworth", "laurent", "expansion",
          "integral", "increments", "cli")

# oracle sweeps and the argument that holds their horizon
SWEEP_HORIZON_ARG = {"oracle.free_pmf": "n", "oracle.killed_table": "n",
                     "oracle.killed_rows_at": "ns", "oracle.tau_statistics": "kmax",
                     "oracle.survival_profile": "nmax"}


class Tracer:
    """Collects spans of one process.

    A span that starts on a worker thread with nothing open on that thread
    takes as parent the innermost span open on the main thread, which is
    the call that handed the work to the pool and is blocked waiting on it.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_ident = threading.get_ident()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        with self._lock:
            idx = len(self.spans)
            self.spans.append({"name": name, "start": self.clock(), "end": None,
                               "parent": parent, "error": None, "units": None})
        stack.append(idx)
        return idx

    def end(self, idx: int, error: str | None = None, units: dict | None = None) -> None:
        span = self.spans[idx]
        span["end"] = self.clock()
        span["error"] = error
        span["units"] = units
        stack = self._stack()
        if stack and stack[-1] == idx:
            stack.pop()

    def call(self, name: str, fn, args, kwargs, units_of=None):
        """Run ``fn(*args, **kwargs)`` inside a span; ``units_of(result)`` gives counts."""
        idx = self.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self.end(idx, error=type(exc).__name__)
            raise
        self.end(idx, units=units_of(result) if units_of else None)
        return result


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Per span: duration minus the union of its children's intervals within it."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = []
    for i, s in enumerate(spans):
        covered = _union_length((max(c["start"], s["start"]), min(c["end"], s["end"]))
                                for c in children[i])
        out.append((s["end"] - s["start"]) - covered)
    return out


def inclusive(spans: list[dict], select) -> float:
    """Summed duration of selected spans that have no selected ancestor."""
    total = 0.0
    for s in spans:
        if not select(s):
            continue
        p = s["parent"]
        while p is not None and not select(spans[p]):
            p = spans[p]["parent"]
        if p is None:
            total += s["end"] - s["start"]
    return total


def _units(spans, select, key) -> float:
    return sum((s["units"] or {}).get(key, 0) for s in spans if select(s))


def invocation_metrics(record: dict) -> dict[str, float]:
    """Additive per-layer quantities of one traced CLI invocation.

    ``record`` is what the traced process wrote: ``spans`` plus ``extras``
    (row-fill tap and cache counters).  Ratios are returned as numerator
    and denominator keys so that a pass can add invocations before dividing.
    """
    spans = record["spans"]
    extras = record.get("extras", {})

    def named(*names):
        return lambda s: s["name"] in names

    def in_layer(layer):
        return lambda s: layer_of(s["name"]) == layer

    def float_sweep(s):
        return s["name"] in SWEEP_HORIZON_ARG and not (s["units"] or {}).get("exact")

    def exact_sweep(s):
        return s["name"] in SWEEP_HORIZON_ARG and bool((s["units"] or {}).get("exact"))

    fits = named("extrapolation.fit_power_tail")
    m = {
        "oracle.sweep_s": inclusive(spans, float_sweep),
        "oracle.sweeps": sum(1 for s in spans if float_sweep(s)),
        "oracle.steps": _units(spans, float_sweep, "steps"),
        "oracle.exact_s": inclusive(spans, exact_sweep),
        "oracle.interval_s": inclusive(spans, named("oracle.conditioned_interval_prob")),
        "extrapolation.fit_s": inclusive(spans, in_layer("extrapolation")),
        "extrapolation.fits": sum(1 for s in spans if fits(s)),
        "extrapolation.fit_errors": sum(1 for s in spans if fits(s) and s["error"] in
                                        ("IllConditioned", "InsufficientPoints")),
        "constants.u1_s": inclusive(spans, named("constants.u1_tabulate")),
        "edgeworth.lclt_s": inclusive(spans, in_layer("edgeworth")),
        "laurent.q_jlm_calls": sum(1 for s in spans if s["name"] == "laurent.q_jlm"),
        "expansion.assemble_s": inclusive(spans, named("expansion.assemble_Q")),
        "expansion.tuples": _units(spans, named("expansion.enumerate_tuples"), "tuples"),
        "expansion.cancellation_failures": sum(
            1 for s in spans if s["name"] == "expansion.assemble_Q"
            and s["error"] == "CancellationFailure"),
        "expansion.evaluate_s": inclusive(spans, named("expansion.ExpansionSet.evaluate",
                                                       "expansion.evaluate")),
        "expansion.evaluate_calls": sum(1 for s in spans
                                        if s["name"] == "expansion.ExpansionSet.evaluate"),
        "integral.quad_s": inclusive(spans, in_layer("integral")),
        "increments.load_s": inclusive(spans, in_layer("increments")),
        "cli.import_s": inclusive(spans, named("cli.import")),
        "cli.write_s": inclusive(spans, lambda s: s["name"].startswith("cli._write_")),
        "cli.bytes_written": _units(spans, lambda s: s["name"].startswith("cli._write_"),
                                    "bytes"),
        "computed.dense_cells": _units(spans, float_sweep, "cells"),
        "computed.bytes_moved": _units(spans, float_sweep, "bytes"),
        "trace.spanned_s": sum(s["end"] - s["start"] for s in spans if s["parent"] is None),
        # ratio parts
        "oracle.row_fill.num": extras.get("fill_nonzero", 0),
        "oracle.row_fill.den": extras.get("fill_cells", 0),
        "laurent.gamma_cache_hit_ratio.num": extras.get("gamma_hits", 0),
        "laurent.gamma_cache_hit_ratio.den": extras.get("gamma_hits", 0)
        + extras.get("gamma_misses", 0),
    }
    row_bytes = [(s["units"] or {}).get("row_bytes", 0) for s in spans if float_sweep(s)]
    m["computed.max_row_bytes"] = max(row_bytes, default=0)
    selfs = self_times(spans)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(t for s, t in zip(spans, selfs) if layer_of(s["name"]) == layer)
    return m


def pass_metrics(per_invocation: list[dict[str, float]]) -> dict[str, float]:
    """Add invocation quantities into one pass; finish the ratios."""
    total: dict[str, float] = defaultdict(float)
    for m in per_invocation:
        for k, v in m.items():
            if k == "computed.max_row_bytes":
                total[k] = max(total[k], v)
            else:
                total[k] += v
    out = {k: v for k, v in total.items() if not k.endswith((".num", ".den"))}
    for k in [k[:-4] for k in total if k.endswith(".num")]:
        den = total[k + ".den"]
        out[k] = total[k + ".num"] / den if den else 0.0
    return out
