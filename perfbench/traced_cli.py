"""Run one ``poswalk`` CLI invocation with every layer's public functions traced.

Usage: python3 perfbench/traced_cli.py RECORD.json <poswalk arguments...>

The process imports the package, replaces each public function of the
layer modules (and ``ExpansionSet.evaluate`` and the CLI's two artifact
writers) by a wrapper that records a span, runs the CLI's ``main`` as the
console script would, writes the spans to RECORD.json and exits with the
CLI's exit code.  Nothing inside ``src/`` is changed: the spans are taken
from outside, around the calls into each layer.

``functools.lru_cache`` objects are left unwrapped, so their cache
counters stay readable and recursive lookups pay no span cost.  The
oracle's private row splitter gets a counting tap (no span) that measures
the nonzero share of the last survivor row of each float sweep.
"""

from __future__ import annotations

import json
import sys
import time

_T0 = time.perf_counter()

from spans import LAYERS, SWEEP_HORIZON_ARG, Tracer  # noqa: E402


def sweep_units(mods, name, bound) -> dict:
    """Steps of a sweep from its arguments, plus the dense-row work model.

    Dense-row model: after step k the survivor row spans
    [floor, k * max_step], i.e. k * max_step - floor + 1 cells (free walk:
    k * (max_step - min_step) + 1).  Each step reads and writes every cell
    of the row once per support point, in float64.
    """
    args = bound.arguments
    horizon = args[SWEEP_HORIZON_ARG[name]]
    steps = max(horizon) if isinstance(horizon, (list, tuple)) else int(horizon)
    if args.get("mode", "float64") == "exact-rational":
        return {"steps": steps, "exact": 1}
    dist = args["dist"]
    if name == "oracle.free_pmf":
        slope, const = dist.max_step - dist.min_step, 1
    else:
        slope, const = dist.max_step, 1 - mods["oracle"].Barrier.parse(args["barrier"]).floor
    cells = slope * steps * (steps + 1) // 2 + const * steps
    return {"steps": steps, "exact": 0, "cells": cells,
            "bytes": 8 * cells * len(dist.support) * 2,
            "row_bytes": 8 * (slope * steps + const)}


def install(tracer: Tracer, mods: dict, extras: dict) -> None:
    """Wrap the layers' public functions in spans; tap the oracle's row splitter."""
    # imported here, after the "cli.import" span, so that span alone
    # carries the cost of importing the package and numpy
    import inspect
    import os
    import types

    import numpy as np

    tap: list[list[int]] = []  # [horizon, steps seen, is_float] per open sweep

    def wrap(fn, name):
        sig = inspect.signature(fn)

        if name in SWEEP_HORIZON_ARG:
            def sweep(*args, **kwargs):
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    units = sweep_units(mods, name, bound)
                except Exception:  # unexpected signature: trace without counts
                    units = {}
                tap.append([units.get("steps", 0), 0, not units.get("exact")])
                try:
                    return tracer.call(name, fn, args, kwargs, lambda _: units)
                finally:
                    tap.pop()
            return sweep

        if name.startswith("cli._write_"):
            def write(*args, **kwargs):
                return tracer.call(name, fn, args, kwargs,
                                   lambda _: {"bytes": os.path.getsize(args[0])})
            return write

        if name == "expansion.enumerate_tuples":
            return lambda *a, **kw: tracer.call(name, fn, a, kw, lambda r: {"tuples": len(r)})

        return lambda *a, **kw: tracer.call(name, fn, a, kw)

    wrapped = {}
    for layer in LAYERS:
        mod = mods[layer]
        for attr, obj in vars(mod).items():
            if (isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                wrapped[obj] = wrap(obj, f"{layer}.{attr}")
    for attr in ("_write_json", "_write_csv"):
        fn = getattr(mods["cli"], attr, None)
        if fn is not None:
            wrapped[fn] = wrap(fn, f"cli.{attr}")

    split = getattr(mods["oracle"], "_split_killed", None)
    if split is not None:
        def split_tap(*args, **kwargs):
            out = split(*args, **kwargs)
            if tap:
                t = tap[-1]
                t[1] += 1
                if t[1] == t[0] and t[2]:
                    try:
                        values = out[0].values
                        extras["fill_nonzero"] += int(np.count_nonzero(values))
                        extras["fill_cells"] += len(values)
                    except Exception:  # row type changed: no fill sample
                        pass
            return out
        wrapped[split] = split_tap

    # rebind every reference the package holds, including names imported
    # from one module into another
    for mod in [sys.modules[n] for n in list(sys.modules)
                if n == "poswalk" or n.startswith("poswalk.")]:
        for attr, obj in list(vars(mod).items()):
            try:
                replacement = wrapped.get(obj)
            except TypeError:  # unhashable module attribute
                continue
            if replacement is not None:
                setattr(mod, attr, replacement)

    cls = getattr(mods["expansion"], "ExpansionSet", None)
    if cls is not None and hasattr(cls, "evaluate"):
        cls.evaluate = wrap(cls.evaluate, "expansion.ExpansionSet.evaluate")


def main() -> int:
    record_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    extras = {"fill_nonzero": 0, "fill_cells": 0}
    idx = tracer.begin("cli.import")
    import importlib
    mods = {layer: importlib.import_module(f"poswalk.{layer}") for layer in LAYERS}
    tracer.end(idx)
    install(tracer, mods, extras)
    sys.argv = ["poswalk"] + argv
    try:
        rc = mods["cli"].main()  # wrapped above: records the "cli.main" span
    finally:
        gamma = getattr(mods["laurent"], "gamma_recursive", None)
        info = gamma.cache_info() if hasattr(gamma, "cache_info") else None
        extras["gamma_hits"] = info.hits if info else 0
        extras["gamma_misses"] = info.misses if info else 0
        with open(record_path, "w", encoding="utf-8") as fh:
            json.dump({"t0": _T0, "spans": tracer.spans, "extras": extras}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
