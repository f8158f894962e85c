"""Per-layer tracing for the traced benchmark run.

`Tracer.install` replaces every public function of each ``thinepi`` module,
and every public method of the classes those modules define, with a timing
wrapper.  The wrapper is bound at every name through which the function is
called: the defining module, each module that imported it by name, and the
class for methods.  Nothing under ``src/`` changes, and the untraced run
never imports this module's wrappers.

Each wrapped call records its inclusive time (counted once under recursion)
and its call count.  A module's self time is the time spent in its wrapped
functions minus the time spent in wrapped functions of other modules that
they call.  A few functions carry extra counters (solver sweeps, eigenbasis
cache hits and misses, interpolated points, CSV bytes), see `_HOOKS`.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYER_MODULES = ("grids", "polynomials", "profiles", "spectral", "traces",
                 "weiss", "epiperimetric", "solver", "frequency", "artifacts",
                 "svgplot", "cli")

# Metrics that are sums of other recorded keys.
_SUMS = {
    "epiperimetric.sample_traces.s": (
        "epiperimetric.sample_positive_traces.s",
        "epiperimetric.sample_negative_traces.s"),
    "frequency.contact_checks.s": (
        "frequency.vanishing_on_Zdelta_check.s",
        "frequency.linfty_l2_check.s"),
}


class _Frame:
    __slots__ = ("module", "entry", "foreign")

    def __init__(self, module, entry):
        self.module = module
        self.entry = entry if entry is not None else self
        self.foreign = 0.0


class Tracer:
    """Timing wrappers around the public ``thinepi`` functions."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.counts = defaultdict(float)
        self.self_s = defaultdict(float)
        self._stack: list[_Frame] = []
        self._depth = defaultdict(int)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function and method."""
        modules = {name: sys.modules[f"thinepi.{name}"]
                   for name in LAYER_MODULES}
        wrapped = {}
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_")
                        or getattr(value, "__module__", None)
                        != module.__name__):
                    continue
                if inspect.isfunction(value):
                    wrapped[value] = self._wrap(layer, f"{layer}.{attr}",
                                                value)
                elif inspect.isclass(value):
                    self._wrap_methods(layer, value)
        # Rebind each wrapped function at every module-level name it has.
        for module in list(modules.values()) + [sys.modules["thinepi"]]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(module, attr, wrapped[value])

    def _wrap_methods(self, layer, cls):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            key = f"{layer}.{attr}"
            if isinstance(value, staticmethod):
                setattr(cls, attr, staticmethod(
                    self._wrap(layer, key, value.__func__)))
            elif inspect.isfunction(value):
                setattr(cls, attr, self._wrap(layer, key, value))

    def _wrap(self, layer, key, fn):
        before_hook, after_hook = _HOOKS.get(key, (None, None))
        stack, depth = self._stack, self._depth
        seconds, counts, self_s = self.seconds, self.counts, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            same = parent is not None and parent.module == layer
            frame = _Frame(layer, parent.entry if same else None)
            stack.append(frame)
            depth[key] += 1
            before = before_hook(args, kwargs) if before_hook else None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                depth[key] -= 1
                counts[key + ".calls"] += 1
                if depth[key] == 0:
                    seconds[key + ".s"] += elapsed
                if not same:
                    self_s[layer] += elapsed - frame.foreign
                    if parent is not None:
                        parent.entry.foreign += elapsed
            if after_hook:
                after_hook(self, key, args, kwargs, result, elapsed, before)
            return result

        return wrapper

    # -- reporting ----------------------------------------------------------

    def snapshot(self) -> dict:
        """Flat copy of every accumulated figure, keyed by metric name."""
        flat = dict(self.counts)
        flat.update(self.seconds)
        for layer, value in self.self_s.items():
            flat[f"{layer}.self_s"] = value
        for name, parts in _SUMS.items():
            flat[name] = sum(flat.get(part, 0.0) for part in parts)
        return flat


def per_layer_metrics(setup: dict, end: dict, rounds: int,
                      import_s: float) -> dict:
    """Set-up figures plus the average of one timed round, per metric.

    Every round runs the same ops on the same inputs, so the counts of one
    round are whole numbers that repeat exactly between runs.
    """
    spec = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    listed = [(m["name"], m["unit"])
              for m in json.loads(spec.read_text())["per_layer"]]
    out = {}
    for name, unit in listed:
        if name == "import.s":
            value = import_s
        elif name == "solver.node_updates_per_s":
            continue
        else:
            value = setup.get(name, 0.0) + (end.get(name, 0.0)
                                            - setup.get(name, 0.0)) / rounds
            if unit in ("count", "bytes") and float(value).is_integer():
                value = int(value)
        out[name] = {"value": value, "unit": unit}
    solve_s = out["solver.solve_thin_obstacle.s"]["value"]
    updates = out["solver.node_updates"]["value"]
    out["solver.node_updates_per_s"] = {
        "value": updates / solve_s if solve_s > 0 else 0.0, "unit": "1/s"}
    return {name: out[name] for name, _ in listed}


# ---------------------------------------------------------------------------
# Extra counters for particular functions
# ---------------------------------------------------------------------------

def _quadrature_route(tracer, key, args, kwargs, result, elapsed, before):
    """Split weiss_quadrature by route: closed-form parts or sampled."""
    route = "parts" if args[0].parts is not None else "sampled"
    tracer.counts[f"{key}.{route}.calls"] += 1
    tracer.seconds[f"{key}.{route}.s"] += elapsed


def _cache_files(args, kwargs) -> int:
    spectral = sys.modules["thinepi.spectral"]
    cache_dir = kwargs.get("cache_dir", args[3] if len(args) > 3 else None)
    folder = inspect.unwrap(spectral.cache_root)(cache_dir) / "eigenbases"
    return len(list(folder.glob("*.npz"))) if folder.is_dir() else 0


def _eigenbasis_cache(tracer, key, args, kwargs, result, elapsed, before):
    """A call is a miss when it adds a file to the cache directory."""
    if _cache_files(args, kwargs) > before:
        tracer.counts[f"{key}.cache_misses"] += 1
        tracer.seconds[f"{key}.cold_s"] += elapsed
    else:
        tracer.counts[f"{key}.cache_hits"] += 1
        tracer.seconds[f"{key}.warm_s"] += elapsed


def _solver_work(tracer, key, args, kwargs, result, elapsed, before):
    """Sweeps, and free nodes times sweeps."""
    free = int((result.kind > 0).sum())
    tracer.counts["solver.iterations"] += result.sweeps
    tracer.counts["solver.node_updates"] += free * result.sweeps


def _evaluate_points(tracer, key, args, kwargs, result, elapsed, before):
    """Points interpolated by GridSolution.evaluate."""
    points = np.asarray(args[1])
    tracer.counts[f"{key}.points"] += points.size // points.shape[-1]


def _csv_bytes(tracer, key, args, kwargs, result, elapsed, before):
    tracer.counts[f"{key}.bytes"] += os.path.getsize(result)


# key -> (state taken before the call or None, counter updated after it)
_HOOKS = {
    "weiss.weiss_quadrature": (None, _quadrature_route),
    "spectral.eigenbasis": (_cache_files, _eigenbasis_cache),
    "solver.solve_thin_obstacle": (None, _solver_work),
    "solver.evaluate": (None, _evaluate_points),
    "artifacts.write_csv": (None, _csv_bytes),
}
