"""Span tracer for the benchmark's traced runs, and the per-layer arithmetic.

The tracer wraps module attributes of ``torusbridge`` from outside the
package: each wrapper records one span (layer name, start, end, parent
span, thread, run id and a few work counts) per call.  Spans stay in
memory and are written out once, when the command has finished.  A
boundary that no longer exists is reported as an absent layer, so the
trace keeps working when helpers are renamed or removed.

Self time is a span's duration minus the part of it covered by its child
spans, children on other threads included.  A span opened on a thread
that has no open span of its own (a pool thread) takes the innermost open
span of the main thread as its parent, which is the batch that started
the pool.

This module imports only the standard library, so loading it in the
child process moves no import cost into or out of the measured set-up.
"""

from __future__ import annotations

import builtins
import importlib
import itertools
import math
import os
import threading
import time
from collections import defaultdict

# Per-layer metrics a traced run reports, in BENCHMARK.json order:
# (name, unit, better).
PER_LAYER = [
    ("cli.setup.import_s", "s", "lower"),
    ("cli.setup.scipy_import_s", "s", "lower"),
    ("cli.write.busy_s", "s", "lower"),
    ("cli.write.bytes", "B", "lower"),
    ("cli.write.floats_per_s", "1/s", "higher"),
    ("engine.batch.self_s", "s", "lower"),
    ("engine.batch.kept_paths_mb", "MB", "lower"),
    ("engine.chunk.count", "count", "lower"),
    ("engine.noise.busy_s", "s", "lower"),
    ("engine.noise.floats_per_s", "1/s", "higher"),
    ("engine.step.self_s", "s", "lower"),
    ("engine.step.path_steps_per_s", "1/s", "higher"),
    ("engine.pool.parallel_efficiency", "ratio", "higher"),
    ("drift.proposed.busy_s", "s", "lower"),
    ("drift.proposed.calls", "count", "lower"),
    ("drift.proposed.points", "count", "lower"),
    ("drift.proposed.points_per_s", "1/s", "higher"),
    ("drift.true-bridge.busy_s", "s", "lower"),
    ("drift.true-bridge.calls", "count", "lower"),
    ("drift.true-bridge.points", "count", "lower"),
    ("drift.true-bridge.points_per_s", "1/s", "higher"),
    ("girsanov.weights.busy_s", "s", "lower"),
    ("girsanov.weights.self_s", "s", "lower"),
    ("girsanov.weights.path_steps_per_s", "1/s", "higher"),
    ("analysis.agreement.self_s", "s", "lower"),
    ("drift.density.busy_s", "s", "lower"),
    ("drift.density.calls", "count", "lower"),
    ("drift.density.points_per_s", "1/s", "higher"),
    ("acceptance.criterion6_s", "s", "lower"),
    ("acceptance.criterion7_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.self_sum_s", "s", "lower"),
]

# CSV columns that hold floats; the writer's float count is rows times
# the number of these in the header.
FLOAT_COLUMNS = {"t", "x1", "x2", "xT1", "xT2", "log_weight", "b1", "b2"}

_VARIANTS = {
    "FreeBrownianMotion": "free-bm",
    "EuclideanBridge": "euclid-bridge",
    "ProposedBridge": "proposed",
    "TrueBridge": "true-bridge",
}


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _shape(x) -> tuple:
    if hasattr(x, "shape"):
        return tuple(x.shape)
    if isinstance(x, (list, tuple)) and x and isinstance(x[0], (list, tuple)):
        return (len(x), len(x[0]))
    return (len(x),)


def _drift_layer(args, kwargs) -> str:
    model = _arg(args, kwargs, 2, "model")
    name = getattr(model, "variant", None)
    if not isinstance(name, str):
        name = _VARIANTS.get(type(model).__name__, type(model).__name__)
    return f"drift.{name}"


def _drift_counts(args, kwargs, result) -> dict:
    return {"points": math.prod(_shape(_arg(args, kwargs, 1, "x"))[:-1])}


def _density_counts(args, kwargs, result) -> dict:
    x = _shape(_arg(args, kwargs, 1, "x"))[:-1]
    y = _shape(_arg(args, kwargs, 3, "y"))[:-1]
    return {"points": max(math.prod(x), math.prod(y))}


def _noise_counts(args, kwargs, result) -> dict:
    return {"floats": math.prod(result.shape)}


def _chunk_counts(args, kwargs, result) -> dict:
    config = _arg(args, kwargs, 0, "config")
    lo, hi = _arg(args, kwargs, 1, "lo"), _arg(args, kwargs, 2, "hi")
    return {"path_steps": (hi - lo) * config.n_steps}


def _batch_counts(args, kwargs, result) -> dict:
    kept = 0
    seen = set()
    for sample in result.paths or ():
        for arr in (sample.states, sample.increments):
            base = arr if arr is None or arr.base is None else arr.base
            if base is not None and id(base) not in seen:
                seen.add(id(base))
                kept += base.nbytes
    return {"workers": kwargs.get("n_workers", 1), "kept_bytes": kept}


def _write_counts(args, kwargs, result) -> dict:
    path = _arg(args, kwargs, 0, "path")
    header = _arg(args, kwargs, 1, "header")
    newlines = 0
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            newlines += block.count(b"\n")
    n_float = sum(col in FLOAT_COLUMNS for col in header.split(","))
    return {"bytes": os.path.getsize(path), "floats": (newlines - 1) * n_float}


# The module boundaries a traced run wraps: (module, attribute, layer or a
# function of the call's arguments giving the layer, work counter).  The
# acceptance criteria are wrapped entry by entry, as acceptance.criterion<i>.
BOUNDARIES = [
    ("torusbridge.engine", "drift", _drift_layer, _drift_counts),
    ("torusbridge.girsanov", "drift", _drift_layer, _drift_counts),
    ("torusbridge.engine", "_chunk_increments", "engine.noise", _noise_counts),
    ("torusbridge.engine", "_run_chunk", "engine.chunk", _chunk_counts),
    ("torusbridge.girsanov", "path_log_weights", "girsanov.weights", None),
    ("torusbridge.cli", "_write_csv", "cli.write", _write_counts),
    ("torusbridge.cli", "simulate_batch", "engine.batch", _batch_counts),
    ("torusbridge.analysis", "simulate_batch", "engine.batch", _batch_counts),
    ("torusbridge.cli", "agreement_rate", "analysis.agreement", None),
    ("torusbridge.acceptance", "wrapped_gaussian_log_density", "drift.density", _density_counts),
    ("torusbridge.acceptance", "CRITERIA", "acceptance.criterion", None),
]


class Tracer:
    """In-memory span recorder for one traced command (one run id)."""

    def __init__(self, run_id: int = 0) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.get_ident() == self._main else []
            self._local.stack = stack
        return stack

    def call(self, fn, layer, counter, args, kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span of ``layer``."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack[-1:]
            parent = main[0] if main else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        name = layer(args, kwargs) if callable(layer) else layer
        try:
            counts = counter(args, kwargs, result) if counter else {}
        except (AttributeError, IndexError, KeyError, OSError, TypeError, ValueError):
            counts = {}  # the boundary's signature changed: keep the span, drop the counts
        self.spans.append({
            "id": span_id, "parent": parent, "layer": name, "start": start, "end": end,
            "thread": threading.get_ident(), "run": self.run_id, "counts": counts,
        })
        return result

    def wrap(self, fn, layer, counter=None):
        def traced(*args, **kwargs):
            return self.call(fn, layer, counter, args, kwargs)
        return traced

    def install(self, boundaries=BOUNDARIES) -> None:
        """Wrap every boundary that exists; note the others in ``absent``.

        A boundary naming a list wraps each entry, as layer ``<layer><i>``
        numbered from 1.
        """
        for module_name, attr, layer, counter in boundaries:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            target = getattr(module, attr, None)
            if isinstance(target, list):
                for i, fn in enumerate(target):
                    target[i] = self.wrap(fn, f"{layer}{i + 1}", counter)
            elif callable(target):
                setattr(module, attr, self.wrap(target, layer, counter))
            else:
                self.absent.append(f"{module_name}.{attr}")


class ImportTimer:
    """Time spent in import statements for one top-level package.

    Only the outermost import of the package is timed, so nested imports
    inside it are not counted twice.
    """

    def __init__(self, package: str) -> None:
        self.package = package
        self.seconds = 0.0
        self._depth = 0
        self._import = builtins.__import__

    def __enter__(self) -> "ImportTimer":
        builtins.__import__ = self._timed_import
        return self

    def __exit__(self, *exc) -> None:
        builtins.__import__ = self._import

    def _timed_import(self, name, globals=None, locals=None, fromlist=(), level=0):
        ours = level == 0 and (name == self.package or name.startswith(self.package + "."))
        if not ours or self._depth:
            return self._import(name, globals, locals, fromlist, level)
        self._depth += 1
        start = time.perf_counter()
        try:
            return self._import(name, globals, locals, fromlist, level)
        finally:
            self.seconds += time.perf_counter() - start
            self._depth -= 1


# ---------------------------------------------------------------------------
# Arithmetic on recorded spans (run in the benchmark's parent process)
# ---------------------------------------------------------------------------


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _covered(span, children) -> float:
    return union_length(
        (max(c["start"], span["start"]), min(c["end"], span["end"])) for c in children
    )


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    return {s["id"]: (s["end"] - s["start"]) - _covered(s, children[s["id"]]) for s in spans}


def thread_self_sums(spans) -> dict[int, float]:
    """Thread -> sum of the self times of the spans recorded on it.

    On one thread spans nest, so this sum never exceeds the traced wall
    time; summed over threads that run at once it can.
    """
    selfs = self_times(spans)
    sums: dict[int, float] = defaultdict(float)
    for s in spans:
        sums[s["thread"]] += selfs[s["id"]]
    return dict(sums)


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced command, except the trace.* ones
    that need the parent's wall-clock timings."""
    spans = trace["spans"]
    selfs = self_times(spans)
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)

    def of(layer):
        return [s for s in spans if s["layer"] == layer]

    def busy(layer):
        return sum(s["end"] - s["start"] for s in of(layer))

    def self_sum(layer):
        return sum(selfs[s["id"]] for s in of(layer))

    def count(layer, key):
        return sum(s["counts"].get(key, 0) for s in of(layer))

    out = {
        "cli.setup.import_s": trace["import_s"],
        "cli.setup.scipy_import_s": trace["scipy_import_s"],
        "cli.write.busy_s": busy("cli.write"),
        "cli.write.bytes": count("cli.write", "bytes"),
        "cli.write.floats_per_s": _rate(count("cli.write", "floats"), busy("cli.write")),
        "engine.batch.self_s": self_sum("engine.batch"),
        "engine.batch.kept_paths_mb": count("engine.batch", "kept_bytes") / 2**20,
        "engine.chunk.count": len(of("engine.chunk")),
        "engine.noise.busy_s": busy("engine.noise"),
        "engine.noise.floats_per_s": _rate(count("engine.noise", "floats"), busy("engine.noise")),
        "engine.step.self_s": self_sum("engine.chunk"),
    }
    # The step loop is the chunk minus its noise draw and its weight pass.
    step_s = sum(
        (c["end"] - c["start"]) - _covered(
            c, [k for k in children[c["id"]] if k["layer"] in ("engine.noise", "girsanov.weights")])
        for c in of("engine.chunk")
    )
    out["engine.step.path_steps_per_s"] = _rate(count("engine.chunk", "path_steps"), step_s)
    pool_s = sum((b["end"] - b["start"]) * b["counts"].get("workers", 1) for b in of("engine.batch"))
    out["engine.pool.parallel_efficiency"] = _rate(busy("engine.chunk"), pool_s)
    for variant in ("proposed", "true-bridge"):
        layer = f"drift.{variant}"
        out[f"{layer}.busy_s"] = busy(layer)
        out[f"{layer}.calls"] = len(of(layer))
        out[f"{layer}.points"] = count(layer, "points")
        out[f"{layer}.points_per_s"] = _rate(count(layer, "points"), busy(layer))
    weight_points = sum(
        k["counts"].get("points", 0)
        for w in of("girsanov.weights") for k in children[w["id"]]
        if k["layer"].startswith("drift.")
    )
    out["girsanov.weights.busy_s"] = busy("girsanov.weights")
    out["girsanov.weights.self_s"] = self_sum("girsanov.weights")
    out["girsanov.weights.path_steps_per_s"] = _rate(weight_points, busy("girsanov.weights"))
    out["analysis.agreement.self_s"] = self_sum("analysis.agreement")
    out["drift.density.busy_s"] = busy("drift.density")
    out["drift.density.calls"] = len(of("drift.density"))
    out["drift.density.points_per_s"] = _rate(count("drift.density", "points"), busy("drift.density"))
    out["acceptance.criterion6_s"] = busy("acceptance.criterion6")
    out["acceptance.criterion7_s"] = busy("acceptance.criterion7")
    sums = thread_self_sums(spans)
    out["trace.self_sum_s"] = max(sums.values(), default=0.0)
    return out
