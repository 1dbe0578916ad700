"""Outside-in span recorder for the traced benchmark run.

The library ships its own instruments (``use_trace``, ``use_profiling``,
``use_memory_tracking``), but arming them changes the work a fit does: an
active trace adds one eigensolve per UnifiedMVSC fit for its eigengap probe.
The benchmark therefore never arms them.  It replaces the public function of
each layer, on every module attribute that refers to it, with a wrapper that
records a span (name, start, end, parent) in memory.  Callers import these
functions by name (``from repro.core.discrete import
indicator_coordinate_descent``), so patching the defining module alone would
miss them; :meth:`SpanRecorder.install` patches each alias it finds.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    span_id: int
    parent_id: int
    name: str
    layer: str
    start: float
    end: float
    thread: int
    attrs: dict = field(default_factory=dict)
    error: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


def _cd_attrs(args, kwargs, out) -> dict:
    labels_in = np.asarray(args[1])
    return {
        "rows": int(labels_in.shape[0]),
        "changed": int(np.count_nonzero(np.asarray(out) != labels_in)),
    }


def _predict_attrs(args, kwargs, out) -> dict:
    return {"rows": int(np.asarray(out).shape[0])}


#: ``(module, function, layer, attrs)``: module-level layer entry points.
FUNCTIONS = (
    ("repro.core.graph_builder", "build_multiview_affinities", "graph.dense", None),
    ("repro.core.graph_builder", "build_laplacians", "graph.dense", None),
    ("repro.graph.anchor", "select_anchors", "graph.anchor", None),
    ("repro.graph.anchor", "anchor_assignment", "graph.anchor", None),
    ("repro.graph.anchor", "anchor_affinity_factor", "graph.anchor", None),
    ("repro.graph.sparse", "sparse_knn_affinity", "graph.sparse", None),
    ("repro.graph.sparse", "sparse_laplacian", "graph.sparse", None),
    ("repro.linalg.eigen", "eigsh_smallest", "linalg.eigsh", None),
    ("repro.linalg.gpi", "gpi_stiefel", "linalg.gpi", None),
    ("repro.linalg.procrustes", "nearest_orthogonal", "linalg.procrustes", None),
    ("repro.core.discrete", "rotation_initialize", "discrete.rotation", None),
    ("repro.core.discrete", "indicator_coordinate_descent", "discrete.cd", _cd_attrs),
)

#: ``(module, class, method, layer, attrs)``: solver and serving entry points.
METHODS = (
    ("repro.core.model", "UnifiedMVSC", "fit", "core", None),
    ("repro.core.anchor_model", "AnchorMVSC", "fit_predict", "core", None),
    ("repro.core.anchor_model", "AnchorMVSC", "partial_fit", "core", None),
    ("repro.core.anchor_model", "AnchorMVSC", "partial_refit", "core", None),
    ("repro.core.anchor_model", "AnchorMVSC", "refit", "core", None),
    ("repro.core.sparse_model", "SparseMVSC", "fit_predict", "core", None),
    ("repro.streaming.model", "StreamingMVSC", "partial_fit", "streaming", None),
    ("repro.serving.predictor", "Predictor", "predict", "serving.predict", _predict_attrs),
    ("repro.serving.predictor", "Predictor", "adapt", "serving.adapt", None),
)


#: Layers reported as ``<layer>_s`` (self time) and ``<layer>_calls``.
TIMED_LAYERS = (
    "graph.dense", "graph.anchor", "graph.sparse",
    "linalg.eigsh", "linalg.gpi", "linalg.procrustes",
    "discrete.rotation", "discrete.cd",
    "serving.predict", "serving.adapt",
)


class SpanRecorder:
    """Wraps layer entry points and keeps their spans in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str, layer: str, attrs):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            span_id = next(recorder._ids)
            parent_id = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append(
                    Span(span_id, parent_id, name, layer, start, end,
                         threading.get_ident(), error=type(exc).__name__)
                )
                raise
            end = time.perf_counter()
            stack.pop()
            # Attributes are computed outside the span, so they are charged
            # to the parent's self time and to trace.overhead_s.
            recorder.spans.append(
                Span(span_id, parent_id, name, layer, start, end,
                     threading.get_ident(),
                     attrs(args, kwargs, out) if attrs else {})
            )
            return out

        return wrapper

    def install(self) -> None:
        """Patch every entry point, on every ``repro`` module alias."""
        modules = [
            m for k, m in list(sys.modules.items())
            if m is not None and (k == "repro" or k.startswith("repro."))
        ]
        for mod_name, fn_name, layer, attrs in FUNCTIONS:
            original = getattr(sys.modules[mod_name], fn_name)
            wrapper = self._wrap(original, f"{mod_name}.{fn_name}", layer, attrs)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)
        for mod_name, cls_name, method, layer, attrs in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            original = cls.__dict__[method]
            self._patches.append((cls, method, original))
            setattr(
                cls, method,
                self._wrap(original, f"{cls_name}.{method}", layer, attrs),
            )

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "SpanRecorder":
        self.install()
        return self

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False

    def self_times(self) -> dict[int, float]:
        """Span duration minus the part its child spans cover."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s.parent_id:
                child_time[s.parent_id] = (
                    child_time.get(s.parent_id, 0.0) + s.duration
                )
        return {
            s.span_id: s.duration - child_time.get(s.span_id, 0.0)
            for s in self.spans
        }


def write_spans(path, recorders: list) -> None:
    """Write the spans of every traced pass as JSON lines, once."""
    with open(path, "w", encoding="utf-8") as out:
        for index, recorder in enumerate(recorders):
            for s in sorted(recorder.spans, key=lambda s: s.start):
                out.write(json.dumps({
                    "pass": index,
                    "span_id": s.span_id,
                    "parent_id": s.parent_id,
                    "name": s.name,
                    "layer": s.layer,
                    "start": s.start,
                    "end": s.end,
                    "thread": s.thread,
                    "attrs": s.attrs,
                    "error": s.error,
                }) + "\n")


def layer_metrics(recorder, result) -> dict:
    """Per-layer values of one traced pass, from its spans and counters."""
    self_time = recorder.self_times()
    out = {}
    for layer in TIMED_LAYERS:
        out[f"{layer}_s"] = 0.0
        out[f"{layer}_calls"] = 0
    core_self = streaming_self = refit_s = 0.0
    cd_rows = cd_changed = predict_rows = served_calls = 0
    windows = list(result.windows.values())
    for s in recorder.spans:
        own = self_time[s.span_id]
        if s.layer in TIMED_LAYERS:
            out[f"{s.layer}_s"] += own
            out[f"{s.layer}_calls"] += 1
        elif s.layer == "core":
            core_self += own
            if s.name.endswith((".partial_refit", ".refit")):
                refit_s += s.duration
        elif s.layer == "streaming":
            streaming_self += own
        if s.layer == "discrete.cd" and not s.error:
            cd_rows += s.attrs["rows"]
            cd_changed += s.attrs["changed"]
        # Where the pass has service windows, rows_per_call describes the
        # service's batches, not the closed-loop calls made between them.
        served = not windows or any(a <= s.start <= b for a, b in windows)
        if s.layer == "serving.predict" and not s.error and served:
            predict_rows += s.attrs["rows"]
            served_calls += 1
    out["discrete.cd_rows"] = cd_rows
    out["discrete.cd_changed"] = cd_changed
    out["core.self_s"] = core_self
    out["streaming.self_s"] = streaming_self
    out["streaming.refit_s"] = refit_s
    out["serving.rows_per_call"] = (
        predict_rows / served_calls if served_calls else 0.0
    )
    for rate in ("low", "mid", "high"):
        busy = 0.0
        window = result.windows.get(rate)
        if window:
            start, end = window
            busy = sum(
                s.duration for s in recorder.spans
                if s.layer == "serving.predict" and start <= s.start <= end
            ) / (end - start)
        out[f"serving.busy_frac.{rate}"] = busy
    counters = result.counters
    out["serving.rejected"] = counters.get("serving.rejected", 0)
    out["serving.gen_late_ms.p99"] = counters.get("gen_late_ms.p99", 0.0)
    for action in ("fold_in", "partial_refit", "full_refit"):
        out[f"streaming.{action}"] = counters.get(f"streaming.{action}", 0)
    out["robust.recoveries"] = counters["robust.recoveries"]
    return out
