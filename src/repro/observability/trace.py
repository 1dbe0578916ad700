"""Span/timer tracing with a contextvar-scoped active trace.

Instrumented code brackets regions with :func:`span`; while no trace is
active (the default) ``span`` returns one shared no-op handle, so the
hot paths pay a single contextvar lookup and nothing else.  Activating
a :class:`Trace` with :func:`use_trace` turns the same call sites into
real timers whose completed :class:`SpanRecord` entries accumulate on
the trace and stream to its sinks.

Spans nest: a span opened while another is running records the parent's
name and its own depth, so a profile can distinguish the ``f_step``
wall-time from the ``gpi`` solver time spent inside it.

Every completed span additionally carries correlation identity — the
owning trace's ``trace_id``, its own ``span_id``, the enclosing span's
``parent_id``, and a wall-clock ``timestamp`` (epoch seconds at entry)
alongside the ``perf_counter`` ``start``/``duration`` pair — so spans
written by different processes or belonging to different requests can be
joined after the fact.  A request-scoped identity travels with
:func:`use_request`: while one is active, every completed span (and
every :class:`~repro.robust.policy.RecoveryEvent`) is stamped with the
``request_id``, which is how the serving layer makes one slow or
recovered request explainable end to end.

Examples
--------
>>> from repro.observability.trace import Trace, span, use_trace
>>> with use_trace(Trace("demo")) as trace:
...     with span("outer"):
...         with span("inner", k=3):
...             pass
>>> [(s.name, s.depth, s.parent) for s in trace.spans]
[('inner', 1, 'outer'), ('outer', 0, None)]
>>> trace.spans[0].attributes
{'k': 3}
>>> all(s.trace_id == trace.trace_id for s in trace.spans)
True
>>> trace.spans[0].parent_id == trace.spans[1].span_id
True
>>> span("outside") is span("any other name")  # disabled: shared no-op
True
"""

from __future__ import annotations

import os
import threading
import time
import uuid
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

from repro.observability.metrics import MetricsRegistry

_ACTIVE: ContextVar["Trace | None"] = ContextVar(
    "repro_active_trace", default=None
)

_REQUEST: ContextVar["str | None"] = ContextVar(
    "repro_active_request", default=None
)


def new_id() -> str:
    """A fresh 16-hex-char correlation id (trace ids, span ids, requests)."""
    return uuid.uuid4().hex[:16]

#: Most recently deactivated trace (set on :class:`use_trace` exit), so
#: tooling like ``repro metrics dump`` can render a run's registry after
#: the run's context has closed.
_LAST: "Trace | None" = None


@dataclass
class SpanRecord:
    """One completed timed region of a trace.

    Attributes
    ----------
    name : str
        Stable phase key (e.g. ``"f_step"``, ``"gpi"``); totals are
        aggregated per name.
    start : float
        ``time.perf_counter()`` at entry (process-local clock).
    duration : float
        Wall-clock seconds spent inside the region.
    depth : int
        Nesting depth at entry (0 = top level).
    parent : str or None
        Name of the enclosing span, if any.
    attributes : dict
        Free-form JSON-ready annotations (iteration index, problem
        sizes, inner-iteration counts, ...).
    trace_id : str
        Id of the owning :class:`Trace`; spans from different files or
        processes join on this key.
    span_id : str
        This span's own id (unique within the process).
    parent_id : str or None
        ``span_id`` of the enclosing span, if any — the structural
        parent link (``parent`` keeps the *name* for readability).
    timestamp : float
        Wall-clock epoch seconds at span entry (``time.time()``), in
        addition to the monotonic ``start``; the key that lets traces
        from different processes be laid on one timeline.
    thread : int
        ``threading.get_ident()`` of the recording thread (the Chrome
        trace export lays spans out in one lane per thread).
    request_id : str or None
        The request identity active (via :func:`use_request`) when the
        span was opened, if any.
    links : list of str
        ``span_id``s of causally related spans that are *not* ancestors
        (a serving batch span links to its coalesced request spans).
    """

    name: str
    start: float = 0.0
    duration: float = 0.0
    depth: int = 0
    parent: str | None = None
    attributes: dict = field(default_factory=dict)
    trace_id: str = ""
    span_id: str = ""
    parent_id: str | None = None
    timestamp: float = 0.0
    thread: int = 0
    request_id: str | None = None
    links: list = field(default_factory=list)

    def to_dict(self) -> dict:
        """JSON-ready representation (used by the JSONL sink).

        The identity keys (``trace_id`` ... ``links``) are additive on
        top of the original schema; existing keys are unchanged.
        """
        return {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "depth": self.depth,
            "parent": self.parent,
            "attributes": dict(self.attributes),
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "timestamp": self.timestamp,
            "thread": self.thread,
            "request_id": self.request_id,
            "links": list(self.links),
        }


class _NoopSpan:
    """Shared do-nothing span handle returned while tracing is disabled."""

    __slots__ = ()

    def set(self, **attributes):
        """Ignore attributes; return self for chaining."""
        return self

    def link(self, *span_ids):
        """Ignore links; return self for chaining."""
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


#: The singleton handle every ``span(...)`` call returns when disabled.
NOOP_SPAN = _NoopSpan()


class _LiveSpan:
    """Context manager timing one region of the active trace."""

    __slots__ = ("_trace", "record")

    def __init__(self, trace: "Trace", name: str, attributes: dict) -> None:
        self._trace = trace
        self.record = SpanRecord(name=name, attributes=attributes)

    def set(self, **attributes):
        """Attach/overwrite attributes on the underlying record."""
        self.record.attributes.update(attributes)
        return self

    def link(self, *span_ids):
        """Link causally related (non-ancestor) spans by their ids."""
        self.record.links.extend(span_ids)
        return self

    def __enter__(self):
        stack = self._trace._stack
        record = self.record
        record.depth = len(stack)
        if stack:
            record.parent = stack[-1].name
            record.parent_id = stack[-1].span_id
        record.trace_id = self._trace.trace_id
        record.span_id = new_id()
        record.thread = threading.get_ident()
        record.request_id = _REQUEST.get()
        stack.append(record)
        record.timestamp = time.time()
        record.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record.duration = time.perf_counter() - self.record.start
        self._trace._stack.pop()
        self._trace._finish(self.record)
        return False


class Trace:
    """A recording session: completed spans, iteration events, metrics.

    Parameters
    ----------
    name : str
        Label for the session (shows up in sink output).
    sinks : sequence
        Objects implementing any subset of the
        :class:`~repro.observability.events.FitCallback` protocol plus
        the optional ``on_span(record)`` / ``close()`` hooks; completed
        spans and emitted events stream to every sink.
    """

    def __init__(self, name: str = "trace", sinks=()) -> None:
        self.name = name
        self.sinks = list(sinks)
        self.spans: list[SpanRecord] = []
        self.events: list = []
        self.metrics = MetricsRegistry()
        self.trace_id = new_id()
        self.pid = os.getpid()
        self._stack: list[SpanRecord] = []

    def _finish(self, record: SpanRecord) -> None:
        self.spans.append(record)
        for sink in self.sinks:
            on_span = getattr(sink, "on_span", None)
            if on_span is not None:
                on_span(record)

    def record(self, record: SpanRecord) -> SpanRecord:
        """Adopt an externally timed :class:`SpanRecord`.

        For regions that cannot be bracketed by a stack-scoped
        :func:`span` — a serving request whose lifetime starts in a
        client thread and ends when the worker resolves its future.
        Missing identity fields (``trace_id``, ``span_id``) are filled
        in; the completed record streams to the sinks like any other.
        """
        if not record.trace_id:
            record.trace_id = self.trace_id
        if not record.span_id:
            record.span_id = new_id()
        self._finish(record)
        return record

    def emit(self, event) -> None:
        """Record one iteration event and forward it to every sink."""
        self.events.append(event)
        for sink in self.sinks:
            on_iteration = getattr(sink, "on_iteration", None)
            if on_iteration is not None:
                on_iteration(event)

    def phase_stats(self) -> dict:
        """``{span name: (count, total seconds)}`` over completed spans.

        Nested spans are counted under their own names (``gpi`` time is
        also inside ``f_step`` time); compare like-depth names when
        summing to a total.
        """
        stats: dict[str, tuple[int, float]] = {}
        for s in self.spans:
            count, total = stats.get(s.name, (0, 0.0))
            stats[s.name] = (count + 1, total + s.duration)
        return stats

    def phase_totals(self) -> dict:
        """``{span name: total seconds}`` over completed spans."""
        return {name: total for name, (_, total) in self.phase_stats().items()}

    def close(self) -> None:
        """Announce the trace end, then flush/close every sink.

        Sinks implementing ``on_trace_end(trace)`` get the whole trace
        before ``close()`` — the JSONL sink uses this to append the
        trace metadata and final metrics snapshot so a trace file is
        self-describing (see ``repro metrics dump --from-trace``).
        """
        for sink in self.sinks:
            on_trace_end = getattr(sink, "on_trace_end", None)
            if on_trace_end is not None:
                on_trace_end(self)
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()


def current_trace() -> Trace | None:
    """The trace active in this context, or ``None`` (the default)."""
    return _ACTIVE.get()


def last_trace() -> Trace | None:
    """The active trace, else the most recently deactivated one.

    Export tooling (``repro metrics dump``, the benchmark runner) uses
    this to reach a run's metrics registry without threading the trace
    object through every call site.
    """
    active = _ACTIVE.get()
    return active if active is not None else _LAST


def span(name: str, **attributes):
    """Bracket a timed region of the active trace.

    Returns a context manager; with no active trace this is the shared
    no-op handle :data:`NOOP_SPAN` (nothing is recorded, overhead is one
    contextvar lookup).  The returned handle's ``set(**attrs)`` attaches
    annotations discovered mid-region (inner iteration counts, ...).
    """
    trace = _ACTIVE.get()
    if trace is None:
        return NOOP_SPAN
    return _LiveSpan(trace, name, dict(attributes))


@contextmanager
def timed_block(seconds: dict, name: str, **attributes):
    """:func:`span` that also adds its wall time to ``seconds[name]``.

    Solvers fill :attr:`~repro.observability.events.IterationEvent.
    block_seconds` this way, so the event and the trace time the same
    block.  The clock runs whether or not a trace is active.
    """
    tick = time.perf_counter()
    with span(name, **attributes) as handle:
        yield handle
    seconds[name] = seconds.get(name, 0.0) + time.perf_counter() - tick


def metric_inc(name: str, amount: float = 1.0) -> None:
    """Increment counter ``name`` on the active trace (no-op if none)."""
    trace = _ACTIVE.get()
    if trace is not None:
        trace.metrics.counter(name).inc(amount)


def metric_observe(name: str, value: float) -> None:
    """Observe ``value`` in histogram ``name`` on the active trace."""
    trace = _ACTIVE.get()
    if trace is not None:
        trace.metrics.histogram(name).observe(value)


def metric_set(name: str, value: float) -> None:
    """Set gauge ``name`` on the active trace (no-op if none)."""
    trace = _ACTIVE.get()
    if trace is not None:
        trace.metrics.gauge(name).set(value)


class use_trace:
    """Context manager activating ``trace`` for the enclosed block.

    On exit the previous active trace (usually none) is restored and the
    trace's sinks are flushed/closed; the trace object itself stays
    readable (``spans`` / ``events`` / ``phase_totals()``).

    Examples
    --------
    >>> from repro.observability.trace import Trace, current_trace, use_trace
    >>> with use_trace(Trace("t")) as t:
    ...     current_trace() is t
    True
    >>> current_trace() is None
    True
    """

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self._token = None

    def __enter__(self) -> Trace:
        self._token = _ACTIVE.set(self.trace)
        return self.trace

    def __exit__(self, *exc) -> bool:
        global _LAST
        _ACTIVE.reset(self._token)
        _LAST = self.trace
        self.trace.close()
        return False


def current_request_id() -> str | None:
    """The request identity active in this context, or ``None``."""
    return _REQUEST.get()


class use_request:
    """Context manager stamping a request identity on the enclosed work.

    While active, every completed span and every
    :class:`~repro.robust.policy.RecoveryEvent` records ``request_id``,
    so work done on behalf of one request (or one coalesced batch of
    requests — pass a comma-joined id list) stays attributable after the
    fact.  Independent of :func:`use_trace`: with tracing disabled this
    costs one contextvar set/reset and changes nothing else.

    Examples
    --------
    >>> from repro.observability.trace import current_request_id, use_request
    >>> with use_request("req-1"):
    ...     current_request_id()
    'req-1'
    >>> current_request_id() is None
    True
    """

    def __init__(self, request_id: str) -> None:
        self.request_id = request_id
        self._token = None

    def __enter__(self) -> str:
        self._token = _REQUEST.set(self.request_id)
        return self.request_id

    def __exit__(self, *exc) -> bool:
        _REQUEST.reset(self._token)
        return False
