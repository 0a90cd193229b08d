"""Request-scoped trace contexts and the spans recorded into them.

A :class:`TraceContext` gives one *request* (or eval probe, or any other
unit of work) its own identity: a trace id plus a record of every span that
ran on its behalf, each with start/end offsets from the trace start and a
parent link.  ``with start_trace("serve/x")`` installs a context; every
``with trace("a/b/c"):`` span inside records into it and becomes the parent
of the spans opened within it.  The active context and open span live in
:mod:`contextvars` context variables, so concurrent threads (HTTP handlers,
serving lanes) never interleave each other's spans.  When work hops
threads, :func:`capture_context` on the submitting side and
:func:`adopt_context` on the worker side keep the spans attached to the
originating trace.  Completed traces stream to a journal as one
``EVENT_TRACE`` record.

Outside a trace context :func:`trace` returns a shared no-op context
manager — one context-variable read, no allocation.  Per-phase training
time is recorded by the journal's step events and the metric timers.
Tracing never touches any random-number generator, so seeded results are
bit-identical with or without a trace context.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.obs.clock import perf_counter, wall_time
from repro.obs.metrics import NULL_CONTEXT

#: Spans kept per trace context before further spans are counted but
#: dropped — a guard against unbounded growth when a whole training run
#: executes under one context.
TRACE_SPAN_CAP = 10_000

_trace_counter = itertools.count(1)


def new_trace_id() -> str:
    """Process-unique trace id (wall-clock millis + counter; RNG-free)."""
    return f"{int(wall_time() * 1e3):x}-{next(_trace_counter):06x}"


@dataclass
class SpanRecord:
    """One completed (or still-open) span inside a :class:`TraceContext`."""

    name: str
    #: index of the parent span in ``TraceContext.spans`` (-1 = trace root)
    parent: int
    #: seconds after the trace started
    start: float
    #: seconds after the trace started; < 0 while the span is still open
    end: float = -1.0

    @property
    def seconds(self) -> float:
        return max(0.0, self.end - self.start)

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "parent": self.parent,
                "start": self.start, "end": self.end}


class TraceContext:
    """Identity and span record for one request-scoped unit of work.

    Span mutation is lock-protected: a serving lane thread may attribute
    spans to a request trace while the request thread records its own.
    """

    __slots__ = ("trace_id", "name", "started_wall", "spans", "dropped_spans",
                 "wall_seconds", "_perf_base", "_lock")

    def __init__(self, name: str, trace_id: Optional[str] = None):
        self.trace_id = trace_id if trace_id is not None else new_trace_id()
        self.name = name
        self.started_wall = wall_time()
        self._perf_base = perf_counter()
        self.spans: List[SpanRecord] = []
        self.dropped_spans = 0
        self.wall_seconds = 0.0
        self._lock = threading.Lock()

    # -- span recording ----------------------------------------------------
    def offset(self, perf_time: Optional[float] = None) -> float:
        """Seconds between the trace start and ``perf_time`` (default now)."""
        if perf_time is None:
            perf_time = perf_counter()
        return perf_time - self._perf_base

    def open_span(self, name: str, parent: int = -1) -> int:
        """Start a span now; returns its index (-1 when over the cap)."""
        with self._lock:
            if len(self.spans) >= TRACE_SPAN_CAP:
                self.dropped_spans += 1
                return -1
            self.spans.append(SpanRecord(name, parent, self.offset()))
            return len(self.spans) - 1

    def close_span(self, index: int) -> None:
        if index < 0:
            return
        self.spans[index].end = self.offset()

    def add_span(self, name: str, start_perf: float, end_perf: float,
                 parent: int = -1) -> int:
        """Record an externally timed span (cross-thread attribution).

        ``start_perf`` / ``end_perf`` are absolute ``perf_counter`` reads
        from any thread; they are converted to trace-relative offsets.
        """
        with self._lock:
            if len(self.spans) >= TRACE_SPAN_CAP:
                self.dropped_spans += 1
                return -1
            self.spans.append(SpanRecord(name, parent,
                                         self.offset(start_perf),
                                         self.offset(end_perf)))
            return len(self.spans) - 1

    # -- reductions --------------------------------------------------------
    def finish(self) -> "TraceContext":
        """Stamp the total duration (idempotent enough for one caller)."""
        self.wall_seconds = self.offset()
        return self

    def coverage(self) -> float:
        """Fraction of the trace wall time covered by root-level spans.

        Overlapping intervals are merged first, so parallel attribution
        (e.g. a lane span overlapping the caller's wait span) does not
        count twice.
        """
        total = self.wall_seconds if self.wall_seconds > 0 else self.offset()
        if total <= 0:
            return 0.0
        with self._lock:
            intervals = sorted(
                (span.start, span.end if span.end >= 0 else total)
                for span in self.spans if span.parent == -1)
        covered = 0.0
        cursor = 0.0
        for start, end in intervals:
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        return min(1.0, covered / total)

    def to_event(self) -> Dict[str, Any]:
        """The journal payload for one ``EVENT_TRACE`` record."""
        with self._lock:
            spans = [span.to_dict() for span in self.spans]
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "started_unix": self.started_wall,
            "wall_seconds": self.wall_seconds,
            "n_spans": len(spans),
            "dropped_spans": self.dropped_spans,
            "spans": spans,
        }


#: The active trace context (None = untraced work).
_ACTIVE: ContextVar[Optional[TraceContext]] = ContextVar(
    "repro_obs_trace_context", default=None)
#: Index of the innermost open span in the active context (-1 = root).
_PARENT: ContextVar[int] = ContextVar("repro_obs_trace_parent", default=-1)


def current_trace() -> Optional[TraceContext]:
    """The trace context work is currently attributed to, if any."""
    return _ACTIVE.get()


@dataclass(frozen=True)
class ContextSnapshot:
    """A captured ``(trace context, open-span)`` pair for thread handoff."""

    context: Optional[TraceContext] = None
    parent: int = -1

    def add_span(self, name: str, start_perf: float, end_perf: float) -> None:
        """Attribute an externally timed span to the captured trace."""
        if self.context is not None:
            self.context.add_span(name, start_perf, end_perf,
                                  parent=self.parent)


#: Shared snapshot for the common untraced case (no allocation per capture).
EMPTY_SNAPSHOT = ContextSnapshot()


def capture_context() -> ContextSnapshot:
    """Snapshot the active trace context for handoff to another thread."""
    context = _ACTIVE.get()
    if context is None:
        return EMPTY_SNAPSHOT
    return ContextSnapshot(context, _PARENT.get())


@contextmanager
def adopt_context(snapshot: Optional[ContextSnapshot]):
    """Run a block attributing its spans to a captured trace context.

    The worker-thread side of :func:`capture_context`: spans opened inside
    the block parent onto the span that was open at capture time.  A
    ``None`` / empty snapshot makes this a no-op.
    """
    if snapshot is None or snapshot.context is None:
        yield None
        return
    active_token = _ACTIVE.set(snapshot.context)
    parent_token = _PARENT.set(snapshot.parent)
    try:
        yield snapshot.context
    finally:
        _PARENT.reset(parent_token)
        _ACTIVE.reset(active_token)


class _TraceHandle:
    """Context manager installing one :class:`TraceContext`."""

    __slots__ = ("context", "_journal", "_active_token", "_parent_token")

    def __init__(self, context: TraceContext, journal: Optional[Any]):
        self.context = context
        self._journal = journal

    def __enter__(self) -> TraceContext:
        self._active_token = _ACTIVE.set(self.context)
        self._parent_token = _PARENT.set(-1)
        return self.context

    def __exit__(self, *exc) -> bool:
        _PARENT.reset(self._parent_token)
        _ACTIVE.reset(self._active_token)
        self.context.finish()
        if self._journal is not None:
            from repro.obs.journal import EVENT_TRACE

            self._journal.event(EVENT_TRACE, **self.context.to_event())
        return False


def start_trace(name: str, journal: Optional[Any] = None,
                trace_id: Optional[str] = None) -> _TraceHandle:
    """Open a request-scoped trace context for a ``with`` block.

    Every ``trace(...)`` span inside the block (and on threads that adopt
    the captured context) records into the trace.  When ``journal`` is
    given, the completed trace is appended as one ``EVENT_TRACE`` record
    on exit.
    """
    return _TraceHandle(TraceContext(name, trace_id=trace_id), journal)


class _Span:
    """Context manager recording one span into a trace context and making
    it the parent of spans opened inside it."""

    __slots__ = ("_context", "_label", "_index", "_parent_token")

    def __init__(self, context: TraceContext, label: str):
        self._context = context
        self._label = label

    def __enter__(self) -> "_Span":
        self._index = self._context.open_span(self._label, _PARENT.get())
        self._parent_token = _PARENT.set(self._index)
        return self

    def __exit__(self, *exc) -> bool:
        _PARENT.reset(self._parent_token)
        self._context.close_span(self._index)
        return False


def trace(label: str):
    """Span context manager recording into the active trace context — a
    shared no-op outside one."""
    context = _ACTIVE.get()
    if context is None:
        return NULL_CONTEXT
    return _Span(context, label)
