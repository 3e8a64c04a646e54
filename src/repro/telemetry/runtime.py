"""The telemetry session and its zero-overhead disabled twin.

Instrumented code never checks a flag: it asks :func:`get_telemetry` for
the active backend and uses it unconditionally.  With no session active
that backend is :data:`NULL_TELEMETRY` — a stateless singleton whose
spans and metrics are shared do-nothing objects, so the disabled cost of
an instrumentation point is one attribute call.  The *result-neutrality*
contract is stronger and tested: enabling telemetry changes no optimizer
or Monte-Carlo output bytes, because the subsystem only ever reads
clocks, never touches an RNG, and never feeds anything back into the
computation.

:func:`telemetry_session` activates a real :class:`Telemetry` for a
``with`` block; when given a path it writes the JSONL event log through
the durable-append helper in :mod:`repro.atomicio` on close.  Worker
processes get their telemetry via :meth:`Telemetry.for_worker` +
:func:`activate` (driven by the sharded runner and the campaign
scheduler, not by user code).
"""

from __future__ import annotations

import contextvars
import json
import os
import time
import uuid
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..atomicio import durable_append_text
from ..errors import TelemetryError
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    RegistrySnapshot,
)
from .spans import (
    EventRecord,
    SpanRecord,
    TraceContext,
    WorkerTelemetry,
    rebase,
)

#: Name of the histogram every finished span feeds (label: span name) —
#: the bridge from the tracer to the metrics registry, so timing
#: breakdowns are queryable without replaying the event log.
SPAN_SECONDS = "span_seconds"


class NullSpan:
    """Shared do-nothing span; every call site gets this same object."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set(self, **attrs: object) -> "NullSpan":
        """No-op attribute update."""
        return self

    def end(self) -> None:
        """No-op explicit end."""

    @property
    def span_id(self) -> int:
        """Null spans have no identity."""
        return 0

    @property
    def start(self) -> float:
        """Null spans have no timeline."""
        return 0.0


class NullMetric:
    """Shared do-nothing counter/gauge/histogram."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        """No-op increment."""

    def set(self, value: float) -> None:
        """No-op gauge write."""

    def observe(self, value: float) -> None:
        """No-op observation."""


NULL_SPAN = NullSpan()
NULL_METRIC = NullMetric()


class NullTelemetry:
    """The disabled backend: stateless, fileless, allocation-free."""

    enabled = False
    __slots__ = ()

    def span(self, name: str, **attrs: object) -> NullSpan:
        """A no-op span context manager."""
        return NULL_SPAN

    def begin_span(
        self, name: str, parent_id: Optional[int] = None, **attrs: object
    ) -> NullSpan:
        """A no-op explicitly-ended span."""
        return NULL_SPAN

    def event(self, name: str, **attrs: object) -> None:
        """No-op instant event."""

    def counter(self, name: str, /, **labels: object) -> NullMetric:
        """The shared no-op metric."""
        return NULL_METRIC

    def gauge(self, name: str, /, **labels: object) -> NullMetric:
        """The shared no-op metric."""
        return NULL_METRIC

    def histogram(self, name: str, /, **labels: object) -> NullMetric:
        """The shared no-op metric."""
        return NULL_METRIC

    def now(self) -> float:
        """Disabled sessions have no timeline."""
        return 0.0

    def trace_context(self, parent: Optional[NullSpan] = None) -> None:
        """No context to propagate — workers stay disabled too."""
        return None

    def absorb(self, worker: object, tid: int = 0,
               parent_id: Optional[int] = None) -> float:
        """Nothing to absorb when disabled."""
        return 0.0


NULL_TELEMETRY = NullTelemetry()


class Span:
    """One live span of the active session (a context manager)."""

    __slots__ = ("_tele", "name", "attrs", "span_id", "parent_id",
                 "start", "_stacked", "_ended")

    def __init__(
        self,
        tele: "Telemetry",
        name: str,
        attrs: Dict[str, object],
        parent_id: Optional[int],
        stacked: bool,
    ) -> None:
        self._tele = tele
        self.name = name
        self.attrs = attrs
        self.span_id = tele._new_span_id()
        self.parent_id = parent_id
        self.start = tele.now()
        self._stacked = stacked
        self._ended = False
        if stacked:
            tele._stack.append(self.span_id)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self.end()
        return False

    def set(self, **attrs: object) -> "Span":
        """Attach/overwrite span attributes; chainable."""
        self.attrs.update(attrs)
        return self

    def end(self) -> None:
        """Finish the span (idempotent) and record it."""
        if self._ended:
            return
        self._ended = True
        if self._stacked:
            stack = self._tele._stack
            if stack and stack[-1] == self.span_id:
                stack.pop()
            elif self.span_id in stack:  # interleaved ends: drop ours only
                stack.remove(self.span_id)
        self._tele._finish_span(self)


class Telemetry:
    """One enabled telemetry session (per process)."""

    enabled = True

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        trace_id: Optional[str] = None,
    ) -> None:
        self.path = Path(path) if path is not None else None
        self.trace_id = trace_id or uuid.uuid4().hex[:16]
        # Owning process: a fork()ed worker inherits the parent's session
        # object; activate() uses this to tell real nesting (same pid,
        # an error) from a stale inherited session (different pid).
        self.pid = os.getpid()
        self.registry = MetricsRegistry()
        self._epoch = time.perf_counter()
        # Wall-clock anchor paired with the monotonic epoch: lets the
        # parent rebase worker timelines (same host, same wall clock).
        self.wall_epoch = time.time()  # lint: ignore[RPR702] cross-process clock anchor, not a duration
        self._stack: List[int] = []
        self._spans: List[SpanRecord] = []
        self._events: List[EventRecord] = []
        self._next_id = 1
        self._closed = False
        self._header_written = False

    # -- clock / ids -----------------------------------------------------------

    def now(self) -> float:
        """Seconds since this session started (monotonic)."""
        return time.perf_counter() - self._epoch

    def _new_span_id(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        return span_id

    # -- spans and events ------------------------------------------------------

    def span(self, name: str, **attrs: object) -> Span:
        """Open a nested span; the current stack top becomes its parent."""
        parent = self._stack[-1] if self._stack else None
        return Span(self, name, dict(attrs), parent, stacked=True)

    def begin_span(
        self, name: str, parent_id: Optional[int] = None, **attrs: object
    ) -> Span:
        """Open an *unstacked* span for event-loop-style callers.

        The span does not join the nesting stack (several may be open at
        once, ending in any order) and must be finished with
        :meth:`Span.end`.
        """
        if parent_id is None:
            parent_id = self._stack[-1] if self._stack else None
        return Span(self, name, dict(attrs), parent_id, stacked=False)

    def event(self, name: str, **attrs: object) -> None:
        """Record one instantaneous event."""
        self._events.append(EventRecord(name=name, ts=self.now(), attrs=dict(attrs)))

    def _finish_span(self, span: Span) -> None:
        duration = self.now() - span.start
        self._spans.append(SpanRecord(
            name=span.name,
            span_id=span.span_id,
            parent_id=span.parent_id,
            start=span.start,
            duration=duration,
            attrs=span.attrs,
        ))
        self.registry.histogram(SPAN_SECONDS, name=span.name).observe(duration)

    # -- metrics ---------------------------------------------------------------

    def counter(self, name: str, /, **labels: object) -> Counter:
        """The session counter for ``(name, labels)``."""
        return self.registry.counter(name, **labels)

    def gauge(self, name: str, /, **labels: object) -> Gauge:
        """The session gauge for ``(name, labels)``."""
        return self.registry.gauge(name, **labels)

    def histogram(self, name: str, /, **labels: object) -> Histogram:
        """The session histogram for ``(name, labels)``."""
        return self.registry.histogram(name, **labels)

    def snapshot(self) -> RegistrySnapshot:
        """Freeze the current metrics state."""
        return self.registry.snapshot()

    # -- introspection ---------------------------------------------------------

    def finished_spans(self, name: Optional[str] = None) -> Tuple[SpanRecord, ...]:
        """Finished spans so far, optionally filtered by name."""
        if name is None:
            return tuple(self._spans)
        return tuple(s for s in self._spans if s.name == name)

    def finished_events(self, name: Optional[str] = None) -> Tuple[EventRecord, ...]:
        """Instant events so far, optionally filtered by name."""
        if name is None:
            return tuple(self._events)
        return tuple(e for e in self._events if e.name == name)

    # -- worker propagation ----------------------------------------------------

    def trace_context(self, parent: Optional[Span] = None) -> TraceContext:
        """The serializable context a worker task carries across the pool."""
        if parent is not None:
            parent_id: Optional[int] = parent.span_id
        else:
            parent_id = self._stack[-1] if self._stack else None
        return TraceContext(
            trace_id=self.trace_id,
            parent_span_id=parent_id if parent_id is not None else 0,
        )

    @classmethod
    def for_worker(cls, ctx: TraceContext) -> "Telemetry":
        """A fresh worker-local session inside the parent's trace."""
        return cls(path=None, trace_id=ctx.trace_id)

    def export_worker(self) -> WorkerTelemetry:
        """Bundle this worker session for the trip back to the parent."""
        return WorkerTelemetry(
            spans=tuple(self._spans),
            events=tuple(self._events),
            snapshot=self.registry.snapshot(),
            wall_epoch=self.wall_epoch,
        )

    def absorb(
        self,
        worker: WorkerTelemetry,
        tid: int,
        parent_id: Optional[int] = None,
    ) -> float:
        """Merge one worker bundle back into this session.

        Returns the timeline offset (session-relative seconds of the
        worker session's start) so callers can derive queue waits.  Must
        be called in shard/task order — metric merging is deterministic
        given that order.
        """
        offset = max(0.0, worker.wall_epoch - self.wall_epoch)
        fallback = parent_id if parent_id else None
        spans, events, self._next_id = rebase(
            worker, offset, tid, fallback, self._next_id
        )
        self._spans.extend(spans)
        self._events.extend(events)
        self.registry.merge(worker.snapshot)
        return offset

    # -- persistence -----------------------------------------------------------

    def _header_line(self) -> str:
        from ..provenance import provenance

        info = {k: v for k, v in provenance().items()
                if k in ("package", "version", "python", "numpy")}
        return json.dumps({
            "type": "meta",
            "trace_id": self.trace_id,
            "wall_epoch": self.wall_epoch,
            "clock": "perf_counter",
            "pid": os.getpid(),
            **info,
        }, sort_keys=True)

    def close(self) -> None:
        """Write the JSONL event log (when a path was given); idempotent.

        Only the owning process writes: a fork()ed worker that inherited
        this session (and somehow reaches close, e.g. via an atexit hook
        or a GC-triggered context exit) must not append its half-copied
        timeline to the parent's log file.
        """
        if self._closed:
            return
        self._closed = True
        if self.path is None or self.pid != os.getpid():
            return
        lines: List[str] = []
        if not self._header_written:
            lines.append(self._header_line())
            self._header_written = True
        records = sorted(
            [s.to_json() for s in self._spans]
            + [e.to_json() for e in self._events],
            key=lambda r: (float(r["ts"]), int(r.get("tid", 0))),  # type: ignore[arg-type]
        )
        lines.extend(json.dumps(r, sort_keys=True) for r in records)
        lines.append(json.dumps(
            {"type": "metrics", "samples": self.snapshot().to_json()},
            sort_keys=True,
        ))
        durable_append_text(self.path, "".join(line + "\n" for line in lines))


#: The active backend; module-level so call sites pay one lookup.
_ACTIVE: Union[Telemetry, NullTelemetry] = NULL_TELEMETRY

#: Context-scoped override of the process-global backend.  A value set
#: here wins over ``_ACTIVE`` for the current :mod:`contextvars` context
#: only — each thread and each asyncio task sees its own binding, so
#: concurrent in-process jobs can run under distinct sessions without
#: corrupting each other's metrics (the request-scoped-session contract
#: of :mod:`repro.service`).
_BOUND: "contextvars.ContextVar[Optional[Union[Telemetry, NullTelemetry]]]" = (
    contextvars.ContextVar("repro_telemetry_bound", default=None)
)


def get_telemetry() -> Union[Telemetry, NullTelemetry]:
    """The active telemetry backend (the no-op singleton by default).

    Resolution order: the session bound to the *current context* (see
    :func:`bind_telemetry` — per-thread / per-asyncio-task), then the
    process-global session, then :data:`NULL_TELEMETRY`.  Both lookups
    are pid-guarded: a fork()ed worker inherits the parent's bindings,
    but those sessions belong to another process — recording into them
    would interleave two processes' timelines and corrupt span-id
    allocation.  Until the worker activates its own session
    (``Telemetry.for_worker`` under :func:`activate`), it sees the no-op
    backend.  The disabled path stays a cheap context-var read plus a
    two-attribute check, so the "telemetry off" overhead contract is
    unchanged.
    """
    bound = _BOUND.get()
    if bound is not None:
        if bound.enabled and getattr(bound, "pid", None) != os.getpid():
            return NULL_TELEMETRY
        return bound
    if _ACTIVE.enabled and getattr(_ACTIVE, "pid", None) != os.getpid():
        return NULL_TELEMETRY
    return _ACTIVE


def telemetry_enabled() -> bool:
    """Whether a real telemetry session is active in this process."""
    return get_telemetry().enabled


@contextmanager
def activate(tele: Telemetry) -> Iterator[Telemetry]:
    """Make ``tele`` the active backend for a ``with`` block.

    The previous backend is restored on exit; used by worker shims and
    :func:`telemetry_session`.  Sessions do not nest — a second
    activation inside an enabled region raises, because two registries
    silently splitting one run's metrics is worse than an error.
    """
    global _ACTIVE
    if _ACTIVE.enabled:
        if getattr(_ACTIVE, "pid", None) == os.getpid():
            raise TelemetryError("a telemetry session is already active")
        # A fork()ed worker inherited the parent's session: it belongs to
        # another process, so replacing it is correct — and nothing to
        # restore afterwards (the copy records into a dead-end registry).
        previous: Union[Telemetry, NullTelemetry] = NULL_TELEMETRY
    else:
        previous = _ACTIVE
    _ACTIVE = tele
    try:
        yield tele
    finally:
        _ACTIVE = previous


@contextmanager
def bind_telemetry(
    tele: Union[Telemetry, NullTelemetry],
) -> Iterator[Union[Telemetry, NullTelemetry]]:
    """Make ``tele`` the backend for the *current context* only.

    Unlike :func:`activate`, this never touches the process-global
    binding: the override lives in a :mod:`contextvars` variable, so it
    is visible to the current thread / asyncio task (and coroutines it
    awaits) and invisible to every other one.  Concurrent in-process
    jobs each bind their own session — or :data:`NULL_TELEMETRY`, to
    explicitly opt *out* of a process-global session — and instrumented
    library code keeps calling :func:`get_telemetry` unchanged.

    Bindings nest: the previous context binding is restored on exit.
    The caller owns the session's lifecycle (``close()`` is not called
    here).
    """
    token = _BOUND.set(tele)
    try:
        yield tele
    finally:
        _BOUND.reset(token)


@contextmanager
def telemetry_session(
    path: Optional[Union[str, Path]] = None,
    trace_id: Optional[str] = None,
) -> Iterator[Telemetry]:
    """Run a block under an enabled telemetry session.

    ``path`` (optional) is the JSONL event log written on exit via
    :func:`repro.atomicio.durable_append_text`; without it the session
    stays in memory and is queried through the yielded object.
    """
    tele = Telemetry(path=path, trace_id=trace_id)
    with activate(tele):
        try:
            yield tele
        finally:
            tele.close()
