"""Span tracing with distributed request context and a Chrome exporter.

A :class:`Span` is one named interval with arbitrary key/value
attributes; spans nest (a ``PACK`` span contains ``KEYSWITCH`` spans
contains ``NTT`` spans) via a per-thread stack, so the exported trace
reconstructs the call tree without any explicit parent bookkeeping.

On top of the thread-local nesting, v2 adds an *explicit* request-scoped
:class:`TraceContext` (trace id + parent span id + process lane).  The
context travels through a :mod:`contextvars` variable, so async tasks
inherit it automatically; thread-pool hops use
:func:`run_with_context`/:func:`use_context` to carry it across
executors, and queue/job layers stash the frozen context on their job
records.  Every live span records ``trace_id``/``span_id``/``parent_id``
and an optional tuple of *links* (span ids of causally-related spans in
other lanes, e.g. the failed offload attempt a failover reroute
replaces).

The export format is the Chrome trace-event format: the
``{"traceEvents": [...]}`` JSON that ``chrome://tracing`` and
https://ui.perfetto.dev load directly, using complete (``"ph": "X"``)
events, per-node ``pid`` lanes with ``process_name`` metadata, and flow
(``"s"``/``"f"``) events binding parent/child spans across lanes and
explicit links — so one request, including replica reroutes, renders as
a single connected tree.

Timestamps are microseconds.  Wall-clock spans (the context-manager API)
use ``time.perf_counter`` relative to the tracer's epoch; *synthetic*
spans with simulated timebases (the cycle-accurate pipeline traces) are
injected with :meth:`Tracer.add_span` at caller-chosen timestamps and
tracks.

Like the metrics registry, the module-level :data:`TRACER` starts
disabled: ``span()`` then returns a shared no-op context manager, so
instrumentation left in hot paths costs one branch.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Span",
    "TraceContext",
    "Tracer",
    "TRACER",
    "current_context",
    "use_context",
    "run_with_context",
    "enable_tracing",
    "disable_tracing",
    "span",
]


@dataclass(frozen=True)
class TraceContext:
    """Immutable request-scoped trace coordinates.

    ``trace_id`` names the request; ``span_id`` is the parent span a new
    child should attach to (empty at the trace root); ``pid`` is the
    default Chrome process lane (0 = coordinator, 1+ = engine/node
    lanes).  Frozen so it can be stashed on job records and shipped
    across threads without aliasing hazards.
    """

    trace_id: str
    span_id: str = ""
    pid: int = 0

    def child(self, span_id: str, pid: Optional[int] = None) -> "TraceContext":
        """The context a span opened under this one hands to *its* children."""
        return TraceContext(
            self.trace_id, span_id, self.pid if pid is None else pid
        )


#: The ambient trace context.  contextvars give each asyncio task its own
#: copy; plain threads start empty, so executor hops must bridge with
#: :func:`run_with_context`.
_CURRENT: "contextvars.ContextVar[Optional[TraceContext]]" = contextvars.ContextVar(
    "repro_trace_context", default=None
)


def current_context() -> Optional[TraceContext]:
    """The ambient :class:`TraceContext`, or None outside any trace."""
    return _CURRENT.get()


@contextmanager
def use_context(ctx: Optional[TraceContext]) -> Iterator[Optional[TraceContext]]:
    """Make ``ctx`` the ambient trace context for the enclosed block."""
    token = _CURRENT.set(ctx)
    try:
        yield ctx
    finally:
        _CURRENT.reset(token)


def run_with_context(
    ctx: Optional[TraceContext], fn: Callable[..., Any], *args: Any, **kwargs: Any
) -> Any:
    """Call ``fn`` under ``ctx`` — the bridge for thread-pool hops, where
    contextvars do not follow automatically."""
    token = _CURRENT.set(ctx)
    try:
        return fn(*args, **kwargs)
    finally:
        _CURRENT.reset(token)


@dataclass
class Span:
    """One completed (or synthetic) trace interval."""

    name: str
    ts_us: float  #: start, microseconds since the tracer epoch
    dur_us: float
    track: int = 0  #: Chrome ``tid``: one lane per thread or synthetic track
    depth: int = 0  #: nesting depth inside its track (0 = top level)
    args: Dict[str, Any] = field(default_factory=dict)
    pid: int = 0  #: Chrome ``pid`` lane (0 = coordinator, 1+ = engines/nodes)
    trace_id: str = ""  #: request this span belongs to ("" = untraced)
    span_id: str = ""  #: this span's own id
    parent_id: str = ""  #: id of the span this one nests under
    links: Tuple[str, ...] = ()  #: causal links to spans in other lanes

    def to_chrome_event(self) -> Dict[str, Any]:
        """The ``"ph": "X"`` (complete) trace-event dict."""
        event: Dict[str, Any] = {
            "name": self.name,
            "cat": "repro",
            "ph": "X",
            "ts": self.ts_us,
            "dur": self.dur_us,
            "pid": self.pid,
            "tid": self.track,
        }
        args = dict(self.args)
        if self.trace_id:
            args["trace_id"] = self.trace_id
        if self.span_id:
            args["span_id"] = self.span_id
        if self.parent_id:
            args["parent_id"] = self.parent_id
        if args:
            event["args"] = args
        return event


class _NullSpan:
    """Shared do-nothing context manager for the disabled tracer."""

    __slots__ = ()

    span_id = ""  #: read by call sites that link spans; always empty here

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc: object) -> None:
        return None

    def set(self, **_attrs: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _LiveSpan:
    """Context manager recording one wall-clock span on exit."""

    __slots__ = (
        "_tracer",
        "name",
        "args",
        "_start",
        "_ctx",
        "_pid",
        "_links",
        "_parent",
        "_token",
        "span_id",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        args: Dict[str, Any],
        ctx: Optional[TraceContext],
        pid: Optional[int],
        links: Optional[Tuple[str, ...]],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.args = args
        self._start = 0.0
        self._ctx = ctx
        self._pid = pid
        self._links = links or ()
        self._parent: Optional[TraceContext] = None
        self._token: Optional[contextvars.Token] = None
        self.span_id = ""

    def set(self, **attrs: Any) -> None:
        """Attach attributes discovered while the span is open."""
        self.args.update(attrs)

    def __enter__(self) -> "_LiveSpan":
        self._start = time.perf_counter()
        parent = self._ctx if self._ctx is not None else _CURRENT.get()
        self._parent = parent
        self.span_id = self._tracer._next_span_id()
        if self._pid is not None:
            pid = self._pid
        elif parent is not None:
            pid = parent.pid
        else:
            pid = 0
        self._pid = pid
        # children opened inside this block attach to this span
        self._token = _CURRENT.set(
            TraceContext(
                parent.trace_id if parent is not None else "", self.span_id, pid
            )
        )
        self._tracer._push()
        return self

    def __exit__(self, *_exc: object) -> None:
        end = time.perf_counter()
        depth = self._tracer._pop()
        if self._token is not None:
            _CURRENT.reset(self._token)
        parent = self._parent
        self._tracer._record_wallclock(
            self.name,
            self._start,
            end,
            depth,
            self.args,
            pid=self._pid if self._pid is not None else 0,
            trace_id=parent.trace_id if parent is not None else "",
            span_id=self.span_id,
            parent_id=parent.span_id if parent is not None else "",
            links=tuple(self._links),
        )


class Tracer:
    """Span collector with a context-manager API and two exporters."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._epoch = time.perf_counter()
        self._local = threading.local()
        self._process_names: Dict[int, str] = {}
        self._thread_tracks: Dict[int, int] = {}
        # itertools.count.__next__ is atomic under the GIL, so id minting
        # needs no lock even from worker pools
        self._trace_counter = itertools.count(1)
        self._span_counter = itertools.count(1)

    # -- trace context -------------------------------------------------------

    def new_trace(self, pid: int = 0) -> TraceContext:
        """Mint a fresh request-scoped trace root (deterministic ids)."""
        return TraceContext(f"t{next(self._trace_counter)}", "", pid)

    def _next_span_id(self) -> str:
        return f"s{next(self._span_counter)}"

    # -- recording -----------------------------------------------------------

    def span(
        self,
        name: str,
        *,
        ctx: Optional[TraceContext] = None,
        pid: Optional[int] = None,
        links: Optional[Tuple[str, ...]] = None,
        **args: Any,
    ):
        """Open a nested wall-clock span: ``with tracer.span("NTT"): ...``

        ``ctx`` overrides the ambient parent context (used when a job
        carries its request's frozen context across an executor hop);
        ``pid`` pins the Chrome process lane; ``links`` attaches causal
        links to span ids in other lanes.
        """
        if not self.enabled:
            return _NULL_SPAN
        return _LiveSpan(self, name, args, ctx, pid, tuple(links) if links else None)

    def add_span(
        self,
        name: str,
        ts_us: float,
        dur_us: float,
        track: int = 0,
        depth: int = 0,
        *,
        pid: int = 0,
        ctx: Optional[TraceContext] = None,
        links: Optional[Tuple[str, ...]] = None,
        **args: Any,
    ) -> str:
        """Inject a synthetic span (simulated timebase, e.g. cycles).

        Returns the minted span id so callers can link against it.
        """
        if not self.enabled:
            return ""
        span_id = self._next_span_id()
        spn = Span(
            name,
            ts_us,
            dur_us,
            track,
            depth,
            args,
            pid=pid if pid else (ctx.pid if ctx is not None else 0),
            trace_id=ctx.trace_id if ctx is not None else "",
            span_id=span_id,
            parent_id=ctx.span_id if ctx is not None else "",
            links=tuple(links) if links else (),
        )
        with self._lock:
            self._spans.append(spn)
        return span_id

    def name_process(self, pid: int, name: str) -> None:
        """Label a pid lane; exported as Chrome process-name metadata."""
        with self._lock:
            self._process_names[pid] = name

    # nesting stack ---------------------------------------------------------

    def _push(self) -> None:
        stack = getattr(self._local, "depth", 0)
        self._local.depth = stack + 1

    def _pop(self) -> int:
        depth = getattr(self._local, "depth", 1) - 1
        self._local.depth = depth
        return depth

    def _thread_track(self) -> int:
        ident = threading.get_ident()
        try:
            return self._thread_tracks[ident]
        except KeyError:
            with self._lock:
                return self._thread_tracks.setdefault(
                    ident, len(self._thread_tracks) + 1
                )

    def _record_wallclock(
        self,
        name: str,
        start: float,
        end: float,
        depth: int,
        args: Dict[str, Any],
        *,
        pid: int = 0,
        trace_id: str = "",
        span_id: str = "",
        parent_id: str = "",
        links: Tuple[str, ...] = (),
    ) -> None:
        spn = Span(
            name=name,
            ts_us=(start - self._epoch) * 1e6,
            dur_us=(end - start) * 1e6,
            track=self._thread_track(),
            depth=depth,
            args=args,
            pid=pid,
            trace_id=trace_id,
            span_id=span_id,
            parent_id=parent_id,
            links=links,
        )
        with self._lock:
            self._spans.append(spn)

    # -- introspection -------------------------------------------------------

    @property
    def spans(self) -> List[Span]:
        """Completed spans so far (chronological per track, not global)."""
        with self._lock:
            return list(self._spans)

    def reset(self) -> None:
        with self._lock:
            self._spans.clear()
        self._epoch = time.perf_counter()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    # -- exporters -----------------------------------------------------------

    def chrome_events(self) -> List[Dict[str, Any]]:
        """All spans as Chrome trace events, ``ts``-sorted per lane,
        preceded by process-name metadata events and followed by
        flow events that connect parent/child spans across lanes and
        explicit cross-lane links."""
        with self._lock:
            process_names = dict(self._process_names)
            spans = list(self._spans)
        events: List[Dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "args": {"name": label},
            }
            for pid, label in sorted(process_names.items())
        ]
        ordered = sorted(spans, key=lambda s: (s.pid, s.track, s.ts_us, -s.dur_us))
        events.extend(s.to_chrome_event() for s in ordered)
        events.extend(self._flow_events(spans))
        return events

    @staticmethod
    def _flow_events(spans: List[Span]) -> List[Dict[str, Any]]:
        """Flow (``s``/``f``) pairs: one per parent→child hop that crosses
        a (pid, track) lane boundary, plus one per explicit link.  The
        finish side uses ``"bp": "e"`` so it binds to the *enclosing*
        slice at that timestamp."""
        by_id = {s.span_id: s for s in spans if s.span_id}
        flows: List[Dict[str, Any]] = []
        flow_id = itertools.count(1)
        for s in spans:
            sources: List[Tuple[Span, str]] = []
            if s.parent_id:
                parent = by_id.get(s.parent_id)
                if parent is not None and (parent.pid, parent.track) != (
                    s.pid,
                    s.track,
                ):
                    sources.append((parent, "hop"))
            for link in s.links:
                linked = by_id.get(link)
                if linked is not None:
                    sources.append((linked, "link"))
            for src, kind in sources:
                # clamp the start timestamp inside the source slice so the
                # flow stays monotone and binds to it
                start_ts = min(max(s.ts_us, src.ts_us), src.ts_us + src.dur_us)
                fid = next(flow_id)
                flows.append(
                    {
                        "name": kind,
                        "cat": "repro.flow",
                        "ph": "s",
                        "id": fid,
                        "pid": src.pid,
                        "tid": src.track,
                        "ts": start_ts,
                    }
                )
                flows.append(
                    {
                        "name": kind,
                        "cat": "repro.flow",
                        "ph": "f",
                        "bp": "e",
                        "id": fid,
                        "pid": s.pid,
                        "tid": s.track,
                        "ts": max(start_ts, s.ts_us + s.dur_us / 2),
                    }
                )
        return flows

    def export_chrome_trace(self, path: str) -> None:
        """Write ``{"traceEvents": [...]}`` loadable in chrome://tracing
        and Perfetto."""
        payload = {"traceEvents": self.chrome_events(), "displayTimeUnit": "ms"}
        with open(path, "w") as fh:
            json.dump(payload, fh)


#: Process-wide default tracer; disabled until :func:`enable_tracing`.
TRACER = Tracer(enabled=False)


def enable_tracing(reset: bool = True) -> Tracer:
    """Turn on the default tracer (optionally clearing prior spans)."""
    if reset:
        TRACER.reset()
    TRACER.enabled = True
    return TRACER


def disable_tracing() -> Tracer:
    TRACER.enabled = False
    return TRACER


def span(
    name: str,
    *,
    ctx: Optional[TraceContext] = None,
    pid: Optional[int] = None,
    links: Optional[Tuple[str, ...]] = None,
    **args: Any,
):
    """Module-level shorthand for ``TRACER.span(...)`` — the call sites'
    one-liner: ``with obs.span("PACK", count=m): ...``"""
    if not TRACER.enabled:
        return _NULL_SPAN
    return TRACER.span(name, ctx=ctx, pid=pid, links=links, **args)
