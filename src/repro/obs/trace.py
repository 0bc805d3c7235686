"""Request tracing: a span tree attached to every publish/update.

A :class:`Span` is one timed step of serving a request (plan-cache
lookup, C&B reformulation, routing decision, pool checkout, per-shard
execution, merge, ...).  Spans nest: the publishing service opens a root
span per request, and each layer it calls attaches children — explicitly
(``span.child(...)``) or, for layers that are called through generic
interfaces and cannot take a tracing parameter (a pooled backend clone's
``execute``), through the **ambient span**: entering a span pushes it on
a thread-local stack, and :func:`current_span` hands any code running on
that thread its innermost open span.  Code running on *worker* threads
(the scatter/gather pool) captures the parent span in its task closure
instead — thread-locals do not cross threads, span objects do (child
attachment is lock-protected).

Tracing is built to be free when off: a disabled :class:`Tracer` hands
out the :data:`NULL_SPAN` singleton, whose every method is a no-op and
whose children are itself, so instrumented code never branches on an
``if tracing`` flag — it always opens spans, and the null span absorbs
them without allocating.

A finished trace exports as a JSON-able dict (:meth:`Trace.to_dict`/
:meth:`Trace.to_json`) and renders as an indented tree with millisecond
durations (:meth:`Trace.render`) — the view ``PublishingService.explain``
shows under ``trace=True``.
"""

from __future__ import annotations

import json
import threading
from time import perf_counter as _now
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .ring import SampledRing

_ACTIVE = threading.local()


def current_span() -> "Span":
    """The innermost open span on this thread, or :data:`NULL_SPAN`.

    Backends use this to attach per-shard/per-replica children without a
    tracing parameter threading through every ``StorageBackend`` method.
    """
    stack = getattr(_ACTIVE, "stack", None)
    if stack:
        return stack[-1]
    return NULL_SPAN


class Span:
    """One timed, attributed step in a trace; a node of the span tree.

    Tracing sits on every publish, so spans are deliberately lock-free:
    the mutating operations (``children.append``, ``attributes.update``)
    are single bytecode-dispatched calls on built-in containers, which
    CPython's GIL makes atomic — concurrent scatter/gather workers can
    attach children to a shared parent without a per-span lock (readers
    snapshot ``list(children)`` before iterating).
    """

    __slots__ = ("name", "attributes", "start", "end", "children")

    def __init__(self, name: str, **attributes: Any):
        self.name = name
        self.attributes: Dict[str, Any] = attributes
        self.start: float = _now()
        self.end: Optional[float] = None
        self.children: List["Span"] = []

    # -- recording -----------------------------------------------------
    def child(self, name: str, **attributes: Any) -> "Span":
        """Open (and return) a child span; use it as a context manager."""
        span = Span(name, **attributes)
        self.children.append(span)
        return span

    def add_phase(
        self, name: str, seconds: float, offset: float = 0.0, **attributes: Any
    ) -> "Span":
        """Attach an already-measured child (a recorded ``elapsed_seconds``).

        The C&B engine times its own phases; rather than re-timing them,
        the service grafts those readings into the tree.  *offset* is
        seconds past this span's start.
        """
        span = Span(name, **attributes)
        span.start = self.start + offset
        span.end = span.start + max(0.0, seconds)
        self.children.append(span)
        return span

    def annotate(self, **attributes: Any) -> None:
        """Merge *attributes* into this span (last write wins per key)."""
        self.attributes.update(attributes)

    def finish(self) -> None:
        if self.end is None:
            self.end = _now()

    # -- context manager (sets the ambient span) -----------------------
    # The bodies inline the stack push/pop and finish(): entering and leaving a span is
    # the hottest operation in the tracer, paid several times per publish.
    def __enter__(self) -> "Span":
        try:
            _ACTIVE.stack.append(self)
        except AttributeError:
            _ACTIVE.stack = [self]
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        stack = _ACTIVE.stack
        if stack and stack[-1] is self:
            stack.pop()
        if exc_type is not None:
            self.attributes["error"] = getattr(exc_type, "__name__", str(exc_type))
        if self.end is None:
            self.end = _now()

    # -- reading -------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return True

    @property
    def duration(self) -> float:
        """Seconds this span covered (running spans read as 'so far')."""
        return (self.end if self.end is not None else _now()) - self.start

    def to_dict(self, origin: Optional[float] = None) -> Dict[str, Any]:
        if origin is None:
            origin = self.start
        children = list(self.children)
        entry: Dict[str, Any] = {
            "name": self.name,
            "offset_ms": round((self.start - origin) * 1000.0, 3),
            "duration_ms": round(self.duration * 1000.0, 3),
        }
        if self.attributes:
            entry["attributes"] = dict(self.attributes)
        if children:
            entry["children"] = [child.to_dict(origin) for child in children]
        return entry

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in list(self.children):
            yield from child.walk()


class _NullSpan:
    """The do-nothing span handed out while tracing is disabled.

    Every method absorbs its call without allocating; ``child`` returns
    the singleton itself so arbitrarily deep instrumentation stays free.
    """

    __slots__ = ()

    name = ""
    attributes: Dict[str, Any] = {}
    children: Tuple[()] = ()
    #: Real-span shape so offset arithmetic (``clock.started - parent.start``)
    #: never branches on whether tracing is live; the result is discarded.
    start = 0.0
    end = 0.0
    duration = 0.0
    enabled = False

    def child(self, name: str, **attributes: Any) -> "_NullSpan":
        return self

    def add_phase(
        self, name: str, seconds: float, offset: float = 0.0, **attributes: Any
    ) -> "_NullSpan":
        return self

    def annotate(self, **attributes: Any) -> None:
        pass

    def finish(self) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass

    def to_dict(self, origin: Optional[float] = None) -> Dict[str, Any]:
        return {}

    def walk(self) -> Iterator["Span"]:
        return iter(())


NULL_SPAN = _NullSpan()


class Trace:
    """A finished (or in-flight) span tree plus request metadata."""

    __slots__ = ("root", "metadata")

    def __init__(self, root: Span, **metadata: Any):
        self.root = root
        self.metadata: Dict[str, Any] = metadata

    @property
    def enabled(self) -> bool:
        return True

    @property
    def duration(self) -> float:
        return self.root.duration

    def to_dict(self) -> Dict[str, Any]:
        entry: Dict[str, Any] = dict(self.metadata)
        entry["trace"] = self.root.to_dict()
        return entry

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, default=repr)

    def span_names(self) -> List[str]:
        """Every span name in the tree, depth-first (handy in assertions)."""
        return [span.name for span in self.root.walk()]

    def render(self) -> str:
        """The span tree as indented text with millisecond durations."""
        lines: List[str] = []
        if self.metadata:
            meta = ", ".join(f"{k}={v}" for k, v in self.metadata.items())
            lines.append(f"trace [{meta}]")

        def emit(span: Span, depth: int) -> None:
            attrs = ""
            if span.attributes:
                attrs = " {" + ", ".join(
                    f"{k}={v!r}" for k, v in sorted(span.attributes.items())
                ) + "}"
            lines.append(
                f"{'  ' * depth}{span.name}: {span.duration * 1000.0:.3f} ms{attrs}"
            )
            for child in list(span.children):
                emit(child, depth + 1)

        emit(self.root, 1 if self.metadata else 0)
        return "\n".join(lines)


class _NullTrace:
    """Stand-in returned by a disabled tracer: nothing recorded, no cost."""

    __slots__ = ()

    root = NULL_SPAN
    metadata: Dict[str, Any] = {}
    duration = 0.0
    enabled = False

    def to_dict(self) -> Dict[str, Any]:
        return {}

    def to_json(self, indent: Optional[int] = None) -> str:
        return "{}"

    def span_names(self) -> List[str]:
        return []

    def render(self) -> str:
        return "(tracing disabled)"


NULL_TRACE = _NullTrace()

#: Canonical publish phases the slow-query log and the audit log break a
#: request into, mapped from the span names that carry them.  The cache
#: probe counts as (the fast path of) reformulation; ``execute`` keeps
#: its children, so ``merge`` — a sub-step of execution — is also
#: reported on its own line.
PUBLISH_PHASES: Dict[str, str] = {
    "reformulate": "reformulate",
    "plan_cache.lookup": "reformulate",
    "route": "route",
    "pool.acquire": "acquire",
    "execute": "execute",
    "merge": "merge",
    "apply": "apply",
    "log.append": "log.append",
}


def phase_breakdown(span: "Span") -> Dict[str, float]:
    """Per-phase seconds of one request's span tree.

    Walks *span*'s descendants summing durations under the canonical
    phase names of :data:`PUBLISH_PHASES`.  A matched ``reformulate``
    span owns its children (the nested cache probe and C&B phases are
    parts of it, not separate phases); every other match keeps
    descending, so ``merge`` inside ``execute`` is still attributed.
    Returns ``{}`` on the null span (tracing disabled).
    """
    phases: Dict[str, float] = {}

    def visit(node: "Span") -> None:
        for child in list(node.children):
            phase = PUBLISH_PHASES.get(child.name)
            if phase is not None:
                phases[phase] = phases.get(phase, 0.0) + child.duration
                if phase == "reformulate":
                    continue
            visit(child)

    visit(span)
    return phases


class TraceBuffer(SampledRing):
    """A sampled ring of completed span trees, exported as JSON-able dicts.

    ``/traces/recent`` serves this buffer: *sample* keeps every Nth
    completed trace (1 keeps them all), *maxlen* bounds retention.
    Recording retains the :class:`Trace` object itself — each request
    builds a fresh span tree, so the retained tree is stable — and the
    dict export happens on :meth:`recent`, keeping the per-publish cost
    of a retained trace to a counter bump and a list append.
    """

    def __init__(self, maxlen: int = 64, sample: int = 1):
        super().__init__("trace", maxlen, sample)

    def record(self, trace: "Trace") -> bool:
        """Offer one completed trace; returns whether it was retained."""
        return trace.enabled and self.sampled() and self.keep(trace)

    @property
    def completed(self) -> int:
        """Traces offered over the buffer's lifetime (sampled or not)."""
        return self.offered

    def recent(self, n: Optional[int] = None) -> List[Dict[str, Any]]:
        """The retained traces as dicts, newest first (at most *n*)."""
        exported = []
        for trace in self.newest(n):
            entry = trace.to_dict()
            entry["duration_ms"] = round(trace.duration * 1000.0, 3)
            exported.append(entry)
        return exported


class Tracer:
    """The per-service switchboard deciding whether requests get spans.

    ``enabled=False`` makes :meth:`trace` return :data:`NULL_TRACE`
    (whose root is the null span), so the serving path's instrumentation
    runs at no-op cost; individual calls can still force a trace (the
    ``explain(trace=True)`` path) via *force*.
    """

    __slots__ = ("enabled",)

    def __init__(self, enabled: bool = True):
        self.enabled = enabled

    def trace(self, name: str, force: bool = False, **metadata: Any):
        """A new :class:`Trace` rooted at *name*, or the null trace."""
        if not (self.enabled or force):
            return NULL_TRACE
        return Trace(Span(name), **metadata)
