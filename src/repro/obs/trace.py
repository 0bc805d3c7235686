"""One execution tree per request: its spans and its profile operators.

A :class:`Span` is one timed step of serving a request (plan-cache
lookup, C&B reformulation, routing decision, pool checkout, per-shard
execution, merge, ...).  Spans nest: the publishing service opens a root
span per request, and each layer it calls attaches children — explicitly
(``span.child(...)``) or, for layers that are called through generic
interfaces and cannot take a tracing parameter (a pooled backend clone's
``execute``), through the **ambient span**: entering a span pushes it on
a thread-local stack, and :func:`current_span` hands any code running on
that thread its innermost open span.  A request's whole tree is built on
the thread that serves it (a scatter runs its shards in turn there), so
the ambient stack always holds the right parent.  Code that does hand a
span to another thread passes the object itself — thread-locals do not
cross threads, span objects do (child attachment is lock-free; see
:class:`Span`).

The same tree records what execution *did*, operator by operator, when
it is ``profiled`` — one flag, set at the root and inherited by every
child.  A node is a *layer* (a named span: ``route``, ``pool.acquire``),
an *operator* (a ``kind``/``label`` with estimated and actual rows,
opened by :meth:`Span.operator` in a profiled tree only: ``scan``,
``join-step``, ``statement``, a routing decision), or *both*, one span
that :meth:`Span.as_operator` marks (``execute``, ``shard.execute``,
``shard.gather``, ``merge``, ``replica.read``).  :class:`Trace` and
:class:`~repro.profile.QueryProfile` are the two :class:`TreeView`
projections of one root: the trace keeps the layer nodes, the profile
the operators under ``execute``, each lifting what it keeps past what it
drops — so an unprofiled request's trace is its tree.

Tracing is built to be free when off: a request neither traced nor
profiled gets :data:`NULL_TRACE`, rooted at the :data:`NULL_SPAN`
singleton whose every method is a no-op and whose children are itself,
so instrumented code never branches on an ``if tracing`` flag — it
always opens spans, and the null span absorbs them without allocating.
A finished trace exports as a JSON-able dict (:meth:`Trace.to_dict`)
and renders as an indented tree with millisecond durations
(:meth:`TreeView.render`) — the view ``PublishingService.explain`` shows
under ``trace=True``.
"""

from __future__ import annotations

import json
import threading
from time import perf_counter as _now
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .feedback import q_error
from .ring import SampledRing

_ACTIVE = threading.local()


def current_span() -> "Span":
    """The innermost open node on this thread, or :data:`NULL_SPAN`.

    Backends use this to attach per-shard, per-replica and per-operator
    children without a tracing or profiling parameter threading through
    every ``StorageBackend`` method.
    """
    stack = getattr(_ACTIVE, "stack", None)
    if stack:
        return stack[-1]
    return NULL_SPAN


class Span:
    """One node of a request's execution tree: a span, an operator, or both.

    Tracing sits on every publish, so spans are deliberately lock-free:
    the mutating operations (``children.append``, ``attributes.update``)
    are single bytecode-dispatched calls on built-in containers, which
    CPython's GIL makes atomic — a thread holding a captured span can
    attach children to it while another reads the tree, without a
    per-span lock (readers snapshot ``list(children)`` before iterating).
    """

    __slots__ = (
        "name", "attributes", "start", "end", "children", "profiled",
        "kind", "label", "estimated_rows", "actual_rows",
    )

    #: The span name; ``None`` on an operator-only node.
    name: Optional[str]
    #: Whether this tree records operators (set at the root, inherited).
    profiled: bool
    attributes: Dict[str, Any]
    start: float
    end: Optional[float]
    children: List["Span"]
    #: The operator class; ``None`` on a layer-only node.
    kind: Optional[str]
    label: str
    estimated_rows: Optional[float]
    actual_rows: Optional[int]

    def __new__(cls, name: Optional[str], profiled: bool = False, **attributes: Any) -> "Span":
        return _node(name, profiled, attributes, _now())

    # -- recording -----------------------------------------------------
    def child(self, name: str, **attributes: Any) -> "Span":
        """Open (and return) a child span; use it as a context manager."""
        span = _node(name, self.profiled, attributes, _now())
        self.children.append(span)
        return span

    def operator(
        self,
        kind: str,
        label: str,
        estimated_rows: Optional[float] = None,
        **attributes: Any,
    ) -> "Span":
        """Open an operator-only child — the null node in an unprofiled tree."""
        if not self.profiled:
            return NULL_SPAN
        node = _node(None, True, attributes, _now())
        node.kind, node.label, node.estimated_rows = kind, label, estimated_rows
        self.children.append(node)
        return node

    def as_operator(self, kind: str, label: str, **attributes: Any) -> "Span":
        """Make this span an operator too, when the tree is profiled.

        *attributes* are operator detail only a profiled tree carries.
        Returns the span, so ``parent.child(...).as_operator(...)`` opens
        one node for an event that is both a layer and an operator.
        """
        if self.profiled:
            self.kind, self.label = kind, label
            self.attributes.update(attributes)
        return self

    def add_phase(
        self, name: str, seconds: float, offset: float = 0.0, **attributes: Any
    ) -> "Span":
        """Attach an already-measured child (a recorded ``elapsed_seconds``).

        The C&B engine times its own phases; rather than re-timing them,
        the service grafts those readings into the tree.  *offset* is
        seconds past this span's start.
        """
        start = self.start + offset
        span = _node(name, self.profiled, attributes, start)
        span.end = start + seconds if seconds > 0.0 else start
        self.children.append(span)
        return span

    def annotate(self, **attributes: Any) -> None:
        """Merge *attributes* into this span (last write wins per key)."""
        self.attributes.update(attributes)

    def produced(self, rows: int) -> None:
        """Record the rows this step produced, once for both views: the
        span's ``rows`` attribute and the operator's ``actual_rows``."""
        self.attributes["rows"] = rows
        self.actual_rows = rows

    def finish(self, actual_rows: Optional[int] = None) -> None:
        """Close the timing window and record the measured cardinality."""
        if actual_rows is not None:
            self.actual_rows = actual_rows
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

    #: The profile view's name for :attr:`duration`.
    elapsed_seconds = duration

    @property
    def q_error(self) -> Optional[float]:
        """Per-operator cardinality q-error; ``None`` until both sides exist."""
        if self.estimated_rows is None or self.actual_rows is None:
            return None
        return q_error(self.estimated_rows, self.actual_rows)

    def describe(self) -> str:
        """``kind:label`` — the operator name feedback and reports use."""
        return f"{self.kind}:{self.label}"

    def to_dict(self, origin: Optional[float] = None) -> Dict[str, Any]:
        """This span's subtree in the trace view (see :class:`Trace`)."""
        if origin is None:
            origin = self.start
        entry: Dict[str, Any] = {
            "name": self.name,
            "offset_ms": round((self.start - origin) * 1000.0, 3),
            "duration_ms": round(self.duration * 1000.0, 3),
        }
        if self.attributes:
            entry["attributes"] = dict(self.attributes)
        children = [child.to_dict(origin) for child in _lifted(self, is_layer)]
        if children:
            entry["children"] = children
        return entry

    def walk(self) -> Iterator["Span"]:
        """This node and every descendant, depth-first."""
        yield self
        for child in list(self.children):
            yield from child.walk()

    def worst_operator(self) -> Optional["Span"]:
        """The descendant (or self) with the largest q-error, if any."""
        worst: Optional["Span"] = None
        worst_error = 0.0
        for node in self.walk():
            error = node.q_error
            if error is not None and error > worst_error:
                worst, worst_error = node, error
        return worst


def _node(
    name: Optional[str], profiled: bool, attributes: Dict[str, Any], start: float
) -> Span:
    """A new open node.  Every way of opening one comes here: a span is
    opened several times per traced publish, and filling the slots
    directly skips the constructor call and a copy of *attributes*."""
    node = object.__new__(Span)
    node.name = name
    node.profiled = profiled
    node.attributes = attributes
    node.start = start
    node.end = None
    node.children = []
    node.kind = None
    node.label = ""
    node.estimated_rows = None
    node.actual_rows = None
    return node


class _NullSpan:
    """The do-nothing node handed out while nothing is recorded.

    Every method absorbs its call without allocating; the opening ones
    (``child``, ``operator``, ...) return the singleton itself so
    arbitrarily deep instrumentation stays free.
    """

    __slots__ = ()

    name = ""
    attributes: Dict[str, Any] = {}
    children: Tuple[()] = ()
    #: Real-span shape so offset arithmetic (``clock.started - parent.start``)
    #: never branches on whether tracing is live; the result is discarded.
    start = end = duration = elapsed_seconds = 0.0
    enabled = profiled = False
    kind = estimated_rows = actual_rows = q_error = None
    label = ""

    def _itself(self, *args: Any, **attributes: Any) -> "_NullSpan":
        return self

    def _nothing(self, *args: Any, **attributes: Any) -> None:
        return None

    child = operator = as_operator = add_phase = __enter__ = _itself
    annotate = produced = finish = __exit__ = worst_operator = _nothing

    def describe(self) -> str:
        return ""

    def to_dict(self, origin: Optional[float] = None) -> Dict[str, Any]:
        return {}

    def walk(self) -> Iterator["Span"]:
        return iter(())


NULL_SPAN = _NullSpan()


def operator_root(kind: str, label: str, **attributes: Any) -> Span:
    """A new profiled tree rooted at one operator — what a
    :class:`~repro.profile.QueryProfile` views outside a service request."""
    return Span(None, True).as_operator(kind, label, **attributes)


def is_layer(node: Span) -> bool:
    """Whether *node* is a span (the trace view keeps it)."""
    return node.name is not None


def _lifted(node: Span, keeps) -> Iterator[Span]:
    """*node*'s children as a view sees them: each kept child, and in
    place of a dropped one its own kept descendants, lifted."""
    for child in list(node.children):
        if keeps(child):
            yield child
        else:
            yield from _lifted(child, keeps)


class TreeView:
    """One projection of an execution tree: the nodes it ``keeps``, one
    export (``to_dict``) and the one indented-tree printer (``render``,
    one ``line`` per node)."""

    __slots__ = ("root", "metadata")

    #: The word heading :meth:`render` when the view carries metadata.
    title = ""

    def __init__(self, root: Span, **metadata: Any):
        self.root = root
        self.metadata: Dict[str, Any] = metadata

    def children(self, node: Span) -> Iterator[Span]:
        """*node*'s children in this view (dropped nodes' kept ones lifted)."""
        return _lifted(node, self.keeps)

    def nodes(self, node: Optional[Span] = None) -> Iterator[Span]:
        """Every node of this view (under *node*, default the root), depth-first."""
        node = self.root if node is None else node
        yield node
        for child in self.children(node):
            yield from self.nodes(child)

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, default=repr)

    def header(self) -> str:
        meta = ", ".join(f"{k}={v}" for k, v in self.metadata.items())
        return f"{self.title} [{meta}]"

    def render(self) -> str:
        """The view as indented text, one :meth:`line` per node."""
        lines: List[str] = []
        if self.metadata:
            lines.append(self.header())

        def emit(node: Span, depth: int) -> None:
            lines.append("  " * depth + self.line(node))
            for child in self.children(node):
                emit(child, depth + 1)

        emit(self.root, 1 if self.metadata else 0)
        return "\n".join(lines)


def format_attributes(attributes: Dict[str, Any]) -> str:
    """`` {k=v, ...}`` in key order, or ``""`` — a rendered line's tail."""
    if not attributes:
        return ""
    return " {" + ", ".join(f"{k}={v!r}" for k, v in sorted(attributes.items())) + "}"


class Trace(TreeView):
    """The span view of a request's tree, plus request metadata.

    ``enabled`` is whether the request is traced: a profiled request that
    is not still grows a real tree (its profile is a view of it), but its
    trace view is off — nothing exported, nothing retained.
    """

    __slots__ = ("enabled",)

    title = "trace"
    keeps = staticmethod(is_layer)

    def __init__(self, root: Span, traced: bool = True, **metadata: Any):
        # TreeView's fields, set here: one trace is built per publish.
        self.root = root
        self.metadata = metadata
        self.enabled = traced

    @property
    def duration(self) -> float:
        return self.root.duration

    def to_dict(self) -> Dict[str, Any]:
        if not self.enabled:
            return {}
        entry: Dict[str, Any] = dict(self.metadata)
        entry["trace"] = self.root.to_dict()
        return entry

    def span_names(self) -> List[str]:
        """Every span name in the tree, depth-first (handy in assertions)."""
        return [span.name for span in self.nodes()] if self.enabled else []

    def line(self, node: Span) -> str:
        return (
            f"{node.name}: {node.duration * 1000.0:.3f} ms"
            + format_attributes(node.attributes)
        )

    def render(self) -> str:
        return super().render() if self.enabled else "(tracing disabled)"


#: The trace of a request that is neither traced nor profiled.
NULL_TRACE = Trace(NULL_SPAN, traced=False)


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

    def trace(self, name: str, force: bool = False, profiled: bool = False,
              **metadata: Any) -> Trace:
        """A new tree rooted at *name* and its trace view.

        A *profiled* tree records operators; a request neither traced
        nor profiled gets :data:`NULL_TRACE`.
        """
        traced = self.enabled or force
        if not (traced or profiled):
            return NULL_TRACE
        return Trace(_node(name, profiled, {}, _now()), traced, **metadata)


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
    _add_phases(span, phases)
    return phases


def _add_phases(span: "Span", phases: Dict[str, float]) -> None:
    # No snapshot of the children: the walk runs once the request is done.
    for node in span.children:
        phase = PUBLISH_PHASES.get(node.name)
        if phase is not None:
            end = node.end if node.end is not None else _now()
            phases[phase] = phases.get(phase, 0.0) + (end - node.start)
            if phase == "reformulate":
                continue
        if node.children:
            _add_phases(node, phases)


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
        return trace.enabled and self.offer(trace)

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
