"""The structured profile tree: per-operator estimate-vs-actual records.

``explain()`` tells you what the planner *intended*; a
:class:`QueryProfile` records what execution actually *did*, operator by
operator.  Each :class:`ProfileNode` is one operator of a real execution
— a base-table scan, one hash-join step, a union branch, a shard
fragment, a replica read, a merge — carrying the planner's
``estimated_rows``, the measured ``actual_rows``, the wall-clock
``elapsed_seconds``, and the resulting per-operator ``q_error``.  That
is the signal whole-query feedback cannot give: which join, shard or
atom the misestimate came from.

Profiles are produced through the same **ambient sink** design as the
span tracer (:mod:`repro.obs.trace`): entering a node pushes it on a
thread-local stack and :func:`current_profile` hands any code on that
thread the innermost open node, so storage backends attach operator
children without a profiling parameter in any interface.  When no
profile is active, :func:`current_profile` returns the
:data:`NULL_PROFILE` singleton whose every method is an allocation-free
no-op — instrumented code never branches on an "is profiling on" flag,
which is what keeps sampled-off publishes at full speed.  Worker threads
(the scatter/gather pool) capture the parent node in their task closures
instead — thread-locals do not cross threads, profile nodes do (child
attachment is a GIL-atomic list append, exactly like spans).

Truthiness doubles as the activity test: real nodes are truthy, the null
node is falsy, so estimate computation that is only worth paying while
profiling guards with ``if profile:``.
"""

from __future__ import annotations

import json
import threading
from time import perf_counter as _now
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..obs.feedback import q_error

#: Canonical operator kinds.  Backends may introduce engine-specific
#: kinds (the SQLite backend's ``statement``), but these six are the
#: vocabulary the docs, the admin endpoints and the tests speak.
SCAN = "scan"
JOIN_STEP = "join-step"
UNION_BRANCH = "union-branch"
SHARD_FRAGMENT = "shard-fragment"
REPLICA_READ = "replica-read"
MERGE = "merge"
#: One SQL statement executed by a real engine (the SQLite backend).
STATEMENT = "statement"

_ACTIVE = threading.local()


def current_profile() -> "ProfileNode":
    """The innermost open profile node on this thread, or :data:`NULL_PROFILE`.

    Backends use this to attach per-operator children without a
    profiling parameter threading through every ``StorageBackend``
    method — the same contract as :func:`repro.obs.current_span`.
    """
    stack = getattr(_ACTIVE, "stack", None)
    if stack:
        return stack[-1]
    return NULL_PROFILE


class ProfileNode:
    """One executed operator: estimated vs. actual rows, and its timing.

    Like spans, nodes are deliberately lock-free: the mutating
    operations (``children.append``, ``attributes.update``) are single
    bytecode-dispatched calls on built-in containers, GIL-atomic, so
    concurrent scatter/gather workers can attach fragments to a shared
    parent without a per-node lock.
    """

    __slots__ = (
        "kind",
        "label",
        "estimated_rows",
        "actual_rows",
        "start",
        "end",
        "attributes",
        "children",
    )

    def __init__(
        self,
        kind: str,
        label: str,
        estimated_rows: Optional[float] = None,
        **attributes: Any,
    ):
        self.kind = kind
        self.label = label
        self.estimated_rows = estimated_rows
        self.actual_rows: Optional[int] = None
        self.start: float = _now()
        self.end: Optional[float] = None
        self.attributes: Dict[str, Any] = attributes
        self.children: List["ProfileNode"] = []

    # -- recording -----------------------------------------------------
    def child(
        self,
        kind: str,
        label: str,
        estimated_rows: Optional[float] = None,
        **attributes: Any,
    ) -> "ProfileNode":
        """Open (and return) a child operator; use it as a context manager."""
        node = ProfileNode(kind, label, estimated_rows, **attributes)
        self.children.append(node)
        return node

    def annotate(self, **attributes: Any) -> None:
        """Merge *attributes* into this node (last write wins per key)."""
        self.attributes.update(attributes)

    def finish(self, actual_rows: Optional[int] = None) -> None:
        """Close the timing window and record the measured cardinality."""
        if actual_rows is not None:
            self.actual_rows = actual_rows
        if self.end is None:
            self.end = _now()

    # -- context manager (sets the ambient profile node) ---------------
    def __enter__(self) -> "ProfileNode":
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
    def __bool__(self) -> bool:
        return True

    @property
    def enabled(self) -> bool:
        return True

    @property
    def elapsed_seconds(self) -> float:
        """Seconds this operator covered (open nodes read as 'so far')."""
        return (self.end if self.end is not None else _now()) - self.start

    @property
    def q_error(self) -> Optional[float]:
        """Per-operator cardinality q-error; ``None`` until both sides exist."""
        if self.estimated_rows is None or self.actual_rows is None:
            return None
        return q_error(self.estimated_rows, self.actual_rows)

    def describe(self) -> str:
        """``kind:label`` — the operator name feedback and reports use."""
        return f"{self.kind}:{self.label}"

    def walk(self) -> Iterator["ProfileNode"]:
        """This node and every descendant, depth-first."""
        yield self
        for child in list(self.children):
            yield from child.walk()

    def worst_operator(self) -> Optional["ProfileNode"]:
        """The descendant (or self) with the largest q-error, if any."""
        worst: Optional["ProfileNode"] = None
        worst_error = 0.0
        for node in self.walk():
            error = node.q_error
            if error is not None and error > worst_error:
                worst, worst_error = node, error
        return worst

    def to_dict(self) -> Dict[str, Any]:
        entry: Dict[str, Any] = {
            "kind": self.kind,
            "label": self.label,
            "estimated_rows": self.estimated_rows,
            "actual_rows": self.actual_rows,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
        }
        error = self.q_error
        if error is not None:
            entry["q_error"] = round(error, 3)
        if self.attributes:
            entry["attributes"] = dict(self.attributes)
        children = list(self.children)
        if children:
            entry["children"] = [child.to_dict() for child in children]
        return entry


class _NullProfileNode:
    """The do-nothing node handed out while no profile is active.

    Every method absorbs its call without allocating; ``child`` returns
    the singleton itself so arbitrarily deep instrumentation stays free,
    and the node is falsy so estimate computation can skip itself with
    ``if profile:``.
    """

    __slots__ = ()

    kind = ""
    label = ""
    estimated_rows = None
    actual_rows = None
    attributes: Dict[str, Any] = {}
    children: Tuple[()] = ()
    start = 0.0
    end = 0.0
    elapsed_seconds = 0.0
    q_error = None
    enabled = False

    def __bool__(self) -> bool:
        return False

    def child(
        self,
        kind: str,
        label: str,
        estimated_rows: Optional[float] = None,
        **attributes: Any,
    ) -> "_NullProfileNode":
        return self

    def annotate(self, **attributes: Any) -> None:
        pass

    def finish(self, actual_rows: Optional[int] = None) -> None:
        pass

    def __enter__(self) -> "_NullProfileNode":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass

    def describe(self) -> str:
        return ""

    def walk(self) -> Iterator["ProfileNode"]:
        return iter(())

    def worst_operator(self) -> None:
        return None

    def to_dict(self) -> Dict[str, Any]:
        return {}


NULL_PROFILE = _NullProfileNode()


class QueryProfile:
    """A finished operator tree plus request metadata.

    The root node covers the whole execution (its ``actual_rows`` is the
    published row count); metadata carries the query name, strategy,
    whether the profile came from the 1-in-N sampler or a forced
    ``explain(analyze=True)`` run, and the ``request_id`` of the served
    request it belongs to.
    """

    __slots__ = ("root", "metadata")

    def __init__(self, root: ProfileNode, **metadata: Any):
        self.root = root
        self.metadata: Dict[str, Any] = metadata

    @property
    def request_id(self) -> Optional[int]:
        """The id of the request's ``RequestRecord`` (``None`` outside a service)."""
        return self.metadata.get("request_id")

    @property
    def elapsed_seconds(self) -> float:
        return self.root.elapsed_seconds

    @property
    def actual_rows(self) -> Optional[int]:
        return self.root.actual_rows

    def worst_operator(self) -> Optional[ProfileNode]:
        return self.root.worst_operator()

    def worst_q_error(self) -> float:
        """The largest per-operator q-error in the tree (1.0 when none)."""
        worst = self.worst_operator()
        error = worst.q_error if worst is not None else None
        return error if error is not None else 1.0

    def to_dict(self) -> Dict[str, Any]:
        entry: Dict[str, Any] = dict(self.metadata)
        worst = self.worst_operator()
        if worst is not None:
            entry["worst_operator"] = worst.describe()
            entry["worst_q_error"] = round(worst.q_error or 1.0, 3)
        entry["profile"] = self.root.to_dict()
        return entry

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, default=repr)

    def operators(self) -> List[ProfileNode]:
        """Every node of the tree, depth-first (handy in assertions)."""
        return list(self.root.walk())

    def render(self) -> str:
        """The operator tree as indented text — the EXPLAIN ANALYZE view."""
        lines: List[str] = []
        if self.metadata:
            meta = ", ".join(f"{k}={v}" for k, v in sorted(self.metadata.items()))
            lines.append(f"profile [{meta}]")

        def emit(node: ProfileNode, depth: int) -> None:
            cells = []
            if node.estimated_rows is not None:
                cells.append(f"est={node.estimated_rows:g}")
            if node.actual_rows is not None:
                cells.append(f"act={node.actual_rows}")
            error = node.q_error
            if error is not None:
                cells.append(f"q={error:.2f}")
            cells.append(f"{node.elapsed_seconds * 1000.0:.3f} ms")
            attrs = ""
            if node.attributes:
                attrs = " {" + ", ".join(
                    f"{k}={v!r}" for k, v in sorted(node.attributes.items())
                ) + "}"
            lines.append(
                f"{'  ' * depth}{node.kind} {node.label}: "
                + ", ".join(cells) + attrs
            )
            for child in list(node.children):
                emit(child, depth + 1)

        emit(self.root, 1 if self.metadata else 0)
        return "\n".join(lines)
