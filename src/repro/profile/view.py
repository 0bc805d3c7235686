"""The profile view: per-operator estimate-vs-actual records of one execution.

A :class:`QueryProfile` shows what execution actually *did*, operator by
operator — a base-table scan, one hash-join step, a shard fragment, a
replica read, a merge — each carrying the planner's
``estimated_rows``, the measured ``actual_rows``, the wall-clock
``elapsed_seconds``, and the resulting per-operator ``q_error``.  That
is the signal whole-query feedback cannot give: which join, shard or
atom the misestimate came from.  It is also the one description of a
plan: ``explain()`` runs the plan and prints its profile's :meth:`render`.

The operators are nodes of the request's one execution tree
(:class:`~repro.obs.trace.Span`, recorded when the tree is
``profiled``); a profile is the :class:`~repro.obs.trace.TreeView` that
keeps them, rooted at the topmost one — a service request's ``execute``
node — with their operator children lifted past layer-only spans.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..obs.trace import NULL_SPAN, Span, TreeView, format_attributes

#: Canonical operator kinds.  Backends may introduce engine-specific
#: kinds (the SQLite backend's ``statement``), but these five are the
#: vocabulary the docs, the admin endpoints and the tests speak.
SCAN = "scan"
JOIN_STEP = "join-step"
SHARD_FRAGMENT = "shard-fragment"
REPLICA_READ = "replica-read"
MERGE = "merge"
#: One SQL statement executed by a real engine (the SQLite backend).
STATEMENT = "statement"
#: The root operator of a served request: the whole plan execution.
EXECUTE = "execute"


class QueryProfile(TreeView):
    """The operator view of one execution tree, plus request metadata.

    The root is the topmost operator of *tree* and covers the whole
    execution (its ``actual_rows`` is the published row count); metadata
    carries the query name, whether the profile came from the
    1-in-N sampler or a forced ``explain()`` run, and the
    ``request_id`` of the served request it belongs to.
    """

    __slots__ = ()

    title = "profile"

    def __init__(self, tree: Span, **metadata: Any):
        root = next((node for node in tree.walk() if self.keeps(node)), NULL_SPAN)
        super().__init__(root, **metadata)

    @staticmethod
    def keeps(node: Span) -> bool:
        return node.kind is not None

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

    def worst_operator(self) -> Optional[Span]:
        return self.root.worst_operator()

    def worst_q_error(self) -> float:
        """The largest per-operator q-error in the tree (1.0 when none)."""
        worst = self.worst_operator()
        error = worst.q_error if worst is not None else None
        return error if error is not None else 1.0

    def operators(self) -> List[Span]:
        """Every operator of the view, depth-first (handy in assertions)."""
        return list(self.nodes())

    def to_dict(self) -> Dict[str, Any]:
        entry: Dict[str, Any] = dict(self.metadata)
        worst = self.worst_operator()
        if worst is not None:
            entry["worst_operator"] = worst.describe()
            entry["worst_q_error"] = round(worst.q_error or 1.0, 3)
        entry["profile"] = self._export(self.root)
        return entry

    def _export(self, node: Span) -> Dict[str, Any]:
        entry: Dict[str, Any] = {
            "kind": node.kind,
            "label": node.label,
            "estimated_rows": node.estimated_rows,
            "actual_rows": node.actual_rows,
            "elapsed_seconds": round(node.elapsed_seconds, 6),
        }
        error = node.q_error
        if error is not None:
            entry["q_error"] = round(error, 3)
        if node.attributes:
            entry["attributes"] = dict(node.attributes)
        children = [self._export(child) for child in self.children(node)]
        if children:
            entry["children"] = children
        return entry

    def header(self) -> str:
        meta = ", ".join(f"{k}={v}" for k, v in sorted(self.metadata.items()))
        return f"{self.title} [{meta}]"

    def line(self, node: Span) -> str:
        """``kind label: est=…, act=…, q=…, … ms {attributes}`` — the
        EXPLAIN ANALYZE line of one operator."""
        cells = []
        if node.estimated_rows is not None:
            cells.append(f"est={node.estimated_rows:g}")
        if node.actual_rows is not None:
            cells.append(f"act={node.actual_rows}")
        error = node.q_error
        if error is not None:
            cells.append(f"q={error:.2f}")
        cells.append(f"{node.elapsed_seconds * 1000.0:.3f} ms")
        return (
            f"{node.kind} {node.label}: " + ", ".join(cells)
            + format_attributes(node.attributes)
        )
