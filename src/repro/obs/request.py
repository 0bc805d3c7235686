"""One request, one record: what a served publish/update leaves behind.

The paper reports each query as one row — time to plan, time to execute,
rows.  :class:`RequestRecord` is that row for the service: built exactly
once per served request, immutable, and *normative* — every telemetry
sink (metrics, SLO, cost feedback, slow-query event, trace buffer,
profile buffer, audit log) shows a projection of it, so the sinks cannot
disagree on a spelling.  ``request_id`` is the join key across all of
them; ``fingerprint`` (the query's stable digest) additionally joins
cost feedback and plan-store artifacts.
"""

from __future__ import annotations

from typing import Any, Dict, NamedTuple, Optional, Tuple

from .trace import NULL_TRACE


class RequestRecord(NamedTuple):
    """The normative description of one acknowledged request."""

    #: Dense per-service sequence number (1, 2, 3, ...).
    request_id: int
    #: ``"publish"`` or ``"update"``.
    kind: str
    #: Wall-clock seconds since the epoch at completion.
    ts: float
    #: The LSN barrier a publish was served at / the LSN an update reached.
    lsn: int
    seconds: float
    #: Seconds per canonical phase (see :data:`~repro.obs.trace.PUBLISH_PHASES`).
    phases: Dict[str, float]
    #: The request's span tree (:data:`NULL_TRACE` when untraced).
    trace: Any = NULL_TRACE
    query: str = ""
    #: ``XBindQuery.fingerprint_digest()`` — the spelling plan artifacts use.
    fingerprint: str = ""
    plan: str = ""
    #: The plan's routing mode, from the routing decision itself.
    route: Tuple[str, ...] = ()
    rows: int = 0
    #: Changes in an update's change set.
    changes: int = 0
    #: The planner's ``(rows, cost)`` estimate, when it made one.
    estimate: Optional[Tuple[float, float]] = None
    #: The :class:`~repro.profile.QueryProfile` of a profiled publish.
    profile: Optional[Any] = None

    def audit_entry(self) -> Dict[str, Any]:
        """The durable JSON line of this request."""
        entry: Dict[str, Any] = {
            "ts": self.ts, "kind": self.kind, "request_id": self.request_id,
        }
        if self.kind == "update":
            entry.update(lsn=self.lsn, changes=self.changes)
        else:
            entry.update(
                query=self.query, fingerprint=self.fingerprint,
                route=list(self.route),
                lsn=self.lsn, rows=self.rows,
            )
        entry.update(seconds=self.seconds, phases=self.phases)
        if self.estimate is not None:
            rows, cost = self.estimate
            entry["estimate"] = {"rows": rows, "cost": cost}
        return entry

    def slow_event(self, threshold: float) -> Dict[str, Any]:
        """The details of this request's ``query.slow`` event."""
        details: Dict[str, Any] = {
            "request_id": self.request_id, "query": self.query,
            "seconds": self.seconds, "rows": self.rows, "threshold": threshold,
        }
        if self.phases:
            # Where the time went, phase by phase — the difference
            # between "the query was slow" and "the pool was starved".
            details["phases"] = dict(self.phases)
        return details

    def feedback(self) -> Optional[Dict[str, Any]]:
        """``CostFeedback.record`` arguments (``None`` without an estimate).

        A profiled publish also names its worst *operator* — the node
        with the largest per-operator q-error — so the misestimation
        report can point at the join step or shard fragment the error
        came from instead of the whole plan.
        """
        if self.estimate is None:
            return None
        rows, cost = self.estimate
        arguments: Dict[str, Any] = {
            "fingerprint": self.fingerprint, "plan_name": self.plan,
            "estimated_rows": rows, "estimated_cost": cost,
            "actual_rows": self.rows,
            "actual_seconds": self.phases.get("execute", 0.0),
        }
        worst = self.profile.worst_operator() if self.profile is not None else None
        if worst is not None:
            arguments["worst_operator"] = worst.describe()
            arguments["worst_operator_q_error"] = worst.q_error or 1.0
        return arguments
