"""Cost feedback: were the planner's estimates ever right?

PR 4 gave the system a statistics-fed :class:`~repro.cost.model.CostModel`
that ranks reformulations and routes shards — but nothing ever checked
its predictions against reality.  The :class:`CostFeedback` recorder
closes that loop: every executed publish contributes ``(estimated
cardinality, estimated cost, actual row count, actual seconds)`` under
the query's structural fingerprint, and :meth:`CostFeedback.report`
surfaces the per-fingerprint **q-error** — ``max(est, actual) /
min(est, actual)``, the standard symmetric cardinality-misestimation
measure (1.0 is a perfect estimate; 10 means an order of magnitude off
in either direction).

The report is what adaptive statistics consume:
``PublishingService.refresh_if_misestimated`` re-collects the
:class:`~repro.cost.statistics.StatisticsCatalog` (flushing the plan
cache) when enough fingerprints drift past a q-error threshold — the
same corrective action row-count drift triggers, now driven by observed
planning error instead of write volume alone.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional


#: The largest q-error :func:`q_error` will report.  Misestimates past a
#: million-fold are equally "maximally wrong" for every consumer of the
#: number, and the cap keeps ``inf`` (an infinite estimate, or one side
#: overflowing) out of report sorting and the Prometheus exposition.
Q_ERROR_CAP = 1e6


def q_error(estimated: float, actual: float) -> float:
    """The symmetric ratio error of a cardinality estimate (>= 1.0).

    Both sides are floored at one row: an estimate of 0 against an empty
    result is a perfect prediction, not a division by zero — an actual
    row count of 0 in particular never divides.  The result is capped at
    :data:`Q_ERROR_CAP`, and non-finite or non-numeric inputs report the
    cap rather than letting ``inf``/``NaN`` leak into reports or metrics.
    """
    try:
        est = float(estimated)
        act = float(actual)
    except (TypeError, ValueError):
        return Q_ERROR_CAP
    if est != est or act != act:  # NaN on either side: maximally wrong
        return Q_ERROR_CAP
    est = max(1.0, est)
    act = max(1.0, act)
    if est == float("inf") or act == float("inf"):
        return Q_ERROR_CAP
    return min(Q_ERROR_CAP, max(est, act) / min(est, act))


@dataclass(frozen=True)
class FingerprintFeedback:
    """Aggregated estimate-vs-actual numbers for one query fingerprint."""

    fingerprint: Hashable
    #: The ranked plan the estimates belong to (helps find it in explain).
    plan_name: str
    samples: int
    estimated_rows: float
    estimated_cost: float
    #: Mean over the recorded executions.
    actual_rows: float
    #: Mean execution seconds over the recorded executions.
    actual_seconds: float
    #: ``q_error(estimated_rows, actual_rows)``.
    cardinality_q_error: float
    #: The worst-misestimated *operator* observed for this fingerprint
    #: (``kind:label``, e.g. ``join-step:treatment[step 2]``) — recorded
    #: by sampled query profiles; ``None`` until one was profiled.
    worst_operator: Optional[str] = None
    #: The per-operator q-error of :attr:`worst_operator` (1.0 when none).
    worst_operator_q_error: float = 1.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            # A digest string exports as itself — the spelling audit entries
            # and plan artifacts carry — anything else by its repr.
            "fingerprint": (
                self.fingerprint
                if isinstance(self.fingerprint, str)
                else repr(self.fingerprint)
            ),
            "plan": self.plan_name,
            "samples": self.samples,
            "estimated_rows": self.estimated_rows,
            "estimated_cost": self.estimated_cost,
            "actual_rows": self.actual_rows,
            "actual_seconds": self.actual_seconds,
            "cardinality_q_error": self.cardinality_q_error,
            "worst_operator": self.worst_operator,
            "worst_operator_q_error": self.worst_operator_q_error,
        }


class _Accumulator:
    __slots__ = (
        "plan_name",
        "samples",
        "estimated_rows",
        "estimated_cost",
        "rows_sum",
        "seconds_sum",
        "worst_operator",
        "worst_operator_q_error",
    )

    def __init__(self, plan_name: str, estimated_rows: float, estimated_cost: float):
        self.plan_name = plan_name
        self.samples = 0
        self.estimated_rows = estimated_rows
        self.estimated_cost = estimated_cost
        self.rows_sum = 0.0
        self.seconds_sum = 0.0
        self.worst_operator: Optional[str] = None
        self.worst_operator_q_error = 1.0


class CostFeedback:
    """Thread-safe per-fingerprint recorder of estimate-vs-actual pairs."""

    def __init__(self, maxsize: int = 1024):
        if maxsize < 1:
            raise ValueError(f"cost feedback needs maxsize >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._entries: Dict[Hashable, _Accumulator] = {}
        self._recorded = 0

    def record(
        self,
        fingerprint: Hashable,
        plan_name: str,
        estimated_rows: float,
        estimated_cost: float,
        actual_rows: int,
        actual_seconds: float,
        worst_operator: Optional[str] = None,
        worst_operator_q_error: float = 1.0,
    ) -> None:
        """Fold one execution's outcome into the fingerprint's aggregate.

        A fingerprint re-planned with different estimates (fresh
        statistics re-ranked the candidates) resets its aggregate — old
        actuals measured a superseded plan.  Sampled query profiles pass
        the worst-misestimated operator of the execution
        (*worst_operator*, a ``kind:label`` string, with its per-operator
        q-error); the aggregate keeps the worst one seen so the report
        can localize the misestimate, not just name the fingerprint.
        """
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                if len(self._entries) >= self.maxsize:
                    # Bounded: drop the oldest-inserted fingerprint.  A hot
                    # fingerprint re-inserts immediately on its next record.
                    self._entries.pop(next(iter(self._entries)))
                entry = self._entries[fingerprint] = _Accumulator(
                    plan_name, estimated_rows, estimated_cost
                )
            elif (
                entry.estimated_rows != estimated_rows
                or entry.plan_name != plan_name
            ):
                entry = self._entries[fingerprint] = _Accumulator(
                    plan_name, estimated_rows, estimated_cost
                )
            entry.samples += 1
            entry.rows_sum += float(actual_rows)
            entry.seconds_sum += float(actual_seconds)
            if (
                worst_operator is not None
                and worst_operator_q_error >= entry.worst_operator_q_error
            ):
                entry.worst_operator = worst_operator
                entry.worst_operator_q_error = worst_operator_q_error
            self._recorded += 1

    @property
    def recorded(self) -> int:
        """Executions recorded over the recorder's lifetime."""
        with self._lock:
            return self._recorded

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def report(
        self, min_samples: int = 1, q_threshold: float = 1.0
    ) -> List[FingerprintFeedback]:
        """Per-fingerprint feedback, worst cardinality q-error first.

        Only fingerprints with at least *min_samples* executions and a
        q-error of at least *q_threshold* appear (the defaults keep
        everything).
        """
        with self._lock:
            snapshot = [
                (fingerprint, entry.plan_name, entry.samples,
                 entry.estimated_rows, entry.estimated_cost,
                 entry.rows_sum, entry.seconds_sum,
                 entry.worst_operator, entry.worst_operator_q_error)
                for fingerprint, entry in self._entries.items()
            ]
        results: List[FingerprintFeedback] = []
        for (fingerprint, plan_name, samples, est_rows, est_cost,
             rows_sum, seconds_sum, worst_op, worst_op_error) in snapshot:
            if samples < min_samples:
                continue
            mean_rows = rows_sum / samples
            error = q_error(est_rows, mean_rows)
            if error < q_threshold:
                continue
            results.append(
                FingerprintFeedback(
                    fingerprint=fingerprint,
                    plan_name=plan_name,
                    samples=samples,
                    estimated_rows=est_rows,
                    estimated_cost=est_cost,
                    actual_rows=mean_rows,
                    actual_seconds=seconds_sum / samples,
                    cardinality_q_error=error,
                    worst_operator=worst_op,
                    worst_operator_q_error=worst_op_error,
                )
            )
        results.sort(key=lambda entry: entry.cardinality_q_error, reverse=True)
        return results

    def worst_q_error(self, min_samples: int = 1) -> float:
        """The largest per-fingerprint q-error observed (1.0 when empty)."""
        report = self.report(min_samples=min_samples)
        return report[0].cardinality_q_error if report else 1.0

    def clear(self) -> None:
        """Forget every aggregate (after statistics were re-collected)."""
        with self._lock:
            self._entries.clear()

    def to_dicts(self, min_samples: int = 1) -> List[Dict[str, Any]]:
        return [entry.to_dict() for entry in self.report(min_samples=min_samples)]
