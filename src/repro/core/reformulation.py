"""Result objects returned by :class:`~repro.core.system.MarsSystem`."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..engine.cb import CBResult
from ..logical.queries import ConjunctiveQuery
from ..xbind.query import XBindQuery


@dataclass
class MarsReformulation:
    """The outcome of reformulating one XBind query.

    ``best`` is the cheapest minimal reformulation according to the
    system's :class:`~repro.cost.model.CostModel`; ``initial`` is the
    (generally redundant) reformulation obtained without backchase
    minimization; ``minimal`` lists every minimal reformulation found,
    which the paper's completeness theorem guarantees to be all of them
    for the supported fragment.

    When a reformulation was found, ``cost_estimate`` carries the
    structured estimate of the chosen plan, ``candidate_costs`` the
    ``(name, cost)`` of every ranked candidate, cheapest first, and ``sql``
    the rendered winner — all travel with the plan through the plan cache.

    ``complete`` is ``False`` when the backchase stopped at its
    ``max_inspected`` cap with subqueries left to inspect: ``minimal`` may
    then miss reformulations, and the plan is never persisted to a
    :class:`~repro.plan.PlanStore`.
    """

    query: XBindQuery
    compiled_query: ConjunctiveQuery
    universal_plan: ConjunctiveQuery
    initial: Optional[ConjunctiveQuery]
    minimal: List[ConjunctiveQuery]
    best: Optional[ConjunctiveQuery]
    best_cost: float
    sql: Optional[str]
    time_to_universal_plan: float
    time_to_initial: float
    time_to_best: float
    chase_steps: int
    subqueries_inspected: int
    cost_estimate: Optional[object] = None
    candidate_costs: Tuple[Tuple[str, float], ...] = ()
    complete: bool = True

    @property
    def found(self) -> bool:
        """Did any reformulation against the proprietary schema exist?"""
        return self.best is not None

    @property
    def minimization_time(self) -> float:
        """Extra time spent minimizing past the initial reformulation."""
        return max(0.0, self.time_to_best - self.time_to_initial)

    @classmethod
    def from_cb_result(
        cls,
        query: XBindQuery,
        compiled_query: ConjunctiveQuery,
        result: CBResult,
    ) -> "MarsReformulation":
        return cls(
            query=query,
            compiled_query=compiled_query,
            universal_plan=result.universal_plan,
            initial=result.initial_reformulation,
            minimal=list(result.minimal_reformulations),
            best=result.best,
            best_cost=result.best_cost,
            sql=None,
            time_to_universal_plan=result.time_to_universal_plan,
            time_to_initial=result.time_to_initial,
            time_to_best=result.time_to_best,
            chase_steps=getattr(result.chase_statistics, "steps_applied", 0),
            subqueries_inspected=result.subqueries_inspected,
            complete=result.complete,
        )
