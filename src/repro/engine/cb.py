"""The Chase & Backchase (C&B) engine: the complete reformulation pipeline.

This module glues together the pieces of :mod:`repro.engine` into the
algorithm of paper Figure 2: chase the (compiled) client query with all
dependencies to the universal plan, apply the XML-specific plan pruning,
then backchase to obtain the minimal reformulations and pick the cheapest
one.  The plug-in cost model is a :class:`~repro.cost.model.CostModel`
(any catalog, any parameters): this module and the backchase price with
its monotone ``lower_bound``, and :class:`~repro.core.system.MarsSystem`
re-ranks the minimal set with the same model's ``rank``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from ..cost.model import CostModel
from ..errors import ReformulationError
from ..logical.atoms import RelationalAtom
from ..logical.dependencies import DED
from ..logical.queries import ConjunctiveQuery
from ..obs.timer import timer
from .backchase import BackchaseConfig, BackchaseEngine
from .chase import ChaseConfig, ChaseResult
from .containment import ContainmentChecker
from .pruning import SubqueryLegality, prune_parallel_descendant_atoms
from .shortcut import ClosureSpec


@dataclass
class CBConfig:
    """Configuration of the full C&B pipeline."""

    chase: ChaseConfig = field(default_factory=ChaseConfig)
    backchase: BackchaseConfig = field(default_factory=BackchaseConfig)
    use_shortcut: bool = True
    use_plan_pruning: bool = True
    use_legality_pruning: bool = True
    minimize: bool = True


@dataclass
class CBResult:
    """Everything the C&B pipeline produced for one query."""

    original: ConjunctiveQuery
    universal_plan: ConjunctiveQuery
    initial_reformulation: Optional[ConjunctiveQuery]
    minimal_reformulations: List[ConjunctiveQuery]
    best: Optional[ConjunctiveQuery]
    best_cost: float
    chase_statistics: object
    subqueries_inspected: int
    time_to_universal_plan: float
    time_to_initial: float
    time_to_best: float
    pruned_descendant_atoms: int = 0
    mandatory_core: Optional[Tuple[RelationalAtom, ...]] = None
    # False when the backchase stopped at its ``max_inspected`` cap.
    complete: bool = True

    @property
    def minimization_time(self) -> float:
        """Extra time spent past the initial reformulation ("delta" in Figure 5)."""
        return max(0.0, self.time_to_best - self.time_to_initial)


class CBEngine:
    """Chase & Backchase with the XML-specific optimizations of section 3.2."""

    def __init__(
        self,
        config: Optional[CBConfig] = None,
        cost_model: Optional[CostModel] = None,
        specs: Sequence[ClosureSpec] = (),
    ):
        self.config = config or CBConfig()
        self.cost_model = cost_model or CostModel()
        self.specs = tuple(specs)
        checker_specs = self.specs if self.config.use_shortcut else ()
        self.checker = ContainmentChecker(self.config.chase, specs=checker_specs)
        self.backchase_engine = BackchaseEngine(
            checker=self.checker,
            cost_model=self.cost_model,
            config=self.config.backchase,
        )

    # ------------------------------------------------------------------
    def chase_to_universal_plan(
        self, query: ConjunctiveQuery, dependencies: Sequence[DED]
    ) -> ChaseResult:
        """Phase 1: the chase (optionally short-cutting the closure axioms).

        Runs on the checker's chase engine: one engine, and one cache of
        compiled dependencies, for the lifetime of this object.
        """
        return self.checker.engine.chase(query, dependencies)

    def reformulate(
        self,
        query: ConjunctiveQuery,
        dependencies: Sequence[DED],
        target_relations: Optional[Set[str]] = None,
    ) -> CBResult:
        """Run the full pipeline and return every (minimal) reformulation found.

        *target_relations* restricts reformulations to the proprietary
        schema; when ``None`` every relation may be used.  The patterns the
        containment checks compiled are dropped when it returns: the next
        query checks against patterns of its own.
        """
        try:
            return self._reformulate(query, dependencies, target_relations)
        finally:
            self.checker.clear_compiled_patterns()

    def _reformulate(
        self,
        query: ConjunctiveQuery,
        dependencies: Sequence[DED],
        target_relations: Optional[Set[str]],
    ) -> CBResult:
        clock = timer()
        chase_result = self.chase_to_universal_plan(query, dependencies)
        if not chase_result.branches:
            raise ReformulationError(
                f"the chase found query {query.name} unsatisfiable under the constraints"
            )
        universal_plan = chase_result.branches[0]
        pruned_count = 0
        if self.config.use_plan_pruning and self.specs:
            universal_plan, pruned_count = prune_parallel_descendant_atoms(
                universal_plan, self.specs
            )
        time_universal = clock.elapsed

        candidates = self.backchase_engine.target_atoms(universal_plan, target_relations)
        legality = SubqueryLegality(
            candidates,
            specs=self.specs,
            enabled=self.config.use_legality_pruning and bool(self.specs),
        )

        initial = self.backchase_engine.initial_reformulation(
            query, universal_plan, dependencies, target_relations
        )
        time_initial = clock.elapsed

        if not self.config.minimize:
            best_cost = self.cost_model.lower_bound(initial) if initial else math.inf
            return CBResult(
                original=query,
                universal_plan=universal_plan,
                initial_reformulation=initial,
                minimal_reformulations=[initial] if initial else [],
                best=initial,
                best_cost=best_cost,
                chase_statistics=chase_result.statistics,
                subqueries_inspected=0,
                time_to_universal_plan=time_universal,
                time_to_initial=time_initial,
                time_to_best=time_initial,
                pruned_descendant_atoms=pruned_count,
            )

        backchase_result = self.backchase_engine.backchase(
            query,
            universal_plan,
            dependencies,
            target_relations=target_relations,
            legality=legality,
            initial=initial,
        )
        time_best = clock.elapsed
        best = backchase_result.best
        best_cost = backchase_result.best_cost
        if best is None and initial is not None:
            best = initial
            best_cost = self.cost_model.lower_bound(initial)
        return CBResult(
            original=query,
            universal_plan=universal_plan,
            initial_reformulation=initial,
            minimal_reformulations=backchase_result.minimal_reformulations,
            best=best,
            best_cost=best_cost,
            chase_statistics=chase_result.statistics,
            subqueries_inspected=backchase_result.subqueries_inspected,
            time_to_universal_plan=time_universal,
            time_to_initial=time_initial,
            time_to_best=time_best,
            pruned_descendant_atoms=pruned_count,
            mandatory_core=backchase_result.mandatory_core,
            complete=backchase_result.complete,
        )
