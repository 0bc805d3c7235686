"""The cost model: cardinality and cost estimates for reformulation plans.

Built on a :class:`~repro.cost.statistics.StatisticsCatalog`, the
:class:`CostModel` prices a conjunctive query with the textbook System-R-style model:

* **cardinality** — the product of the relation row counts, reduced by one
  selectivity factor per constant selection (``1/distinct`` of the bound
  column) and per repeated join variable (``1/max(distinct)`` over the
  positions it joins); unknown distinct counts fall back to a default
  selectivity.
* **cost** — the weighted scan cost of every referenced relation plus the
  sum of intermediate-result cardinalities under a greedy smallest-first
  join order (a standard logical cost metric).

On top of the local estimate, the model prices the three sharded execution
modes so the :class:`~repro.shard.router.ShardRouter` can choose between
them: ``single`` (one shard's fragment plus a dispatch overhead),
``scatter`` (every shard runs the plan on its fragment), ``gather``
(fragments are shipped to the coordinator at a per-row transfer cost and
joined once).

One model answers both questions MARS asks of the cost model it plugs in
(paper Figure 2).  :meth:`CostModel.estimate` is *not* monotone (adding a
selective atom can reduce intermediate sizes by more than its scan cost):
it ranks the finished minimal reformulations in
:meth:`repro.core.system.MarsSystem.reformulate` and prices routing
decisions, where non-monotonicity is harmless.
:meth:`CostModel.lower_bound` keeps only the terms that can never shrink
— every scan, one unit per join — so it *is* monotone, never exceeds
``estimate().total``, and is what the backchase prunes with.
:meth:`CostModel.pipeline` is the same per-step arithmetic as ``estimate``
walked in body order: the numbers backends attach to profile nodes
(``est=`` in ``explain``).  The memory backend passes the body in the
order it executes, the chase's compiled join order; SQLite's stays textual.

>>> from repro.cost import CostModel, StatisticsCatalog
>>> catalog = StatisticsCatalog.from_rows({
...     "orders": [(c, i) for c in ("c1", "c2") for i in range(5)],
... })
>>> CostModel(catalog).estimate_rows("orders")
10.0
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..logical.atoms import RelationalAtom
from ..logical.queries import ConjunctiveQuery
from ..logical.terms import Variable, is_variable
from .statistics import StatisticsCatalog, TableStatistics

MODE_LOCAL = "local"
MODE_SINGLE = "single"
MODE_SCATTER = "scatter"
MODE_GATHER = "gather"


@dataclass(frozen=True)
class CostParameters:
    """Tunable constants of the cost formulas."""

    #: Selectivity assumed for a selection/join on a column whose distinct
    #: count is unknown.
    default_selectivity: float = 0.1
    #: Fixed cost of dispatching one query (or fragment fetch) to a shard.
    per_shard_overhead: float = 2.0
    #: Cost of shipping one fragment row to the coordinator in gather mode.
    fetch_cost_per_row: float = 2.0


@dataclass(frozen=True)
class CostEstimate:
    """One priced plan: result size, cost components, and their sum."""

    mode: str
    cardinality: float
    scan_cost: float
    join_cost: float
    overhead: float = 0.0
    detail: Tuple[str, ...] = ()

    @property
    def total(self) -> float:
        return self.scan_cost + self.join_cost + self.overhead

    def describe(self) -> str:
        return (
            f"{self.mode}: cost {self.total:.1f} "
            f"(scan {self.scan_cost:.1f} + join {self.join_cost:.1f}"
            f" + overhead {self.overhead:.1f}), est. {self.cardinality:.1f} rows"
        )


class CostModel:
    """Prices conjunctive-query plans from a statistics catalog."""

    def __init__(
        self,
        catalog: Optional[StatisticsCatalog] = None,
        parameters: Optional[CostParameters] = None,
    ):
        self.catalog = catalog or StatisticsCatalog()
        self.parameters = parameters or CostParameters()

    # ------------------------------------------------------------------
    # Catalog access (with optional per-relation fragment scaling)
    # ------------------------------------------------------------------
    def _table(
        self, relation: str, scale: Optional[Mapping[str, float]]
    ) -> Optional[TableStatistics]:
        statistics = self.catalog.table(relation)
        if statistics is None or not scale:
            return statistics
        factor = scale.get(relation)
        if factor is None or factor >= 1.0:
            return statistics
        return statistics.scaled(factor)

    def estimate_rows(
        self, relation: str, scale: Optional[Mapping[str, float]] = None
    ) -> float:
        statistics = self._table(relation, scale)
        if statistics is None:
            return self.catalog.default_row_count
        return statistics.row_count

    def _distinct(
        self, relation: str, position: int, scale: Optional[Mapping[str, float]]
    ) -> Optional[float]:
        statistics = self._table(relation, scale)
        if statistics is None:
            return None
        return statistics.distinct(position)

    # ------------------------------------------------------------------
    # Selectivities
    # ------------------------------------------------------------------
    def _selection_factor(
        self, atom: RelationalAtom, scale: Optional[Mapping[str, float]]
    ) -> float:
        """Combined selectivity of the constants bound in *atom*."""
        factor = 1.0
        for position, term in enumerate(atom.terms):
            if is_variable(term):
                continue
            distinct = self._distinct(atom.relation, position, scale)
            factor *= (
                1.0 / distinct
                if distinct
                else self.parameters.default_selectivity
            )
        return factor

    def _variable_selectivities(
        self,
        atoms: Sequence[RelationalAtom],
        scale: Optional[Mapping[str, float]],
    ) -> Dict[Variable, float]:
        """Per join variable: ``1/max(distinct)`` over the positions it joins."""
        positions: Dict[Variable, List[Tuple[str, int]]] = {}
        for atom in atoms:
            for position, term in enumerate(atom.terms):
                if is_variable(term):
                    positions.setdefault(term, []).append((atom.relation, position))
        selectivities: Dict[Variable, float] = {}
        for variable, occurrences in positions.items():
            if len(occurrences) < 2:
                continue
            known = [
                self._distinct(relation, position, scale)
                for relation, position in occurrences
            ]
            known = [value for value in known if value]
            selectivities[variable] = (
                1.0 / max(known) if known else self.parameters.default_selectivity
            )
        return selectivities

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def cardinality(
        self, query: ConjunctiveQuery, scale: Optional[Mapping[str, float]] = None
    ) -> float:
        """Estimated result rows of *query* (before projection/dedup)."""
        return self.estimate(query, scale=scale).cardinality

    def estimate(
        self, query: ConjunctiveQuery, scale: Optional[Mapping[str, float]] = None
    ) -> CostEstimate:
        """Price *query* as a local (coordinator/unsharded) execution.

        *scale* maps relation names to a fragment fraction in ``(0, 1]``;
        the routing estimates use it to reason about per-shard fragments.
        """
        atoms, effective, selectivities = self._step_inputs(query, scale)
        if not atoms:
            return CostEstimate(
                mode=MODE_LOCAL, cardinality=1.0, scan_cost=0.0, join_cost=0.0
            )
        scan_cost = sum(
            self.estimate_rows(atom.relation, scale)
            * self.catalog.weight(atom.relation)
            for atom in atoms
        )
        join_cost, cardinality, order = self._greedy_plan(
            atoms, effective, selectivities
        )
        detail = tuple(
            f"{step + 1}. {atoms[index].relation}" for step, index in enumerate(order)
        )
        return CostEstimate(
            mode=MODE_LOCAL,
            cardinality=cardinality,
            scan_cost=scan_cost,
            join_cost=join_cost,
            detail=detail,
        )

    def lower_bound(self, query: ConjunctiveQuery) -> float:
        """A monotone bound on the cost of *query*: scans plus a unit per join.

        Adding an atom adds its (non-negative) scan cost and one join, so
        the bound never drops — the property that makes pruning the
        backchase by cost sound (paper sections 1 and 2.3).  It shares
        its scan term with :meth:`estimate`, whose every join step costs
        at least one row, hence ``lower_bound(q) <= estimate(q).total``.
        """
        atoms = query.relational_body
        if not atoms:
            return 0.0
        scan_cost = sum(self.catalog.scan_cost(atom.relation) for atom in atoms)
        return scan_cost + (len(atoms) - 1)

    def pipeline(self, query: ConjunctiveQuery) -> Tuple[float, ...]:
        """Estimated running cardinality after each atom, in body order.

        The per-step function is the one :meth:`estimate`'s greedy order
        search uses, so when the body order *is* the greedy order the
        last entry equals ``estimate(query).cardinality``.  The memory
        evaluator asks with its body in the executed (compiled join) order,
        SQLite in textual order.
        """
        atoms, effective, selectivities = self._step_inputs(query, None)
        if not atoms:
            return ()
        bound = set(
            term for term in atoms[0].variables() if term in selectivities
        )
        steps = [effective[0]]
        for atom, rows in zip(atoms[1:], effective[1:]):
            value, newly = self._join_step(
                steps[-1], atom, rows, bound, selectivities
            )
            steps.append(value)
            bound.update(newly)
        return tuple(steps)

    def _step_inputs(
        self, query: ConjunctiveQuery, scale: Optional[Mapping[str, float]]
    ) -> Tuple[Sequence[RelationalAtom], List[float], Dict[Variable, float]]:
        """Atoms, their post-selection row counts, and the join selectivities."""
        atoms = query.normalize_equalities().relational_body
        effective = [
            max(
                1.0,
                self.estimate_rows(atom.relation, scale)
                * self._selection_factor(atom, scale),
            )
            for atom in atoms
        ]
        return atoms, effective, self._variable_selectivities(atoms, scale)

    @staticmethod
    def _join_step(
        cardinality: float,
        atom: RelationalAtom,
        rows: float,
        bound: Set[Variable],
        selectivities: Mapping[Variable, float],
    ) -> Tuple[float, List[Variable]]:
        """Join *atom* (*rows* after selection) onto *cardinality* bindings.

        One selectivity factor per occurrence of an already-bound join
        variable; returns the new cardinality and the variables it binds.
        """
        step = cardinality * rows
        newly: List[Variable] = []
        local_bound = set(bound)
        for term in atom.terms:
            if not is_variable(term) or term not in selectivities:
                continue
            if term in local_bound:
                step *= selectivities[term]
            else:
                local_bound.add(term)
                newly.append(term)
        return max(1.0, step), newly

    def _greedy_plan(
        self,
        atoms: Sequence[RelationalAtom],
        effective: Sequence[float],
        selectivities: Mapping[Variable, float],
    ) -> Tuple[float, float, Tuple[int, ...]]:
        """Smallest-first greedy join order; returns (cost, cardinality, order).

        Cost is the sum of intermediate-result sizes after each join step.
        The per-step reduction applies one selectivity factor per repeated
        variable occurrence, so the final cardinality equals the
        order-independent product formula.
        """
        remaining = list(range(len(atoms)))
        remaining.sort(key=lambda index: (effective[index], index))
        first = remaining.pop(0)
        order = [first]
        bound = set(
            term for term in atoms[first].variables() if term in selectivities
        )
        cardinality = effective[first]
        join_cost = 0.0
        while remaining:
            best_position, best_value, best_newly = 0, None, []
            for position, index in enumerate(remaining):
                value, newly = self._join_step(
                    cardinality, atoms[index], effective[index], bound, selectivities
                )
                if best_value is None or value < best_value:
                    best_position, best_value, best_newly = position, value, newly
            order.append(remaining.pop(best_position))
            cardinality = best_value
            join_cost += best_value
            bound.update(best_newly)
        return join_cost, cardinality, tuple(order)

    # ------------------------------------------------------------------
    # Routing estimates (used by the shard router)
    # ------------------------------------------------------------------
    def single_shard_estimate(
        self,
        query: ConjunctiveQuery,
        shard_count: int,
        partitioned: Mapping[str, int],
    ) -> CostEstimate:
        """One shard runs the plan over its 1/N fragments of partitioned tables."""
        scale = {relation: 1.0 / shard_count for relation in partitioned}
        local = self.estimate(query, scale=scale)
        return CostEstimate(
            mode=MODE_SINGLE,
            cardinality=local.cardinality,
            scan_cost=local.scan_cost,
            join_cost=local.join_cost,
            overhead=self.parameters.per_shard_overhead,
        )

    def scatter_estimate(
        self,
        query: ConjunctiveQuery,
        shard_count: int,
        partitioned: Mapping[str, int],
    ) -> CostEstimate:
        """Every shard runs the plan on its fragment; answers are merged.

        Broadcast tables are complete on each shard, so their scan cost is
        paid once *per shard* — the term that makes scattering a big
        broadcast join more expensive than gathering it.
        """
        scale = {relation: 1.0 / shard_count for relation in partitioned}
        per_shard = self.estimate(query, scale=scale)
        return CostEstimate(
            mode=MODE_SCATTER,
            cardinality=per_shard.cardinality * shard_count,
            scan_cost=per_shard.scan_cost * shard_count,
            join_cost=per_shard.join_cost * shard_count,
            overhead=self.parameters.per_shard_overhead * shard_count,
        )

    def gather_estimate(
        self,
        query: ConjunctiveQuery,
        fetch_shards: Sequence[Tuple[str, Tuple[int, ...]]],
        shard_count: int,
        partitioned: Mapping[str, int],
    ) -> CostEstimate:
        """Ship the (pruned) fragments to the coordinator and join once."""
        fetch_rows = 0.0
        touched = set()
        scale: Dict[str, float] = {}
        for table, shards in fetch_shards:
            touched.update(shards)
            if table in partitioned:
                fraction = len(shards) / float(shard_count)
                scale[table] = fraction
                fetch_rows += self.estimate_rows(table) * fraction
            else:
                fetch_rows += self.estimate_rows(table)
        local = self.estimate(query, scale=scale)
        overhead = (
            fetch_rows * self.parameters.fetch_cost_per_row
            + self.parameters.per_shard_overhead * max(1, len(touched))
        )
        return CostEstimate(
            mode=MODE_GATHER,
            cardinality=local.cardinality,
            scan_cost=local.scan_cost,
            join_cost=local.join_cost,
            overhead=overhead,
        )

    # ------------------------------------------------------------------
    def rank(
        self, queries: Sequence[ConjunctiveQuery]
    ) -> List[Tuple[CostEstimate, ConjunctiveQuery]]:
        """Price *queries* and return them cheapest first (stable on ties)."""
        scored = [(self.estimate(query), query) for query in queries]
        scored.sort(key=lambda pair: pair[0].total)
        return scored
