"""Shard routing: decide which shards a reformulation must touch.

Every horizontal-partitioning system needs an argument for why executing a
query per shard and merging is *correct*; the router encodes that argument
as three execution modes, picked per conjunctive query:

``single``
    The whole query runs on one shard.  Sound in two cases: (a) the query
    mentions only broadcast tables, which are complete on every shard (any
    shard answers; the router round-robins to spread load); (b) every
    partitioned atom binds its partition key to a constant and all those
    constants route to the same shard — rows matching the atoms exist
    nowhere else, so no other shard can contribute.  Case (b) is the
    *shard-pruning fast path*: no fan-out, one engine round trip.

``scatter``
    The query runs unchanged on every shard and the per-shard answers are
    merged (concatenation under bag semantics, de-duplication under set
    semantics).  Sound when all partitioned atoms carry the *same term* at
    their key position with mutually compatible partitioners: any
    satisfying assignment gives that term one value, all matching
    partitioned rows live on that value's shard, and broadcast tables are
    complete everywhere — so each answer is produced by exactly one shard
    (co-partitioned join).  A single partitioned atom is the degenerate
    co-partitioned case.

``gather``
    The fallback for arbitrary cross-shard joins (partitioned atoms keyed
    on different terms): shard fragments of the referenced tables are
    pulled to a coordinator-local scratch store and the query is evaluated
    there.  Always correct; the router still prunes the *fetch* — an atom
    that binds its key to a constant only needs that constant's shard, and
    broadcast tables are fetched from a single shard.

Where exactly one mode is sound the rules above are the whole story.  But
a co-partitioned query could also be *gathered* (gather is always
correct), and scattering it is not always cheaper: scatter pays every
broadcast table's scan once per shard, gather ships the partitioned
fragments once and scans each broadcast table once.  With a
:class:`~repro.cost.model.CostModel` attached (see
``ShardedBackend.refresh_statistics``) the router prices both modes from
collected statistics and picks the cheaper one, recording the chosen and
rejected estimates on the :class:`RoutingDecision` (carried onto its
node in a profiled run, which is what ``explain`` renders, and counted
in :class:`RouterStats`).  Without a model the fixed rules apply
unchanged.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Set, Tuple

from ..logical.queries import ConjunctiveQuery
from ..logical.terms import Constant, Term
from ..storage.routing import (
    MODE_GATHER, MODE_SCATTER, MODE_SINGLE, RoutePlan, RoutingDecision,
)
from .partitioner import PartitionSpec


@dataclass(frozen=True)
class RouterStats:
    """Counters of routing outcomes since the router was created."""

    queries: int
    single_shard: int
    scatter: int
    gather: int
    #: Decisions where two modes were sound and a cost comparison chose
    #: (0 while no cost model is attached).
    cost_based: int = 0
    #: Cost-based decisions that overturned the rule-based default
    #: (gather chosen where the fixed rules would scatter).
    cost_overrides: int = 0


class ShardRouter:
    """Prunes the shard set of queries over a fixed partitioning layout.

    *specs* is the live ``table -> PartitionSpec`` mapping owned by the
    sharded backend (tables registered after construction are seen).  The
    router is thread-safe: decisions are pure functions of the query and
    the layout, and the outcome counters take an internal lock.
    """

    def __init__(
        self,
        specs: Mapping[str, PartitionSpec],
        shard_count: int,
        cost_model: Optional[object] = None,
    ):
        self._specs = specs
        self.shard_count = shard_count
        self.cost_model = cost_model
        self._lock = threading.Lock()
        self._rotation = itertools.count()
        self._queries = 0
        self._single = 0
        self._scatter = 0
        self._gather = 0
        self._cost_based = 0
        self._cost_overrides = 0

    def set_cost_model(self, cost_model: Optional[object]) -> None:
        """Attach (or detach, with ``None``) the routing cost model.

        The model prices the modes of one query
        (``scatter_estimate``/``gather_estimate``/``single_shard_estimate``
        of :class:`~repro.cost.model.CostModel`); decisions where only one
        mode is sound are unaffected.
        """
        self.cost_model = cost_model

    def _partitioned_positions(self) -> Dict[str, int]:
        """``table -> partition-key position`` for the cost model's scaling."""
        return {table: spec.position for table, spec in self._specs.items()}

    # ------------------------------------------------------------------
    def route(
        self, query: ConjunctiveQuery, annotate: bool = False
    ) -> RoutingDecision:
        """The execution mode and shard set for one conjunctive query.

        Cost estimates that *decide* (scatter vs gather on co-partitioned
        queries) are always computed; estimates that merely *describe* a
        rule-forced decision (single-shard, forced gather) are skipped on
        the serving hot path and filled in only when *annotate* is set
        (a profiled execution sets it).
        """
        decision = self._decide(query, annotate)
        with self._lock:
            self._queries += 1
            if decision.mode == MODE_SINGLE:
                self._single += 1
            elif decision.mode == MODE_SCATTER:
                self._scatter += 1
            else:
                self._gather += 1
            if decision.cost_based:
                self._cost_based += 1
                if decision.mode == MODE_GATHER:
                    self._cost_overrides += 1
        return decision

    def route_plan(
        self, plan: ConjunctiveQuery, annotate: bool = False
    ) -> RoutePlan:
        """The routing decision for *plan*, wrapped as a :class:`RoutePlan`."""
        return RoutePlan(decisions=((plan, self.route(plan, annotate)),))

    def stats(self) -> RouterStats:
        with self._lock:
            return RouterStats(
                queries=self._queries,
                single_shard=self._single,
                scatter=self._scatter,
                gather=self._gather,
                cost_based=self._cost_based,
                cost_overrides=self._cost_overrides,
            )

    # ------------------------------------------------------------------
    def _decide(
        self, query: ConjunctiveQuery, annotate: bool = False
    ) -> RoutingDecision:
        normalized = query.normalize_equalities()
        keyed: List[Tuple[PartitionSpec, Term]] = []
        for atom in normalized.relational_body:
            spec = self._specs.get(atom.relation)
            if spec is not None:
                keyed.append((spec, atom.terms[spec.position]))
        if not keyed:
            shard = next(self._rotation) % self.shard_count
            return RoutingDecision(
                mode=MODE_SINGLE,
                shards=(shard,),
                fetch_shards=(),
                reason="only broadcast tables; any shard answers",
            )
        if all(isinstance(term, Constant) for _spec, term in keyed):
            targets = {
                spec.partitioner.shard_of(term.value, self.shard_count)
                for spec, term in keyed
            }
            if len(targets) == 1:
                spec, term = keyed[0]
                # Single-shard pruning dominates every alternative (same
                # plan, one engine, no fan-out), so it is never put up for
                # a cost comparison — only annotated with its estimate,
                # and only when the caller asked for annotations.
                return RoutingDecision(
                    mode=MODE_SINGLE,
                    shards=(next(iter(targets)),),
                    fetch_shards=(),
                    reason=(
                        f"partition key bound: {spec.table}.{spec.column} "
                        f"= {term.value!r}"
                    ),
                    estimated_cost=self._single_cost(normalized) if annotate else None,
                )
            # Constants routing to different shards: each atom's rows live
            # wholly on its own shard, so no single shard sees them all.
            return self._gather_decision(
                normalized, "partition keys bound to different shards", annotate
            )
        key_terms = {term for _spec, term in keyed}
        partitioners = [spec.partitioner for spec, _term in keyed]
        co_partitioned = len(key_terms) == 1 and all(
            partitioner.compatible_with(partitioners[0])
            for partitioner in partitioners[1:]
        )
        if co_partitioned:
            term = next(iter(key_terms))
            reason = (
                f"co-partitioned on {term}"
                if len(keyed) > 1
                else "one partitioned table, key unbound"
            )
            if self.cost_model is None:
                return RoutingDecision(
                    mode=MODE_SCATTER,
                    shards=tuple(range(self.shard_count)),
                    fetch_shards=(),
                    reason=reason,
                )
            return self._choose_scatter_or_gather(normalized, reason)
        return self._gather_decision(
            normalized, "partitioned atoms keyed on different terms", annotate
        )

    # -- cost comparison ------------------------------------------------
    def _single_cost(self, normalized: ConjunctiveQuery) -> Optional[float]:
        if self.cost_model is None:
            return None
        estimate = self.cost_model.single_shard_estimate(
            normalized, self.shard_count, self._partitioned_positions()
        )
        return estimate.total

    def _choose_scatter_or_gather(
        self, normalized: ConjunctiveQuery, reason: str
    ) -> RoutingDecision:
        """Both modes are sound for a co-partitioned query: price them.

        Scatter pays every broadcast scan once per shard; gather pays a
        per-row transfer of the partitioned fragments plus one coordinator
        evaluation.  The cheaper estimate wins; the loser's figure is kept
        on the decision so a profile can show why.
        """
        partitioned = self._partitioned_positions()
        scatter = self.cost_model.scatter_estimate(
            normalized, self.shard_count, partitioned
        )
        # The gather estimate decides here, so it is always computed.
        gather_plan = self._gather_decision(normalized, reason, annotate=True)
        gather_total = gather_plan.estimated_cost
        if gather_total is not None and gather_total < scatter.total:
            return RoutingDecision(
                mode=MODE_GATHER,
                shards=(),
                fetch_shards=gather_plan.fetch_shards,
                reason=f"{reason}; gather modeled cheaper than scatter",
                estimated_cost=gather_total,
                alternative_mode=MODE_SCATTER,
                alternative_cost=scatter.total,
                cost_based=True,
            )
        return RoutingDecision(
            mode=MODE_SCATTER,
            shards=tuple(range(self.shard_count)),
            fetch_shards=(),
            reason=f"{reason}; scatter modeled cheaper than gather",
            estimated_cost=scatter.total,
            alternative_mode=MODE_GATHER,
            alternative_cost=gather_total,
            cost_based=True,
        )

    def _gather_decision(
        self, normalized: ConjunctiveQuery, reason: str, annotate: bool = False
    ) -> RoutingDecision:
        """Coordinator execution, fetching only the shard fragments needed."""
        # Broadcast tables are complete on every shard, so one copy is
        # enough — rotate which shard serves it (the same load-spreading
        # as broadcast-only single-shard routing; always fetching from
        # shard 0 would make its connection pool a gather hotspot).
        broadcast_shard = next(self._rotation) % self.shard_count
        fetch: List[Tuple[str, Tuple[int, ...]]] = []
        for table in sorted(normalized.relation_names()):
            spec = self._specs.get(table)
            if spec is None:
                fetch.append((table, (broadcast_shard,)))
                continue
            shard_sets: List[Optional[Set[int]]] = []
            for atom in normalized.relational_body:
                if atom.relation != table:
                    continue
                term = atom.terms[spec.position]
                if isinstance(term, Constant):
                    shard_sets.append(
                        {spec.partitioner.shard_of(term.value, self.shard_count)}
                    )
                else:
                    shard_sets.append(None)
            if any(shard_set is None for shard_set in shard_sets):
                shards: Tuple[int, ...] = tuple(range(self.shard_count))
            else:
                union: Set[int] = set()
                for shard_set in shard_sets:
                    union.update(shard_set or ())
                shards = tuple(sorted(union))
            fetch.append((table, shards))
        estimated_cost = None
        if annotate and self.cost_model is not None:
            estimated_cost = self.cost_model.gather_estimate(
                normalized,
                tuple(fetch),
                self.shard_count,
                self._partitioned_positions(),
            ).total
        return RoutingDecision(
            mode=MODE_GATHER,
            shards=(),
            fetch_shards=tuple(fetch),
            reason=reason,
            estimated_cost=estimated_cost,
        )
