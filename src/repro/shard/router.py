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

A decision is derived once per plan and kept: :meth:`ShardRouter.derive`
computes a query's :class:`Routes` (the mode, its shards and the
estimates that decide it), and :meth:`ShardRouter.route_plan` keeps them
on the plan's :class:`~repro.logical.queries.DerivedPlan` under the
router and the state its caller names (the sharded backend names its
statistics epoch and layout version).  Only :meth:`ShardRouter.choose`
runs per request: it picks the broadcast source shard, adds the
describe-only estimates of a profiled request and counts the outcome.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, replace
from typing import Dict, Hashable, List, Mapping, Optional, Set, Tuple

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


@dataclass(frozen=True)
class Routes:
    """One query's routing as derived for a router: all but the rotation.

    ``decisions`` holds one decision per broadcast source shard when the
    route rotates (a broadcast-only ``single``, or a ``gather`` that
    fetches a broadcast table), else the one decision.  ``describe``
    names the estimate a profiled request adds to a rule-forced decision
    (``"single"`` or ``"gather"``); cost-based decisions carry theirs.
    """

    normalized: ConjunctiveQuery
    decisions: Tuple[RoutingDecision, ...]
    describe: Optional[str] = None


class ShardRouter:
    """Prunes the shard set of queries over a fixed partitioning layout.

    *specs* is the live ``table -> PartitionSpec`` mapping owned by the
    sharded backend (tables registered after construction are seen).  A
    decision depends on the query, on that layout and shard count, on the
    attached cost model and, for broadcast sources, on a rotation counter.
    :meth:`route_plan` keeps each plan's derived :class:`Routes` under the
    key (this router, *state*): the sharded backend passes its statistics
    epoch (moved by every ``refresh_statistics``, which is what attaches a
    cost model), its ``layout_version`` (moved by every rebalance, which
    builds a new router too) and its count of partitioned tables.  The
    router is thread-safe: the rotation is an atomic counter and the
    outcome counters take an internal lock.
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
        mode is sound are unaffected.  Routes kept on plans are keyed by
        the *state* their caller passes to :meth:`route_plan`, so a caller
        keeping routes moves that state with the model (the sharded
        backend's ``refresh_statistics`` does both).
        """
        self.cost_model = cost_model

    def _partitioned_positions(self) -> Dict[str, int]:
        """``table -> partition-key position`` for the cost model's scaling."""
        return {table: spec.position for table, spec in self._specs.items()}

    # ------------------------------------------------------------------
    def route(
        self, query: ConjunctiveQuery, annotate: bool = False
    ) -> RoutingDecision:
        """The execution mode and shard set for one conjunctive query,
        derived afresh (see :meth:`route_plan` for the kept form).

        Cost estimates that *decide* (scatter vs gather on co-partitioned
        queries) are always computed; estimates that merely *describe* a
        rule-forced decision (single-shard, forced gather) are skipped on
        the serving hot path and filled in only when *annotate* is set
        (a profiled execution sets it).
        """
        return self.choose(self.derive(query.normalize_equalities()), annotate)

    def route_plan(
        self,
        plan: ConjunctiveQuery,
        annotate: bool = False,
        state: Tuple[Hashable, ...] = (),
    ) -> RoutePlan:
        """The routing decision for *plan*, wrapped as a :class:`RoutePlan`.

        The :class:`Routes` are derived once and kept on the plan's
        :class:`~repro.logical.queries.DerivedPlan` under (this router,
        *state*); a plan routed again under the same key only runs
        :meth:`choose`.
        """
        record = plan.derived()
        routes = record.derive(
            "route", (self, *state), self.derive, record.normalized
        )
        return RoutePlan(decisions=((plan, self.choose(routes, annotate)),))

    def choose(self, routes: Routes, annotate: bool = False) -> RoutingDecision:
        """The per-request part of a decision: rotate, describe, count."""
        decisions = routes.decisions
        if len(decisions) == 1:
            decision = decisions[0]
        else:
            decision = decisions[next(self._rotation) % len(decisions)]
        if annotate and routes.describe is not None and self.cost_model is not None:
            decision = replace(
                decision, estimated_cost=self._describe(routes, decision)
            )
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
    def derive(self, normalized: ConjunctiveQuery) -> Routes:
        """The :class:`Routes` of an equality-normalized query."""
        keyed: List[Tuple[PartitionSpec, Term]] = []
        for atom in normalized.relational_body:
            spec = self._specs.get(atom.relation)
            if spec is not None:
                keyed.append((spec, atom.terms[spec.position]))
        if not keyed:
            # Any shard answers: the request rotates over all of them.
            return Routes(
                normalized,
                tuple(
                    RoutingDecision(
                        mode=MODE_SINGLE,
                        shards=(shard,),
                        fetch_shards=(),
                        reason="only broadcast tables; any shard answers",
                    )
                    for shard in range(self.shard_count)
                ),
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
                decision = RoutingDecision(
                    mode=MODE_SINGLE,
                    shards=(next(iter(targets)),),
                    fetch_shards=(),
                    reason=(
                        f"partition key bound: {spec.table}.{spec.column} "
                        f"= {term.value!r}"
                    ),
                )
                return Routes(normalized, (decision,), describe=MODE_SINGLE)
            # Constants routing to different shards: each atom's rows live
            # wholly on its own shard, so no single shard sees them all.
            return self._gather_routes(
                normalized, "partition keys bound to different shards"
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
                decision = RoutingDecision(
                    mode=MODE_SCATTER,
                    shards=tuple(range(self.shard_count)),
                    fetch_shards=(),
                    reason=reason,
                )
                return Routes(normalized, (decision,))
            return self._choose_scatter_or_gather(normalized, reason)
        return self._gather_routes(
            normalized, "partitioned atoms keyed on different terms"
        )

    # -- cost comparison ------------------------------------------------
    def _describe(self, routes: Routes, decision: RoutingDecision) -> float:
        """The describe-only estimate of a rule-forced *decision*."""
        if routes.describe == MODE_SINGLE:
            estimate = self.cost_model.single_shard_estimate(
                routes.normalized, self.shard_count, self._partitioned_positions()
            )
        else:
            estimate = self.cost_model.gather_estimate(
                routes.normalized,
                decision.fetch_shards,
                self.shard_count,
                self._partitioned_positions(),
            )
        return estimate.total

    def _choose_scatter_or_gather(
        self, normalized: ConjunctiveQuery, reason: str
    ) -> Routes:
        """Both modes are sound for a co-partitioned query: price them.

        Scatter pays every broadcast scan once per shard; gather pays a
        per-row transfer of the partitioned fragments plus one coordinator
        evaluation.  The cheaper estimate wins; the loser's figure is kept
        on the decision so a profile can show why.  The partitioned
        tables come from every shard, so the gather's price does not
        depend on which shard serves the broadcast tables.
        """
        partitioned = self._partitioned_positions()
        scatter = self.cost_model.scatter_estimate(
            normalized, self.shard_count, partitioned
        ).total
        fetches = self._fetch_variants(normalized)
        gather = self.cost_model.gather_estimate(
            normalized, fetches[0], self.shard_count, partitioned
        ).total
        if gather < scatter:
            return Routes(
                normalized,
                tuple(
                    RoutingDecision(
                        mode=MODE_GATHER,
                        shards=(),
                        fetch_shards=fetch,
                        reason=f"{reason}; gather modeled cheaper than scatter",
                        estimated_cost=gather,
                        alternative_mode=MODE_SCATTER,
                        alternative_cost=scatter,
                        cost_based=True,
                    )
                    for fetch in fetches
                ),
            )
        decision = RoutingDecision(
            mode=MODE_SCATTER,
            shards=tuple(range(self.shard_count)),
            fetch_shards=(),
            reason=f"{reason}; scatter modeled cheaper than gather",
            estimated_cost=scatter,
            alternative_mode=MODE_GATHER,
            alternative_cost=gather,
            cost_based=True,
        )
        return Routes(normalized, (decision,))

    def _gather_routes(self, normalized: ConjunctiveQuery, reason: str) -> Routes:
        """Coordinator execution, fetching only the shard fragments needed."""
        return Routes(
            normalized,
            tuple(
                RoutingDecision(
                    mode=MODE_GATHER, shards=(), fetch_shards=fetch, reason=reason
                )
                for fetch in self._fetch_variants(normalized)
            ),
            describe=MODE_GATHER,
        )

    def _fetch_variants(
        self, normalized: ConjunctiveQuery
    ) -> Tuple[Tuple[Tuple[str, Tuple[int, ...]], ...], ...]:
        """A gather's ``(table, shards)`` fetch list, per broadcast source.

        Broadcast tables are complete on every shard, so one copy is
        enough — the request rotates which shard serves it (the same
        load-spreading as broadcast-only single-shard routing; always
        fetching from shard 0 would make its connection pool a gather
        hotspot).  One variant per shard when the query reads a
        broadcast table, else the one fetch list.
        """
        fetch: List[Tuple[str, Optional[Tuple[int, ...]]]] = []
        for table in sorted(normalized.relation_names()):
            spec = self._specs.get(table)
            if spec is None:
                fetch.append((table, None))
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
        if all(shards is not None for _table, shards in fetch):
            return (tuple(fetch),)
        return tuple(
            tuple(
                (table, (source,) if shards is None else shards)
                for table, shards in fetch
            )
            for source in range(self.shard_count)
        )
