"""The sharded storage backend: N child engines behind one ``StorageBackend``.

Horizontal partitioning for the MARS proprietary store.  A
:class:`ShardedBackend` owns ``shards`` child backends — any registered
engine per shard, so a deployment can mix ``memory`` and ``sqlite``
children in one sharded store, honouring the paper's mixed-storage theme —
and splits each table's rows across them:

* tables named in *partition_keys* are split by a
  :class:`~repro.shard.partitioner.Partitioner` (hash by default, range on
  request) on the chosen column;
* every other table is **broadcast**: replicated in full on each shard
  (dimension tables, GReX encodings of stored XML documents).

Queries go through the :class:`~repro.shard.router.ShardRouter`: a query
that binds a partition key to a constant executes on exactly one shard (no
fan-out), co-partitioned joins scatter across all shards and merge under
set/bag semantics (:func:`merge_rows`), and arbitrary cross-shard joins
fall back to fetching pruned fragments into a coordinator-local scratch
store; the gathered tables and their hash indexes are kept until the next
write, so a repeated gather over unchanged data only probes.  A scatter
runs its shards in turn on the calling thread: SQLite children step one
statement at a time per process and ``memory`` children are pure Python
under the GIL, so threads would add a hop and no overlap.

Select it like any other engine: ``create_backend("sharded", shards=4,
children=("memory", "sqlite", "sqlite", "memory"), partition_keys={...})``,
or set ``MarsConfiguration.backend = "sharded"`` (shard count defaults to
the ``MARS_SHARDS`` environment variable) and declare partition keys with
``configuration.set_partition_key(table, column)``.
"""

from __future__ import annotations

import functools
import os
import threading
from collections import Counter
from dataclasses import dataclass
from typing import (
    Dict, Hashable, List, Mapping, NamedTuple, Optional, Sequence,
    Tuple, Union,
)

from ..errors import EvaluationError, SchemaError, StorageError
from ..logical.queries import ConjunctiveQuery
from ..obs.trace import current_span
from ..profile import MERGE, SHARD_FRAGMENT
from ..storage.backends.base import Row, StorageBackend, create_portable_backend
from ..storage.backends.memory import MemoryBackend
from ..storage.relational_db import IndexedTable
from .partitioner import HashPartitioner, Partitioner, PartitionSpec
from .router import (
    MODE_GATHER,
    RoutePlan,
    RouterStats,
    ShardRouter,
)

DEFAULT_SHARD_COUNT = 2

ChildSpec = Union[str, type, StorageBackend]


def merge_rows(
    per_shard: Sequence[Tuple[int, List[tuple]]], distinct: bool
) -> List[tuple]:
    """Combine per-shard answers under set (*distinct*) or bag semantics.

    Partitioned fragments are disjoint, so bag semantics is plain
    concatenation in shard order; set semantics de-duplicates across shards
    (each shard already de-duplicated its own answer).
    """
    if not distinct:
        combined: List[tuple] = []
        for _shard, rows in per_shard:
            combined.extend(rows)
        return combined
    seen: set = set()
    merged: List[tuple] = []
    for _shard, rows in per_shard:
        for row in rows:
            if row not in seen:
                seen.add(row)
                merged.append(row)
    return merged


class _Gathered(NamedTuple):
    """A table a gather fetched, kept for the next gather of it.

    *key* names the data it holds (see :meth:`ShardedBackend._gather`);
    *fragment_rows* is the row count each fetched fragment added, in
    fetch order.
    """

    key: Tuple[Hashable, ...]
    table: IndexedTable
    fragment_rows: List[int]


def _write(method):
    """Mark a :class:`ShardedBackend` method as a write: tables gathered
    before it no longer match the data, so their cache key moves on."""

    @functools.wraps(method)
    def write(self, *args, **kwargs):
        try:
            return method(self, *args, **kwargs)
        finally:
            self._count_write()

    return write


def default_shard_count() -> int:
    """Shard count used when none is specified: ``MARS_SHARDS`` or 2."""
    raw = os.environ.get("MARS_SHARDS", "").strip()
    if not raw:
        return DEFAULT_SHARD_COUNT
    try:
        count = int(raw)
    except ValueError as error:
        raise StorageError(f"MARS_SHARDS must be an integer, got {raw!r}") from error
    if count < 1:
        raise StorageError(f"MARS_SHARDS must be >= 1, got {count}")
    return count


@dataclass(frozen=True)
class ShardStats:
    """Per-shard execution counters plus the router's routing outcomes."""

    shard_count: int
    #: Full-query executions per shard (single-shard and scatter modes).
    executions_per_shard: Tuple[int, ...]
    #: Fragment fetches per shard performed by gather-mode execution (a
    #: gather that reuses a kept table fetches nothing).
    gather_fetches_per_shard: Tuple[int, ...]
    router: RouterStats


class ShardedBackend(StorageBackend):
    """A :class:`StorageBackend` that partitions tables over child backends."""

    backend_name = "sharded"

    def __init__(
        self,
        shards: Optional[int] = None,
        children: Union[None, ChildSpec, Sequence[ChildSpec]] = None,
        partition_keys: Optional[Mapping[str, Union[str, int]]] = None,
        partitioners: Optional[Mapping[str, Partitioner]] = None,
    ):
        specs = self._resolve_child_specs(shards, children)
        self.shard_count = len(specs)
        self._children: List[StorageBackend] = []
        try:
            for spec in specs:
                self._children.append(self._create_child(spec))
        except Exception:
            for child in self._children:
                if not child.closed:
                    child.close()
            raise
        self._partition_keys: Dict[str, Union[str, int]] = dict(partition_keys or {})
        self._partitioners: Dict[str, Partitioner] = dict(partitioners or {})
        self._arities: Dict[str, int] = {}
        self._attributes: Dict[str, Tuple[str, ...]] = {}
        self._specs: Dict[str, PartitionSpec] = {}
        self.router = ShardRouter(self._specs, self.shard_count)
        self._stats_lock = threading.Lock()
        self._executions = [0] * self.shard_count
        self._gather_fetches = [0] * self.shard_count
        #: Bumped by every :meth:`adopt_layout` (online rebalance cutover);
        #: consumers holding per-layout state (per-shard pools, cached
        #: statistics) key on it to notice a swap.
        self.layout_version = 0
        #: Writes to the children: this backend's own write methods, each
        #: layout swap, and each :meth:`units_written` call.
        self._writes = 0
        #: The latest table each gather fetched, by table name.
        self._gathered: Dict[str, _Gathered] = {}
        self._closed = False

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _resolve_child_specs(
        shards: Optional[int],
        children: Union[None, ChildSpec, Sequence[ChildSpec]],
    ) -> List[ChildSpec]:
        if children is None or isinstance(children, (str, type, StorageBackend)):
            count = shards if shards is not None else default_shard_count()
            if count < 1:
                raise StorageError(f"sharded backend needs shards >= 1, got {count}")
            return [children if children is not None else "memory"] * count
        specs = list(children)
        if not specs:
            raise StorageError("sharded backend needs at least one child")
        if shards is not None and shards != len(specs):
            raise StorageError(
                f"shards={shards} does not match the {len(specs)} child "
                "backend specifications"
            )
        return specs

    @staticmethod
    def _create_child(spec: ChildSpec) -> StorageBackend:
        if spec == "sharded" or (
            isinstance(spec, type) and issubclass(spec, ShardedBackend)
        ):
            raise StorageError("sharded backends cannot nest sharded children")
        if isinstance(spec, StorageBackend):
            return spec
        return create_portable_backend(spec)

    @property
    def children(self) -> Tuple[StorageBackend, ...]:
        """The child backends, in shard order (shard ``i`` is ``children[i]``)."""
        return tuple(self._children)

    def partition_spec(self, table: str) -> Optional[PartitionSpec]:
        """The partitioning of *table*, or ``None`` when it is broadcast."""
        return self._specs.get(table)

    def _count_write(self) -> None:
        """Move the gather cache's key on (see :meth:`_gather`)."""
        with self._stats_lock:
            self._writes += 1

    def _require_open(self) -> None:
        if self._closed:
            raise StorageError(
                "ShardedBackend has been closed; create a new backend instead"
            )

    # ------------------------------------------------------------------
    # Schema and data loading
    # ------------------------------------------------------------------
    def create_table(
        self, name: str, arity: int, attributes: Optional[Sequence[str]] = None
    ) -> None:
        self._require_open()
        if name in self._arities:
            raise SchemaError(f"table {name} already exists")
        if attributes is not None and len(attributes) != arity:
            raise SchemaError(f"table {name}: attribute count does not match arity")
        columns = (
            tuple(attributes) if attributes else tuple(f"c{i}" for i in range(arity))
        )
        for child in self._children:
            child.create_table(name, arity, columns)
        self._arities[name] = arity
        self._attributes[name] = columns
        key = self._partition_keys.get(name)
        if key is not None:
            self._specs[name] = self._build_spec(name, key, columns)

    def _build_spec(
        self, name: str, key: Union[str, int], columns: Tuple[str, ...]
    ) -> PartitionSpec:
        if isinstance(key, int):
            if not 0 <= key < len(columns):
                raise SchemaError(
                    f"table {name}: partition-key position {key} is out of "
                    f"range for arity {len(columns)}"
                )
            position = key
        else:
            try:
                position = columns.index(key)
            except ValueError as error:
                raise SchemaError(
                    f"table {name}: partition-key column {key!r} is not one "
                    f"of {columns}"
                ) from error
        partitioner = self._partitioners.get(name, HashPartitioner())
        return PartitionSpec(
            table=name,
            column=columns[position],
            position=position,
            partitioner=partitioner,
        )

    def has_table(self, name: str) -> bool:
        return name in self._arities

    @_write
    def clear_table(self, name: str) -> None:
        self._require_table(name)
        for child in self._children:
            child.clear_table(name)

    # ------------------------------------------------------------------
    # Write path (change sets)
    # ------------------------------------------------------------------
    def route_changeset(self, changeset: "ChangeSet") -> Dict[int, "ChangeSet"]:
        """Split *changeset* into the per-shard change sets to apply.

        A malformed change set raises here, before any piece exists
        (:meth:`ChangeSet.check`).  Rows of partitioned tables go to the
        shard their partitioner names; a change to a broadcast table
        appears whole in **every** shard's change set (so a broadcast
        write is one ``apply`` per shard, not one per row).  Shards
        untouched by the change set are absent from the result.  A caller
        that applies the pieces to the children itself calls
        :meth:`units_written` after.
        """
        # Imported here: repro.replica imports this module (the rebalancer).
        from ..replica.changeset import ChangeSet, TableChange

        changeset.check(self._require_table)
        per_shard: Dict[int, List[TableChange]] = {}
        for change in changeset.changes:
            spec = self._specs.get(change.relation)
            if spec is None:
                for shard in range(self.shard_count):
                    per_shard.setdefault(shard, []).append(change)
                continue
            buckets: Dict[int, Tuple[List[Row], List[Row]]] = {}
            for side, rows in enumerate((change.inserts, change.deletes)):
                for row in rows:
                    shard = spec.partitioner.shard_of(
                        row[spec.position], self.shard_count
                    )
                    buckets.setdefault(shard, ([], []))[side].append(row)
            for shard, (inserts, deletes) in buckets.items():
                per_shard.setdefault(shard, []).append(
                    TableChange(change.relation, tuple(inserts), tuple(deletes))
                )
        return {
            shard: ChangeSet(tuple(changes)) for shard, changes in per_shard.items()
        }

    @_write
    def apply(self, changeset: "ChangeSet") -> "Counter[str]":
        """Apply a change set by routing it to the owning shards.

        The rows removed are summed over the shards of a partitioned
        table; a broadcast table's copies delete in lockstep, so its count
        is one copy's.
        """
        removed: Counter[str] = Counter()
        for shard, piece in sorted(self.route_changeset(changeset).items()):
            for relation, count in self._children[shard].apply(piece).items():
                if relation in self._specs:
                    removed[relation] += count
                else:
                    removed[relation] = max(removed[relation], count)
        return removed

    @_write
    def units_written(self) -> None:
        """Count a write the caller made to the children directly."""

    def _require_table(self, name: str) -> int:
        self._require_open()
        try:
            return self._arities[name]
        except KeyError as error:
            raise EvaluationError(f"unknown table {name!r}") from error

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def table_names(self) -> Tuple[str, ...]:
        return tuple(self._arities)

    def rows(self, name: str) -> Sequence[Row]:
        self._require_table(name)
        if name not in self._specs:
            return self._children[0].rows(name)
        combined: List[Row] = []
        for child in self._children:
            combined.extend(tuple(row) for row in child.rows(name))
        return tuple(combined)

    def cardinalities(self) -> Dict[str, int]:
        self._require_open()
        return {name: self.cardinality(name) for name in self._arities}

    def cardinality(self, name: str) -> int:
        self._require_open()
        if name not in self._arities:
            return 0
        if name not in self._specs:
            return self._children[0].cardinality(name)
        return sum(child.cardinality(name) for child in self._children)

    def fragment_cardinalities(self, name: str) -> Tuple[int, ...]:
        """Row counts of *name* per shard (broadcast tables repeat the count)."""
        self._require_table(name)
        return tuple(child.cardinality(name) for child in self._children)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def collect_statistics(self) -> "StatisticsCatalog":
        """Merge the children's catalogs into one sharded-store catalog.

        Partitioned tables sum their fragments: row counts add up, and so
        do the distinct counts of the partition-key column (a key value
        lives on exactly one shard); other columns' distinct counts overlap
        across shards, so the merge takes the maximum (a lower bound) and
        caps it at the merged row count.  Broadcast tables are complete on
        every shard — one child's statistics describe them.  Every entry
        records its per-shard ``fragment_rows``.  Each child keeps the
        catalog it measured: it prices its own profile nodes from it
        (``estimate_pipeline``).
        """
        from ..cost.statistics import StatisticsCatalog, TableStatistics

        self._require_open()
        child_catalogs = [child.refresh_statistics() for child in self._children]
        catalog = StatisticsCatalog()
        for name, arity in self._arities.items():
            fragments = tuple(
                float(child.row_count(name)) if name in child else 0.0
                for child in child_catalogs
            )
            spec = self._specs.get(name)
            if spec is None:
                base = child_catalogs[0].table(name)
                row_count = base.row_count if base is not None else 0.0
                distinct = base.distinct_counts if base is not None else ()
            else:
                row_count = sum(fragments)
                distinct = []
                for position in range(arity):
                    known = [
                        child.distinct(name, position)
                        for child in child_catalogs
                        if child.distinct(name, position) is not None
                    ]
                    if not known:
                        distinct.append(0.0)
                    elif position == spec.position:
                        distinct.append(min(row_count, sum(known)))
                    else:
                        distinct.append(min(row_count, max(known)))
                distinct = tuple(distinct)
            catalog.add(
                TableStatistics(
                    name=name,
                    row_count=row_count,
                    distinct_counts=tuple(distinct),
                    fragment_rows=fragments,
                )
            )
        return catalog

    def refresh_statistics(
        self, access_weights: Optional[Mapping[str, float]] = None
    ) -> "StatisticsCatalog":
        """Re-collect statistics and hand the router a fresh cost model.

        Until this is called the router decides by its sound fixed rules;
        afterwards it compares modeled costs for the decisions where more
        than one mode is sound (scatter vs gather on co-partitioned
        queries).  Call it again after bulk loads — statistics are a
        snapshot, not a subscription.
        """
        from ..cost.model import CostModel

        catalog = super().refresh_statistics(access_weights)
        self.router.set_cost_model(CostModel(catalog))
        return catalog

    def router_stats(self) -> RouterStats:
        return self.router.stats()

    # ------------------------------------------------------------------
    # Deployment topology
    # ------------------------------------------------------------------
    def storage_units(self) -> Tuple[Tuple[str, StorageBackend], ...]:
        """One unit per shard: each gets its own pool and mutation log, so
        a partition-key-bound query occupies a connection on one shard
        instead of pinning a full set of per-shard clones."""
        return tuple(
            (f"shard-{index}", child)
            for index, child in enumerate(self._children)
        )

    def replicated_stores(self) -> Tuple[Tuple[str, StorageBackend], ...]:
        return tuple(
            (f"shard-{index}", store)
            for index, child in enumerate(self._children)
            for _label, store in child.replicated_stores()
        )

    def set_event_log(self, events) -> None:
        for child in self._children:
            child.set_event_log(events)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def route_plan(
        self, plan: ConjunctiveQuery, annotate: Optional[bool] = None
    ) -> RoutePlan:
        """The routing decision for *plan*, timed as the ``route`` span.

        *annotate* defaults to whether the ambient tree is profiled: a
        profiled execution pays for the describe-only cost annotations
        too, so its decision nodes carry the chosen *and* rejected
        estimates, not just the modes.

        The router keeps what it derives on the plan, keyed by the state
        it was derived under: the statistics epoch (each
        :meth:`refresh_statistics` hands the router a new cost model),
        the layout version (each :meth:`adopt_layout` a new router and
        shard count) and the partitioned-table count (a table declared
        after the plan was first routed).
        """
        self._require_open()
        with current_span().child("route") as span:
            if annotate is None:
                annotate = span.profiled
            route = self.router.route_plan(
                plan,
                annotate=annotate,
                state=(self.statistics_epoch, self.layout_version, len(self._specs)),
            )
            span.annotate(
                modes=[decision.mode for _q, decision in route.decisions],
                shards=list(route.needed_shards),
            )
        return route

    def execute(self, query: ConjunctiveQuery, distinct: bool = True) -> List[Row]:
        return self.execute_routed(self.route_plan(query), query, distinct)

    def execute_routed(
        self,
        plan: RoutePlan,
        query: ConjunctiveQuery,
        distinct: bool = True,
        children: Optional[Mapping[int, StorageBackend]] = None,
    ) -> List[Row]:
        """Execute *query* under *plan* on *children* (checked-out shard
        clones, keyed by shard id), or on this backend's own children."""
        self._require_open()
        engines: Mapping[int, StorageBackend] = (
            children if children is not None else dict(enumerate(self._children))
        )
        parent = current_span()
        ((_query, decision),) = plan.decisions
        # The routing decision as an operator — mode, reason, and (when a
        # cost model priced it) the chosen and rejected-alternative costs.
        # A gather *is* that node; a scatter's shard fragments and merge
        # nest under it.
        attributes = decision.profile_attributes() if parent.profiled else {}
        if decision.mode == MODE_GATHER:
            with parent.child(
                "shard.gather", shards=sorted(decision.shards)
            ).as_operator(decision.mode, query.name, **attributes) as node:
                scratch = self._gather(node, decision.fetch_shards, engines)
                rows = scratch.execute(query, distinct=distinct)
                node.finish(actual_rows=len(rows))
            return rows
        # The shards run in turn on this thread: statements step one at a
        # time per process anyway, and a failed shard stops the scatter.
        with parent.operator(decision.mode, query.name, **attributes) as node:
            per_shard = []
            for shard in decision.shards:
                engine = engines[shard]
                with current_span().child(
                    "shard.execute", shard=shard, engine=engine.backend_name
                ).as_operator(SHARD_FRAGMENT, f"{query.name}@shard{shard}") as span:
                    shard_rows = engine.execute(query, distinct=distinct)
                    span.produced(len(shard_rows))
                per_shard.append((shard, shard_rows))
            with self._stats_lock:
                for shard in decision.shards:
                    self._executions[shard] += 1
            with current_span().child("merge", inputs=len(per_shard)).as_operator(
                MERGE, f"{query.name}[merge]"
            ) as merge:
                rows = merge_rows(per_shard, distinct)
                merge.produced(len(rows))
            node.finish(actual_rows=len(rows))
        return rows

    def _gather(self, node, fetch, engines) -> MemoryBackend:
        """A coordinator-local store holding the fragments *fetch* names.

        Each table comes from the last gather of it when no write came
        between the two (same write count) and, for a partitioned table,
        from the same shard set (a broadcast table is whole on every
        shard, so the rotated source shard does not matter).  Otherwise
        its fragments are fetched into a fresh :class:`IndexedTable`,
        which replaces the cached one.  A kept table keeps its hash
        indexes too, so a warm gather only probes.  At most one table per
        name is kept.  The count is read before the fetch and moves only
        after a write has changed the children, so a table fetched during
        a write is stored under the count before it and never reused.

        The store prices its evaluation with this backend's statistics
        catalog, the way clones do, so a profiled gather reports the
        planner's estimates instead of re-measuring the fragments.  In a
        profiled tree each fragment is a ``shard-fragment`` operator under
        *node*, timed around its fetch and carrying its cardinality;
        ``cached=True`` marks one that was not fetched again.
        """
        scratch = MemoryBackend()
        scratch._statistics_catalog = self._statistics_catalog
        for table, shards in fetch:
            arity = self._require_table(table)
            key = (self._writes, shards if table in self._specs else None)
            gathered = self._gathered.get(table)
            cached = gathered is not None and gathered.key == key
            if not cached:
                gathered = _Gathered(
                    key, IndexedTable(table, arity, self._attributes[table]), []
                )
            for position, shard in enumerate(shards):
                with node.operator(
                    SHARD_FRAGMENT,
                    f"{table}@shard{shard}",
                    shard=shard,
                    relation=table,
                    cached=cached,
                ) as fragment:
                    if not cached:
                        fragment_rows = engines[shard].rows(table)
                        gathered.table.insert_many(fragment_rows)
                        gathered.fragment_rows.append(len(fragment_rows))
                    fragment.finish(actual_rows=gathered.fragment_rows[position])
            if not cached:
                self._gathered[table] = gathered
                with self._stats_lock:
                    for shard in shards:
                        self._gather_fetches[shard] += 1
            scratch.database.add_table(gathered.table)
        return scratch

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def stats(self) -> ShardStats:
        with self._stats_lock:
            executions = tuple(self._executions)
            fetches = tuple(self._gather_fetches)
        return ShardStats(
            shard_count=self.shard_count,
            executions_per_shard=executions,
            gather_fetches_per_shard=fetches,
            router=self.router.stats(),
        )

    # ------------------------------------------------------------------
    # Online rebalancing hooks
    # ------------------------------------------------------------------
    @_write
    def adopt_layout(
        self, children: Sequence[StorageBackend]
    ) -> Tuple[StorageBackend, ...]:
        """Atomically swap in a new child set (the rebalance cutover).

        The new children must already hold every table, repartitioned
        under this backend's partition specs modulo ``len(children)`` —
        the :class:`~repro.replica.rebalancer.Rebalancer` prepares them.
        The router is rebuilt for the new shard count (same partition
        specs, same cost model), per-shard counters reset, and
        :attr:`layout_version` bumps.  The old children are returned still
        open; the caller closes them once nothing references them.

        Not safe under in-flight ``execute`` calls: the caller must gate
        execution during the swap (``PublishingService.rebalance`` holds
        its publish gate exclusively).
        """
        self._require_open()
        new_children = list(children)
        if not new_children:
            raise StorageError("adopt_layout needs at least one child")
        for child in new_children:
            for name in self._arities:
                if not child.has_table(name):
                    raise StorageError(
                        f"adopt_layout: new child is missing table {name!r}"
                    )
        old_children = tuple(self._children)
        self._children = new_children
        self.shard_count = len(new_children)
        router = ShardRouter(self._specs, self.shard_count)
        router.set_cost_model(self.router.cost_model)
        self.router = router
        with self._stats_lock:
            self._executions = [0] * self.shard_count
            self._gather_fetches = [0] * self.shard_count
        # Fragment statistics describe the old layout; drop them until the
        # caller refreshes (refresh_statistics re-feeds the router too).
        self._statistics_catalog = None
        self.layout_version += 1
        return old_children

    def release_children(self) -> Tuple[StorageBackend, ...]:
        """Hand the children to the caller and retire this shell.

        Used by the rebalancer: a staging ``ShardedBackend`` routes the
        copied fragments and the replayed log tail into the new layout,
        then releases its children for :meth:`adopt_layout` without
        closing them.  The shell itself becomes unusable (closed).
        """
        self._require_open()
        children = tuple(self._children)
        self._children = []
        self._closed = True
        return children

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def clone_is_snapshot(self) -> bool:
        """A sharded clone snapshots iff every child clone does."""
        return all(child.clone_is_snapshot for child in self._children)

    @property
    def has_mixed_snapshot_children(self) -> bool:
        """Children disagree (a file-backed SQLite child among snapshot ones)."""
        kinds = {child.clone_is_snapshot for child in self._children}
        if len(kinds) > 1:
            return True
        return any(child.has_mixed_snapshot_children for child in self._children)

    def close(self) -> None:
        """Close every child; double close raises."""
        if self._closed:
            raise StorageError("ShardedBackend.close() called twice")
        self._closed = True
        for child in self._children:
            if not child.closed:
                child.close()

    def clone(self) -> "ShardedBackend":
        """A sharded backend over clones of every child (for pooling)."""
        self._require_open()
        clone = ShardedBackend.__new__(ShardedBackend)
        clone.shard_count = self.shard_count
        clone._children = []
        try:
            for child in self._children:
                clone._children.append(child.clone())
        except Exception:
            for cloned in clone._children:
                if not cloned.closed:
                    cloned.close()
            raise
        clone._partition_keys = dict(self._partition_keys)
        clone._partitioners = dict(self._partitioners)
        clone._arities = dict(self._arities)
        clone._attributes = dict(self._attributes)
        clone._specs = dict(self._specs)
        clone.router = ShardRouter(clone._specs, clone.shard_count)
        # Clones inherit the template's cost model: pooled handles must
        # route the way the template routes (fresh outcome counters).
        clone.router.set_cost_model(self.router.cost_model)
        clone._statistics_catalog = self._statistics_catalog
        clone.statistics_epoch = self.statistics_epoch
        clone._stats_lock = threading.Lock()
        clone._executions = [0] * clone.shard_count
        clone._gather_fetches = [0] * clone.shard_count
        clone.layout_version = self.layout_version
        clone._writes = 0
        clone._gathered = {}
        clone._closed = False
        return clone
