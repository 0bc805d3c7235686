"""The storage-backend abstraction: where reformulations actually execute.

MARS is middleware (paper Figure 2): it emits executable reformulations and
ships them to whatever engine holds the proprietary storage.  A
:class:`StorageBackend` is the reproduction's model of such an engine — a
relational store that can be loaded with the proprietary tables (base
relations, GReX encodings of stored XML documents, materialized view
extents) and asked to execute conjunctive queries.

Two implementations ship with the reproduction:

* :class:`~repro.storage.backends.memory.MemoryBackend` — the original
  in-memory hash-join evaluator, now behind the common interface;
* :class:`~repro.storage.backends.sqlite.SQLiteBackend` — a real RDBMS
  (stdlib ``sqlite3``) executing the parameterized SQL produced by
  :func:`~repro.storage.sql.render_sql_query`, which validates the SQL
  generation end-to-end.

Backends are registered by name so configurations, examples and benchmarks
can flip engines with a single string (``backend="sqlite"``).
"""

from __future__ import annotations

import abc
import inspect
import os
from typing import (
    Counter, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Type, Union,
)

from ...cost.model import CostModel
from ...cost.statistics import (
    KeptStatistics,
    StatisticsCatalog,
    TableStatistics,
    profile_rows,
)
from ...errors import EvaluationError, StorageError
from ...logical.queries import ConjunctiveQuery
from ..routing import MODE_SINGLE, RoutePlan, RoutingDecision

Row = Tuple[object, ...]

#: The route of every plan on a backend that is its own storage unit.
_ONE_UNIT = RoutingDecision(MODE_SINGLE, (0,), (), "one storage unit")


def _one_change(
    relation: str,
    inserts: Iterable[Sequence[object]] = (),
    deletes: Iterable[Sequence[object]] = (),
) -> "ChangeSet":
    """The change set writing *inserts* and *deletes* to *relation* only."""
    # Imported here: repro.replica imports this module.
    from ...replica.changeset import ChangeSet, TableChange

    return ChangeSet((TableChange(relation, inserts, deletes),))


def default_backend_name() -> str:
    """The registry name used when no backend is specified.

    Reads the ``MARS_BACKEND`` environment variable (falling back to
    ``"memory"``), so a test matrix or a deployment can flip every
    default-configured executor onto another engine without code changes.
    """
    return os.environ.get("MARS_BACKEND", "memory") or "memory"


class StorageBackend(abc.ABC):
    """A named relational store that loads tuples and executes queries.

    The interface doubles as the *relational store* contract used by the
    upper layers (GReX materialization, XBind evaluation, statistics), so a
    backend can stand wherever an
    :class:`~repro.storage.relational_db.InMemoryDatabase` used to.
    """

    #: Registry name of the backend class (``"memory"``, ``"sqlite"``, ...).
    backend_name: str = "abstract"
    _statistics_catalog: Optional["StatisticsCatalog"] = None
    #: Moves on every :meth:`refresh_statistics`.  What is derived from
    #: statistics and kept (a plan's cached route) is keyed on it.
    statistics_epoch: int = 0

    # -- schema and data loading ---------------------------------------
    @abc.abstractmethod
    def create_table(
        self, name: str, arity: int, attributes: Optional[Sequence[str]] = None
    ) -> None:
        """Declare table *name*; raises if it already exists."""

    @abc.abstractmethod
    def has_table(self, name: str) -> bool:
        ...

    @abc.abstractmethod
    def clear_table(self, name: str) -> None:
        """Delete every row of *name*, keeping the table declared."""

    @abc.abstractmethod
    def apply(self, changeset: "ChangeSet") -> "Counter[str]":
        """Apply one :class:`~repro.replica.changeset.ChangeSet`: the one
        write an engine implements; returns the rows removed per table.

        Nothing is written unless every table exists and every row has its
        table's arity (:meth:`ChangeSet.check`, called before any write).
        Per table change the deletes run before the inserts (an update is
        a delete plus an insert of the same row); each requested delete
        removes **at most one** stored occurrence (a table is an ordered
        multiset) and rows not present are ignored, so every engine agrees
        on multiplicities.
        """

    def insert(self, name: str, row: Sequence[object]) -> None:
        self.insert_many(name, [row])

    def insert_many(self, name: str, rows: Iterable[Sequence[object]]) -> None:
        """Bulk-load *rows* into table *name*: one :meth:`apply`."""
        self.apply(_one_change(name, inserts=rows))

    def delete_many(self, name: str, rows: Iterable[Sequence[object]]) -> int:
        """Bag-delete *rows* from table *name*: one :meth:`apply`; returns
        how many went."""
        return self.apply(_one_change(name, deletes=rows))[name]

    # -- inspection ----------------------------------------------------
    @property
    @abc.abstractmethod
    def table_names(self) -> Tuple[str, ...]:
        ...

    @abc.abstractmethod
    def rows(self, name: str) -> Sequence[Row]:
        """The current rows of table *name* (multiset, insertion order)."""

    @abc.abstractmethod
    def cardinalities(self) -> Dict[str, int]:
        """Mapping of table name to row count, used by the cost estimators."""

    def cardinality(self, name: str) -> int:
        """Number of rows in *name* (0 if the table does not exist)."""
        if not self.has_table(name):
            return 0
        return len(self.rows(name))

    def collect_statistics(self) -> "StatisticsCatalog":
        """Measure a :class:`~repro.cost.statistics.StatisticsCatalog`.

        Exact row counts and per-column distinct counts on every backend.
        The store keeps what it measured per table until a write to that
        table drops it (:meth:`_kept_statistics`), so the first call
        measures every table and a later one only the tables written
        since: the catalog always equals a sweep of every table.  Engines
        supply how one table is measured (:meth:`_measure_statistics`);
        composites override this to combine their parts' catalogs.
        """
        kept = self._kept_statistics()
        catalog = StatisticsCatalog()
        for name in self.table_names:
            statistics = kept.get(name)
            if statistics is None:
                writes = kept.writes
                statistics = self._measure_statistics(name)
                kept.keep(statistics, writes)
            catalog.add(statistics)
        return catalog

    def _kept_statistics(self) -> KeptStatistics:
        """The measurements of this store that no write has dropped.

        A store keeps them only where it drops an entry on every write to
        its table; by default nothing is kept and every call measures
        every table.
        """
        return KeptStatistics()

    def _measure_statistics(self, name: str) -> TableStatistics:
        """Measure table *name* now; the default profiles :meth:`rows`."""
        return profile_rows(name, self.rows(name))

    def refresh_statistics(
        self, access_weights: Optional[Mapping[str, float]] = None
    ) -> "StatisticsCatalog":
        """Measure a catalog *now*, layer *access_weights* on top, keep it.

        Composites refresh their parts as well (the sharded backend
        re-feeds its router's cost model, the replicated backend refreshes
        every live replica).
        """
        catalog = self.collect_statistics()
        for relation, weight in (access_weights or {}).items():
            catalog.set_weight(relation, weight)
        self._statistics_catalog = catalog
        self.statistics_epoch += 1
        return catalog

    @property
    def statistics_catalog(self) -> Optional["StatisticsCatalog"]:
        """The catalog of the last :meth:`refresh_statistics` (or ``None``).

        The executor refreshes once when its build completes; profiled
        executions price their operators from it, and clones start with
        their source's.
        """
        return self._statistics_catalog

    def estimate_pipeline(self, query: ConjunctiveQuery) -> Tuple[float, ...]:
        """The planner's running row estimate after each atom of *query*.

        In *query*'s body order (the memory evaluator passes the order it
        executes), priced by the ranking model over
        :attr:`statistics_catalog` — measured now if this backend was
        never refreshed.  Profile nodes attach these numbers; engines do
        no estimation arithmetic of their own.
        """
        catalog = self._statistics_catalog
        if catalog is None:
            catalog = self.refresh_statistics()
        return CostModel(catalog).pipeline(query)

    # -- deployment topology -------------------------------------------
    def storage_units(self) -> Tuple[Tuple[str, "StorageBackend"], ...]:
        """The independently pooled-and-logged stores this backend is.

        The publishing service gives every ``(label, store)`` unit its own
        connection pool and mutation log (durable under
        ``<log_dir>/<label>``) and reaches them through the routing below,
        by position.  A plain engine is one unit — itself; the sharded
        backend answers one per shard.
        """
        return (("service", self),)

    def route_plan(self, plan: ConjunctiveQuery) -> RoutePlan:
        """The units *plan* executes on: unit 0, ``single``, by default."""
        return RoutePlan(((plan, _ONE_UNIT),))

    def execute_routed(
        self,
        route: RoutePlan,
        plan: ConjunctiveQuery,
        distinct: bool = True,
        children: Optional[Mapping[int, "StorageBackend"]] = None,
    ) -> List[Row]:
        """Execute *plan* under *route* on *children* (checked-out units,
        keyed by position), or on this backend's own units when ``None``."""
        engine = self if children is None else children[0]
        return engine.execute(plan, distinct=distinct)

    def route_changeset(self, changeset: "ChangeSet") -> Dict[int, "ChangeSet"]:
        """*changeset* split into the pieces each unit applies, by position."""
        return {0: changeset}

    def units_written(self) -> None:
        """Note that a caller wrote to this backend's units directly.

        A backend keeping what it derived from its units' data drops it
        here (the sharded backend's gathered tables).  A no-op by default.
        """

    def replicated_stores(self) -> Tuple[Tuple[str, "StorageBackend"], ...]:
        """The replicated stores inside this backend, labelled by place.

        The publishing service watches each ``(label, store)`` from its
        ``replicas`` health probe and heals it in ``repair_replicas()``.
        None by default; the replicated backend answers itself as
        ``"template"``, the sharded backend its replicated children as
        ``"shard-i"``.
        """
        return ()

    def router_stats(self) -> Optional["RouterStats"]:
        """Routing-outcome counters, for backends that route (else ``None``)."""
        return None

    def set_event_log(self, events: Optional["EventLog"]) -> None:
        """Install the log that state transitions are recorded to.

        A no-op for engines that record nothing; composites hand the log
        down to their parts.
        """

    @property
    def has_mixed_snapshot_children(self) -> bool:
        """Whether parts disagree on :attr:`clone_is_snapshot` semantics.

        Such a layout can neither skip log replay (its snapshot clones
        would go stale) nor replay it (its shared-storage clones would
        apply writes twice), so pools refuse to attach a mutation log to
        it.  Always ``False`` for a backend without parts.
        """
        return False

    # -- execution -----------------------------------------------------
    @abc.abstractmethod
    def execute(self, query: ConjunctiveQuery, distinct: bool = True) -> List[Row]:
        """Execute a conjunctive query and return the head tuples."""

    def _check_relations(self, query: ConjunctiveQuery) -> None:
        """Raise :class:`EvaluationError` if *query* names a table not held."""
        for relation in query.derived().relations:
            if not self.has_table(relation):
                raise EvaluationError(
                    f"query {query.name} references unknown table {relation!r}"
                )

    # -- lifecycle -----------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called on this backend."""
        return False

    def close(self) -> None:
        """Release engine resources; the default implementation is a no-op."""

    @property
    def clone_is_snapshot(self) -> bool:
        """Whether :meth:`clone` produces a point-in-time *snapshot*.

        ``True`` means a clone stops seeing later writes to the original
        (memory clones copy the tables, ``:memory:`` SQLite clones are
        backup-API snapshots) and must catch up by replaying a
        :class:`~repro.replica.changeset.MutationLog` tail; ``False``
        means clones share the stored data (a second connection to the
        same on-disk SQLite file) and see committed writes directly.  The
        connection pool uses this to decide whether pooled clones need
        log-replay catch-up at checkout.
        """
        return False

    def clone(self) -> "StorageBackend":
        """A new backend over the same stored data, usable from another thread.

        Connection pools build their per-checkout handles with this.  The
        clone shares (or snapshots) the data of the original but owns its
        own engine resources, so it must be :meth:`close`\\ d independently.
        Backends without a meaningful notion of a second handle raise
        :class:`~repro.errors.StorageError`.
        """
        raise StorageError(
            f"{type(self).__name__} does not support cloning; "
            "it cannot be pooled"
        )

    def __enter__(self) -> "StorageBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        if not self.closed:
            self.close()

    def __contains__(self, name: str) -> bool:
        return self.has_table(name)

    def __str__(self) -> str:
        parts = ", ".join(
            f"{name}({count})" for name, count in sorted(self.cardinalities().items())
        )
        return f"{type(self).__name__}[{parts}]"


# ----------------------------------------------------------------------
# Registry and factory
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Type[StorageBackend]] = {}


def register_backend(name: str, backend_class: Type[StorageBackend]) -> None:
    """Register *backend_class* under *name* for :func:`create_backend`."""
    _REGISTRY[name] = backend_class
    backend_class.backend_name = name


def available_backends() -> Tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def create_backend(
    spec: Union[str, StorageBackend, Type[StorageBackend], None] = None,
    **kwargs: object,
) -> StorageBackend:
    """Resolve *spec* into a live backend instance.

    ``None`` means the default (:func:`default_backend_name`, i.e. the
    ``MARS_BACKEND`` environment variable or ``"memory"``); a string is
    looked up in the registry; a class is instantiated; an existing instance
    is returned unchanged (keyword arguments are then rejected).
    """
    if spec is None:
        spec = default_backend_name()
    if isinstance(spec, StorageBackend):
        if kwargs:
            raise EvaluationError(
                "cannot apply constructor arguments to an existing backend instance"
            )
        return spec
    if isinstance(spec, type) and issubclass(spec, StorageBackend):
        return spec(**kwargs)
    if isinstance(spec, str):
        try:
            backend_class = _REGISTRY[spec]
        except KeyError as error:
            raise EvaluationError(
                f"unknown storage backend {spec!r}; "
                f"available: {', '.join(available_backends())}"
            ) from error
        return backend_class(**kwargs)
    raise EvaluationError(f"cannot interpret backend specification {spec!r}")


def create_portable_backend(spec, create=create_backend) -> StorageBackend:
    """Build *spec* through *create* so that any thread may use it.

    An engine whose constructor takes ``check_same_thread`` (SQLite) gets
    it ``False``: pooled clones and ``update()`` callers reach a store from
    threads other than the one that built it.  The choice is read off the
    constructor, not retried on ``TypeError``, because a composite backend
    builds real child stores before any keyword could be rejected.
    """
    if isinstance(spec, StorageBackend):
        return spec
    backend_class = spec if isinstance(spec, type) else _REGISTRY.get(
        spec if spec is not None else default_backend_name()
    )
    if backend_class is not None and (
        "check_same_thread" in inspect.signature(backend_class).parameters
    ):
        return create(spec, check_same_thread=False)
    return create(spec)
