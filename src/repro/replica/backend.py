"""The replicated storage backend: K copies of a store behind one API.

Logical redundancy (overlapping materialized views) is MARS's theme;
this module adds *physical* redundancy in the spirit of the WebContent
XML Store: every fragment of the proprietary storage exists on K replica
engines, reads fan out to one replica chosen by a pluggable
:class:`~repro.replica.selector.ReplicaSelector` and **fail over** to the
next replica when an engine dies mid-read (raises
:class:`~repro.errors.StorageError`), while writes — bulk loads and
:class:`~repro.replica.changeset.ChangeSet` applications alike — go to
every live replica so the copies stay identical.

A replica that fails a *write* is fenced: it is closed on the spot, so a
copy that may have missed a change can never serve a stale read.  Reads
keep working as long as one replica is alive.

The backend composes with sharding in both directions: ``replicated``
over ``sharded`` children replicates whole sharded stores (each replica
is an independent shard set), and a ``sharded`` backend may name
``replicated`` children to replicate per shard.  Select it like any other
engine — ``create_backend("replicated", replicas=3, child="sqlite")`` —
or set ``MarsConfiguration.backend = "replicated"`` (replica count
defaults to the ``MARS_REPLICAS`` environment variable).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import (
    Callable,
    Counter,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from ..errors import StorageError
from ..obs.events import EventLog, REPLICA_FAILOVER, REPLICA_FENCED
from ..logical.queries import ConjunctiveQuery
from ..obs.trace import current_span
from ..profile import REPLICA_READ
from ..storage.backends.base import Row, StorageBackend, create_portable_backend
from .changeset import ChangeSet
from .selector import ReplicaSelector, create_selector

T = TypeVar("T")

DEFAULT_REPLICA_COUNT = 2

ChildSpec = Union[str, type, StorageBackend]


def default_replica_count() -> int:
    """Replica count used when none is specified: ``MARS_REPLICAS`` or 2."""
    raw = os.environ.get("MARS_REPLICAS", "").strip()
    if not raw:
        return DEFAULT_REPLICA_COUNT
    try:
        count = int(raw)
    except ValueError as error:
        raise StorageError(
            f"MARS_REPLICAS must be an integer, got {raw!r}"
        ) from error
    if count < 1:
        raise StorageError(f"MARS_REPLICAS must be >= 1, got {count}")
    return count


@dataclass(frozen=True)
class ReplicaStats:
    """Read/write distribution and failure counters of one backend."""

    replica_count: int
    live_replicas: int
    #: Reads answered per replica (successful attempts only).
    reads_per_replica: Tuple[int, ...]
    #: Read attempts that raised ``StorageError`` and moved to the next
    #: replica (dead replicas skipped without an attempt count too).
    failovers: int
    #: Write operations applied (each one reached every live replica).
    writes_applied: int
    #: Replicas fenced (closed) because a write failed on them.
    fenced: int
    #: Dead replicas replaced with freshly provisioned copies
    #: (:meth:`ReplicatedBackend.adopt_replica`).
    repaired: int
    selector: str


class ReplicatedBackend(StorageBackend):
    """K replica engines behind one :class:`StorageBackend` interface."""

    backend_name = "replicated"

    def __init__(
        self,
        replicas: Optional[int] = None,
        child: Optional[ChildSpec] = None,
        children: Optional[Sequence[ChildSpec]] = None,
        selector: Union[str, ReplicaSelector, None] = None,
    ):
        if children is not None:
            specs = list(children)
            if not specs:
                raise StorageError("replicated backend needs at least one replica")
            if replicas is not None and replicas != len(specs):
                raise StorageError(
                    f"replicas={replicas} does not match the {len(specs)} "
                    "child specifications"
                )
            if child is not None:
                raise StorageError("pass either child= or children=, not both")
        else:
            count = replicas if replicas is not None else default_replica_count()
            if count < 1:
                raise StorageError(
                    f"replicated backend needs replicas >= 1, got {count}"
                )
            specs = [child if child is not None else "memory"] * count
        self._replicas: List[StorageBackend] = []
        try:
            for spec in specs:
                self._replicas.append(self._create_replica(spec))
        except Exception:
            for replica in self._replicas:
                if not replica.closed:
                    replica.close()
            raise
        self.replica_count = len(self._replicas)
        self.selector = create_selector(selector)
        self._lock = threading.Lock()
        self._loads = [0] * self.replica_count
        self._reads = [0] * self.replica_count
        self._failovers = 0
        self._writes = 0
        self._fenced = 0
        self._repairs = 0
        self._closed = False
        #: Optional structured event log; the publishing service installs
        #: its own via :meth:`set_event_log` (clones inherit it).
        self.events: Optional[EventLog] = None

    def set_event_log(self, events: Optional[EventLog]) -> None:
        """Install the log fencing and failover events are recorded to."""
        self.events = events
        for replica in self._replicas:
            replica.set_event_log(events)

    def replicated_stores(self) -> Tuple[Tuple[str, StorageBackend], ...]:
        return (("template", self),)

    @staticmethod
    def _create_replica(spec: ChildSpec) -> StorageBackend:
        if spec == "replicated" or (
            isinstance(spec, type) and issubclass(spec, ReplicatedBackend)
        ):
            raise StorageError("replicated backends cannot nest replicated children")
        if isinstance(spec, StorageBackend):
            return spec
        return create_portable_backend(spec)

    # ------------------------------------------------------------------
    @property
    def replicas(self) -> Tuple[StorageBackend, ...]:
        """The replica engines (including any fenced/closed ones)."""
        return tuple(self._replicas)

    def _require_open(self) -> None:
        if self._closed:
            raise StorageError(
                "ReplicatedBackend has been closed; create a new backend instead"
            )

    def _live(self) -> List[StorageBackend]:
        live = [replica for replica in self._replicas if not replica.closed]
        if not live:
            raise StorageError("no live replica remains")
        return live

    def _first_live(self) -> StorageBackend:
        self._require_open()
        return self._live()[0]

    # ------------------------------------------------------------------
    # Reads: selector order with failover
    # ------------------------------------------------------------------
    def _read(self, action: Callable[[StorageBackend], T]) -> T:
        self._require_open()
        with self._lock:
            loads = tuple(self._loads)
        order = self.selector.order(self.replica_count, loads)
        last_error: Optional[StorageError] = None
        for index in order:
            replica = self._replicas[index]
            if replica.closed:
                continue
            with self._lock:
                self._loads[index] += 1
            # One replica-read node per *attempt*: a failed attempt stays
            # in the tree annotated failover=True, so the profile shows
            # exactly which copy served the read and which were tried.
            span = current_span().child(
                "replica.read", replica=index, engine=replica.backend_name
            ).as_operator(
                REPLICA_READ, f"replica{index}", selector=self.selector.name,
                order=order,
            )
            try:
                with span:
                    result = action(replica)
            except StorageError as error:
                # The engine failed (killed replica, closed connection):
                # try the next copy.  Query errors (EvaluationError and
                # friends) are deterministic and propagate unchanged.
                last_error = error
                if span.profiled:
                    span.annotate(failover=True)
                with self._lock:
                    self._loads[index] -= 1
                    self._failovers += 1
                if self.events is not None:
                    self.events.record(
                        REPLICA_FAILOVER,
                        replica=index,
                        engine=replica.backend_name,
                        error=str(error),
                    )
                continue
            except BaseException:
                with self._lock:
                    self._loads[index] -= 1
                raise
            if span.profiled and isinstance(result, (list, tuple)):
                span.actual_rows = len(result)
            with self._lock:
                self._loads[index] -= 1
                self._reads[index] += 1
            return result
        if last_error is not None:
            raise StorageError(
                f"all {self.replica_count} replicas failed the read"
            ) from last_error
        raise StorageError("no live replica remains")

    def execute(self, query: ConjunctiveQuery, distinct: bool = True) -> List[Row]:
        return self._read(lambda replica: replica.execute(query, distinct=distinct))

    def rows(self, name: str) -> Sequence[Row]:
        return self._read(lambda replica: replica.rows(name))

    def cardinalities(self) -> Dict[str, int]:
        return self._read(lambda replica: replica.cardinalities())

    def cardinality(self, name: str) -> int:
        return self._read(lambda replica: replica.cardinality(name))

    def collect_statistics(self):
        """One replica's catalog describes them all (copies are identical)."""
        return self._read(lambda replica: replica.collect_statistics())

    def refresh_statistics(self, access_weights=None):
        """Refresh statistics on every live replica; return one catalog.

        Replicas holding routed engines (a sharded child) re-feed their
        routers' cost models; plain replicas just measure.  Every live
        replica is refreshed so the copies keep routing identically.
        """
        catalog = None
        for replica in self._live():
            measured = replica.refresh_statistics(access_weights=access_weights)
            if catalog is None:
                catalog = measured
        self._statistics_catalog = catalog
        self.statistics_epoch += 1
        return catalog

    # ------------------------------------------------------------------
    # Writes: every live replica, fencing on failure
    # ------------------------------------------------------------------
    def _write(self, action: Callable[[StorageBackend], T]) -> T:
        self._require_open()
        result: Optional[T] = None
        first = True
        errors: List[Exception] = []
        for replica in self._live():
            try:
                value = action(replica)
            except StorageError as error:
                # The engine failed (killed mid-write): the replica may
                # have missed the write and must never serve reads again —
                # fence it and keep writing to the survivors.
                errors.append(error)
                if not replica.closed:
                    replica.close()
                with self._lock:
                    self._fenced += 1
                self._record_fence(replica, error)
                continue
            except Exception as error:
                # A non-engine error (bad change set, unstorable value) on
                # the *first* replica is a clean failure: an engine's
                # ``apply`` checks the whole change set before writing
                # (SQLite also rolls back), so that replica wrote nothing
                # and no copy diverged; propagate untouched.  After any
                # replica applied the write, a failing replica has missed
                # it — engines disagree on what they accept — and an
                # unfenced divergent copy is worse than a smaller replica
                # set: fence it too.
                if first and not errors:
                    raise
                errors.append(error)
                if not replica.closed:
                    replica.close()
                with self._lock:
                    self._fenced += 1
                self._record_fence(replica, error)
                continue
            if first:
                result, first = value, False
        if first:
            raise StorageError(
                "write failed on every live replica"
            ) from (errors[-1] if errors else None)
        with self._lock:
            self._writes += 1
        return result  # type: ignore[return-value]

    def _record_fence(self, replica: StorageBackend, error: Exception) -> None:
        if self.events is not None:
            self.events.record(
                REPLICA_FENCED,
                replica=self._replicas.index(replica),
                engine=replica.backend_name,
                live_replicas=sum(
                    1 for each in self._replicas if not each.closed
                ),
                error=str(error),
            )

    def adopt_replica(self, index: int, replacement: StorageBackend) -> None:
        """Swap the dead replica at *index* for a provisioned *replacement*.

        The repairer (:class:`~repro.replica.repair.ReplicaRepairer`)
        calls this as its cutover step, after *replacement* has been
        brought differentially identical to the live copies.  The slot
        must currently hold a closed (fenced/killed) replica — adopting
        over a live copy would discard acknowledged state — and the
        replacement must itself be open.
        """
        self._require_open()
        if replacement.closed:
            raise StorageError("cannot adopt a closed replacement replica")
        with self._lock:
            if not 0 <= index < len(self._replicas):
                raise StorageError(
                    f"replica index {index} out of range "
                    f"(0..{len(self._replicas) - 1})"
                )
            old = self._replicas[index]
            if not old.closed:
                raise StorageError(
                    f"replica {index} is still live; only dead replicas "
                    "can be replaced"
                )
            self._replicas[index] = replacement
            self._repairs += 1

    def create_table(
        self, name: str, arity: int, attributes: Optional[Sequence[str]] = None
    ) -> None:
        self._write(lambda replica: replica.create_table(name, arity, attributes))

    def clear_table(self, name: str) -> None:
        self._write(lambda replica: replica.clear_table(name))

    def apply(self, changeset: ChangeSet) -> "Counter[str]":
        return self._write(lambda replica: replica.apply(changeset))

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def table_names(self) -> Tuple[str, ...]:
        return self._first_live().table_names

    def has_table(self, name: str) -> bool:
        return self._first_live().has_table(name)

    def stats(self) -> ReplicaStats:
        with self._lock:
            reads = tuple(self._reads)
            failovers = self._failovers
            writes = self._writes
            fenced = self._fenced
            repaired = self._repairs
        live = sum(1 for replica in self._replicas if not replica.closed)
        return ReplicaStats(
            replica_count=self.replica_count,
            live_replicas=live,
            reads_per_replica=reads,
            failovers=failovers,
            writes_applied=writes,
            fenced=fenced,
            repaired=repaired,
            selector=self.selector.name,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def clone_is_snapshot(self) -> bool:
        return all(
            replica.clone_is_snapshot
            for replica in self._replicas
            if not replica.closed
        )

    @property
    def has_mixed_snapshot_children(self) -> bool:
        """Judged over the live replicas only."""
        live = [replica for replica in self._replicas if not replica.closed]
        kinds = {replica.clone_is_snapshot for replica in live}
        if len(kinds) > 1:
            return True
        return any(replica.has_mixed_snapshot_children for replica in live)

    def close(self) -> None:
        """Close every live replica; double close raises."""
        if self._closed:
            raise StorageError("ReplicatedBackend.close() called twice")
        self._closed = True
        for replica in self._replicas:
            if not replica.closed:
                replica.close()

    def clone(self) -> "ReplicatedBackend":
        """A replicated backend over clones of every *live* replica.

        Dead (fenced/killed) replicas are skipped, so pools built after a
        failure clone only the healthy copies; the clone's replica count
        shrinks accordingly.
        """
        self._require_open()
        clones: List[StorageBackend] = []
        try:
            for replica in self._replicas:
                if replica.closed:
                    continue
                clones.append(replica.clone())
        except Exception:
            for cloned in clones:
                if not cloned.closed:
                    cloned.close()
            raise
        if not clones:
            raise StorageError("cannot clone: no live replica remains")
        clone = ReplicatedBackend.__new__(ReplicatedBackend)
        clone._replicas = clones
        clone.replica_count = len(clones)
        clone.selector = create_selector(self.selector.name)
        clone._lock = threading.Lock()
        clone._loads = [0] * clone.replica_count
        clone._reads = [0] * clone.replica_count
        clone._failovers = 0
        clone._writes = 0
        clone._fenced = 0
        clone._repairs = 0
        clone._statistics_catalog = self._statistics_catalog
        clone._closed = False
        clone.events = self.events
        return clone
