"""The in-memory backend: the compiled hash-join evaluator behind the API.

This wraps :class:`~repro.storage.relational_db.InMemoryDatabase` and
:func:`~repro.storage.evaluation.evaluate_query` without changing their
behaviour, so the default execution path of the reproduction is exactly
what it was before the backend abstraction existed.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from ...cost.statistics import KeptStatistics
from ...errors import StorageError
from ...logical.queries import ConjunctiveQuery
from ..evaluation import evaluate_query
from ..relational_db import InMemoryDatabase
from .base import Row, StorageBackend


class MemoryBackend(StorageBackend):
    """Executes queries with the chase's compiled hash joins over Python lists.

    Statistics (``collect_statistics``, inherited) profile the same lists
    the hash-join evaluator scans, so cost estimates derived from a memory
    backend describe exactly the data it will join.  The measurements are
    kept on the database, which drops a table's entry when it is written:
    backends sharing one database see each other's writes.

    When the request is profiled (``explain()`` or the service's 1-in-N
    sampler), the evaluator emits one ``scan``/``join-step`` operator
    node per hash-join step — the table's size, the probed positions,
    the :meth:`estimate_pipeline` figure and the step's *actual*
    intermediate cardinality — under the ambient
    :func:`repro.obs.current_span` node.
    """

    backend_name = "memory"

    def __init__(self, database: Optional[InMemoryDatabase] = None):
        self.database = database or InMemoryDatabase()
        self._closed = False

    # -- schema and data loading ---------------------------------------
    def create_table(
        self, name: str, arity: int, attributes: Optional[Sequence[str]] = None
    ) -> None:
        self.database.create_table(name, arity, attributes)

    def has_table(self, name: str) -> bool:
        return self.database.has_table(name)

    def clear_table(self, name: str) -> None:
        self.database.clear_table(name)

    def apply(self, changeset: "ChangeSet") -> "Counter[str]":
        database = self.database
        changeset.check(lambda name: database.table(name).arity)
        removed: Counter[str] = Counter()
        for change in changeset.changes:
            if change.deletes:
                removed[change.relation] += database.delete_many(
                    change.relation, change.deletes
                )
            if change.inserts:
                database.insert_many(change.relation, change.inserts)
        return removed

    # -- inspection ----------------------------------------------------
    @property
    def table_names(self) -> Tuple[str, ...]:
        return self.database.table_names

    def rows(self, name: str) -> Sequence[Row]:
        return self.database.rows(name)

    def cardinalities(self) -> Dict[str, int]:
        return self.database.cardinalities()

    def cardinality(self, name: str) -> int:
        return self.database.cardinality(name)

    def _kept_statistics(self) -> KeptStatistics:
        return self.database.kept_statistics

    # -- execution -----------------------------------------------------
    def execute(self, query: ConjunctiveQuery, distinct: bool = True) -> List[Row]:
        # The evaluator checks the tables exist (the one check on this path).
        return evaluate_query(
            query, self.database, distinct=distinct, estimator=self.estimate_pipeline
        )

    # -- lifecycle -----------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Match the strict lifecycle of the other backends (symmetry for tests)."""
        if self._closed:
            raise StorageError("MemoryBackend.close() called twice")
        self._closed = True

    @property
    def clone_is_snapshot(self) -> bool:
        return True

    def clone(self) -> "MemoryBackend":
        """An independent snapshot of the tables, usable from any thread.

        Clones used to share the underlying tables; with a live write path
        they copy them instead, so pooled memory clones have the same
        point-in-time semantics as ``:memory:`` SQLite snapshots and catch
        up through the same mutation-log replay.
        """
        if self._closed:
            raise StorageError("cannot clone a closed MemoryBackend")
        clone = MemoryBackend(self.database.copy())
        clone._statistics_catalog = self._statistics_catalog
        return clone
