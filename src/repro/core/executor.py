"""Execution of original and reformulated queries against instance data.

MARS proper stops at producing executable reformulations; real engines run
them.  The reproduction needs to *verify* reformulations (they must return
the same answers as the original query over the published documents) and to
*measure* execution-time savings (paper section 4.2), so this module builds
actual instances of both sides of a configuration and runs queries against
them:

* the **published side**: instance documents for the public schema, either
  registered explicitly or materialized by evaluating the XML views over the
  proprietary data;
* the **proprietary side**: a pluggable :class:`~repro.storage.backends.StorageBackend`
  holding the relational tables, the GReX encodings of stored XML documents,
  and the extents of the materialized relational views.  The default
  ``memory`` backend is the original in-memory evaluator; the ``sqlite``
  backend executes the generated SQL on a real relational engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple, Type, Union

from ..compile.view_compiler import RelationalView
from ..logical.queries import ConjunctiveQuery
from ..obs.timer import timer
from ..obs.trace import current_span, operator_root
from ..profile import EXECUTE, QueryProfile
from ..storage.backends import StorageBackend
from ..xbind.evaluation import MixedStorage, evaluate_xbind
from ..xbind.query import XBindQuery
from .configuration import MarsConfiguration

Row = Tuple[object, ...]
BackendSpec = Union[None, str, StorageBackend, Type[StorageBackend]]


@dataclass
class ExecutionComparison:
    """Timing and answers of original-vs-reformulated execution."""

    original_rows: List[Row]
    reformulated_rows: List[Row]
    original_seconds: float
    reformulated_seconds: float

    @property
    def speedup(self) -> float:
        if self.reformulated_seconds == 0:
            return float("inf")
        return self.original_seconds / self.reformulated_seconds

    @property
    def answers_match(self) -> bool:
        return sorted(map(repr, self.original_rows)) == sorted(
            map(repr, self.reformulated_rows)
        )


class MarsExecutor:
    """Builds instance data for a configuration and runs queries against it.

    *backend* selects the engine holding the proprietary relational storage:
    ``None`` defers to ``configuration.backend`` (default ``"memory"``), a
    string is resolved through the backend registry, and an existing
    :class:`StorageBackend` instance is used as-is.
    """

    def __init__(
        self, configuration: MarsConfiguration, backend: BackendSpec = None
    ):
        self.configuration = configuration
        # Resolution goes through the configuration so that a string spec
        # picks up deployment defaults (e.g. "sharded" gets the declared
        # shard count and partition keys); instances pass through untouched.
        self.backend = configuration.create_backend(backend)
        # Only close backends this executor created; an injected instance
        # may be shared with other executors and stays the caller's to close.
        self._owns_backend = self.backend is not backend
        self.public_storage = MixedStorage()
        self.proprietary_storage = MixedStorage(database=self.backend)
        self._build()

    # ------------------------------------------------------------------
    def _build(self) -> None:
        configuration = self.configuration
        backend = self.backend
        # Proprietary relational tables and their data.  Pre-existing tables
        # (a reused backend instance or an on-disk SQLite file) are cleared so
        # rebuilding an executor is idempotent.
        for relation in configuration.relational_schema.relations:
            if not backend.has_table(relation.name):
                backend.create_table(
                    relation.name, relation.arity, relation.attributes
                )
            else:
                backend.clear_table(relation.name)
            rows = configuration.relational_data.get(relation.name)
            if rows:
                backend.insert_many(relation.name, rows)
        # Proprietary XML documents: keep them navigable and materialize GReX.
        schemas = configuration.grex_schemas()
        for name, instance in configuration.proprietary_documents.items():
            if instance is None:
                continue
            self.proprietary_storage.add_document(instance)
            schemas[name].materialize(instance, backend)
        # Published documents: explicit instances, stored documents published
        # as-is, or materializations of the XML views.
        for name, instance in configuration.public_documents.items():
            if instance is not None:
                self.public_storage.add_document(instance)
            elif name in configuration.proprietary_documents and (
                configuration.proprietary_documents[name] is not None
            ):
                self.public_storage.add_document(
                    configuration.proprietary_documents[name]
                )
        for view in configuration.xml_views:
            if view.output_document in self.public_storage.documents:
                continue
            source = self._view_source_storage()
            document = view.materialize(source)
            self.public_storage.add_document(document)
        # Materialized relational views: their extents are computed over the
        # published data (they are LAV views of the public schema).
        for view in configuration.relational_views:
            self._materialize_relational_view(view)
        # A sharded backend routes by modeled cost once statistics exist;
        # collect them now that every table is loaded (the access weights
        # keep pricing native-XML navigation above relational scans).
        self.collect_statistics()

    def _view_source_storage(self) -> MixedStorage:
        """Storage visible to view definitions: proprietary docs + relational data."""
        storage = MixedStorage(
            documents=dict(self.proprietary_storage.documents), database=self.backend
        )
        for name, document in self.public_storage.documents.items():
            storage.documents.setdefault(name, document)
        return storage

    def _materialize_relational_view(self, view: RelationalView) -> None:
        storage = MixedStorage(
            documents=dict(self.public_storage.documents), database=self.backend
        )
        rows = evaluate_xbind(view.definition, storage)
        if not self.backend.has_table(view.name):
            self.backend.create_table(view.name, view.arity)
        else:
            self.backend.clear_table(view.name)
        self.backend.insert_many(view.name, rows)

    # ------------------------------------------------------------------
    def execute_original(self, query: XBindQuery) -> List[Row]:
        """Evaluate the client query directly over the published documents."""
        storage = MixedStorage(
            documents=dict(self.public_storage.documents), database=self.backend
        )
        return evaluate_xbind(query, storage)

    def execute_reformulation(self, query: ConjunctiveQuery) -> List[Row]:
        """Execute a reformulation over the proprietary storage backend."""
        span = current_span()
        if span.profiled:
            span.annotate(plan=query.name, engine=self.backend.backend_name)
        return self.backend.execute(query)

    def explain_reformulation(self, query: ConjunctiveQuery) -> str:
        """Run *query* once, profiled, and render what it did.

        The text is the run's :class:`~repro.profile.QueryProfile`: every
        operator the backend recorded (routing decisions, replica reads,
        shard fragments, SQL statements with the engine's plan, hash-join
        steps), each estimate beside its actual rows.
        """
        with operator_root(EXECUTE, query.name) as root:
            rows = self.execute_reformulation(query)
        root.finish(actual_rows=len(rows))
        return QueryProfile(root).render()

    def compare(
        self, original: XBindQuery, reformulation: ConjunctiveQuery, repeat: int = 1
    ) -> ExecutionComparison:
        """Run both versions, compare answers and wall-clock time."""
        clock = timer()
        original_rows: List[Row] = []
        for _ in range(max(1, repeat)):
            original_rows = self.execute_original(original)
        original_seconds = clock.elapsed / max(1, repeat)
        clock = timer()
        reformulated_rows: List[Row] = []
        for _ in range(max(1, repeat)):
            reformulated_rows = self.execute_reformulation(reformulation)
        reformulated_seconds = clock.elapsed / max(1, repeat)
        return ExecutionComparison(
            original_rows=original_rows,
            reformulated_rows=reformulated_rows,
            original_seconds=original_seconds,
            reformulated_seconds=reformulated_seconds,
        )

    def collect_statistics(self):
        """Measure a statistics catalog from the built backend, *now*.

        The backend profiles its own tables with exact counts (the sharded
        backend by merging its children; ``sqlite_stat1`` feeds SQLite's
        join order, not the catalog); the configuration's access weights
        are layered on top
        so stored-XML relations keep costing more than relational scans.
        Feed the result to :meth:`MarsSystem.attach_statistics` to plan
        against the live data instead of the declarations — after bulk
        loads this is the call that re-measures, and on a sharded backend
        it also re-feeds the router's cost model in the same pass.
        """
        return self.backend.refresh_statistics(
            access_weights=self.configuration.access_weights()
        )

    def close(self) -> None:
        """Release the backend's resources (e.g. the SQLite connection).

        A backend instance passed in by the caller is left open — it may be
        shared — and must be closed by whoever created it.  Idempotent:
        services tear executors down from multiple exit paths.
        """
        if self._owns_backend and not self.backend.closed:
            self.backend.close()
