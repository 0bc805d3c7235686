"""MARS configurations: schemas, views and constraints of one deployment.

A :class:`MarsConfiguration` gathers everything the administrator declares
(paper Figure 3, left column):

* the **public schema**: the virtual XML documents clients query;
* the **proprietary schema**: stored XML documents and relational tables
  (including redundant materialized views and caches);
* the **schema correspondence**: GAV and LAV views relating the two sides;
* **integrity constraints**: XICs on the XML data and DEDs (keys, foreign
  keys, arbitrary dependencies) on the relational data.

From these declarations the configuration derives the compiled artifacts
the C&B engine needs: the per-document GReX schemas, the TIX axioms, the
compiled views/XICs, the set of proprietary (target) relations a
reformulation may use, and cardinality statistics for the cost model.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..compile.grex import GrexSchema
from ..compile.tix import tix_for_documents
from ..compile.view_compiler import IdentityView, RelationalView, XMLView
from ..compile.xbind_compiler import GrexCompiler
from ..compile.xic import XIC, compile_xics
from ..cost.statistics import StatisticsCatalog, profile_rows
from ..engine.shortcut import ClosureSpec
from ..errors import SchemaError
from ..logical.dependencies import DED
from ..logical.schema import RelationalSchema
from ..storage.backends import default_backend_name
from ..xmlmodel.model import XMLDocument

DEFAULT_XML_ACCESS_WEIGHT = 5.0


def _env_int(name: str) -> Optional[int]:
    """An integer environment knob; unset means None, non-numeric raises."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError as error:
        raise SchemaError(f"{name} must be an integer, got {raw!r}") from error


class MarsConfiguration:
    """The declarative input of a MARS deployment."""

    def __init__(self, name: str = "mars"):
        self.name = name
        self.public_documents: Dict[str, Optional[XMLDocument]] = {}
        self.proprietary_documents: Dict[str, Optional[XMLDocument]] = {}
        self.relational_schema = RelationalSchema(f"{name}_storage")
        self.relational_data: Dict[str, List[Tuple[object, ...]]] = {}
        self.relational_views: List[RelationalView] = []
        self.xml_views: List[XMLView] = []
        self.identity_views: List[IdentityView] = []
        self.xics: List[XIC] = []
        self.extra_dependencies: List[DED] = []
        # Administrator overrides (set_cardinality / set_weight); they win
        # over everything build_statistics() derives from the declarations.
        self.statistics = StatisticsCatalog()
        self.xml_access_weight = DEFAULT_XML_ACCESS_WEIGHT
        self.include_disjunctive_tix = False
        # Name of the storage backend executing reformulations ("memory",
        # "sqlite", "sharded", ...); examples and benchmarks flip engines
        # with this flag.  The default honours the MARS_BACKEND environment
        # variable, so the test suite can run its entire matrix per engine.
        self.backend: str = default_backend_name()
        # Sharded-backend defaults (used when backend == "sharded"):
        # shard_count None defers to the MARS_SHARDS environment variable;
        # partition_keys maps table name -> partition-key column (tables not
        # listed are broadcast to every shard); shard_children optionally
        # names the child engine(s), one spec or one per shard.
        self.shard_count: Optional[int] = None
        self.partition_keys: Dict[str, object] = {}
        self.shard_children: Optional[object] = None
        # Replicated-backend defaults (used when backend == "replicated"):
        # replica_count None defers to the MARS_REPLICAS environment
        # variable; replica_child names the engine each replica runs
        # ("memory", "sqlite", or "sharded" to replicate a whole sharded
        # store built from the sharding declarations above);
        # replica_selector picks the read-fan-out policy.
        self.replica_count: Optional[int] = None
        self.replica_child: Optional[object] = None
        self.replica_selector: Optional[object] = None
        # Serving defaults used by repro.serve.PublishingService: how many
        # pooled connections to hand out and how many cached plans to keep.
        self.pool_size: int = 4
        self.plan_cache_size: int = 128
        # Durability of the write path.  With log_dir set (or the
        # MARS_LOG_DIR environment variable), the service spools its
        # mutation log(s) to append-only segment files under that
        # directory and recovers acknowledged updates from them on
        # restart; None keeps the log in memory (updates die with the
        # process).  log_fsync picks the flush policy per appended record
        # ("always" survives power loss, "off" survives process death);
        # log_segment_bytes caps a segment file before it is sealed and
        # becomes eligible for checkpoint-gated compaction.
        self.log_dir: Optional[str] = os.environ.get("MARS_LOG_DIR") or None
        self.log_fsync: str = "always"
        self.log_segment_bytes: int = 1 << 20
        # Persistent plan artifacts.  With plan_dir set (or the
        # MARS_PLAN_DIR environment variable), compiled reformulations are
        # written to that directory as canonical plan artifacts
        # (repro.plan) and a restarted service serves previously compiled
        # queries without re-entering the C&B engine; None keeps plans
        # in-process only.
        self.plan_dir: Optional[str] = os.environ.get("MARS_PLAN_DIR") or None
        # Operational surface (repro.obs.http / audit / slo).  admin_port
        # None keeps the admin HTTP endpoint off; 0 binds an ephemeral
        # port (published as service.admin_port after start); the
        # MARS_ADMIN_PORT environment variable overrides.  audit_dir (or
        # MARS_AUDIT_DIR) enables the durable JSONL audit log of every
        # acknowledged publish/update; audit_fsync follows the mutation
        # log's policy vocabulary ("always" | "off").  slo_target_p99
        # None disables SLO tracking; set it to a seconds budget to get
        # per-query error-budget burn over slo_window_seconds.
        self.admin_port: Optional[int] = _env_int("MARS_ADMIN_PORT")
        self.audit_dir: Optional[str] = os.environ.get("MARS_AUDIT_DIR") or None
        self.audit_fsync: str = "off"
        self.audit_max_bytes: int = 1 << 20
        self.slo_target_p99: Optional[float] = None
        self.slo_window_seconds: float = 300.0
        # Monotonic declaration version.  Every mutation of the schema
        # correspondence (views, constraints, relations) bumps it; the plan
        # cache keys on it, and MarsSystem recompiles its derived artifacts
        # and flushes stale cached plans when it observes a newer version.
        self.version: int = 0

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------
    def _bump_version(self) -> None:
        """Record that the declared schema correspondence changed.

        Cached reformulation plans embed the version they were computed
        under, so bumping it makes every previously cached plan stale (see
        ``MarsSystem.reformulate``).
        """
        self.version += 1

    def add_public_document(
        self, name: str, instance: Optional[XMLDocument] = None
    ) -> None:
        """Declare a published (virtual) document, optionally with an instance."""
        self.public_documents[name] = instance
        self._bump_version()

    def add_proprietary_document(
        self, name: str, instance: Optional[XMLDocument] = None
    ) -> None:
        """Declare a stored native-XML document."""
        self.proprietary_documents[name] = instance
        self._bump_version()

    def publish_document_as_is(
        self, name: str, instance: Optional[XMLDocument] = None
    ) -> None:
        """Declare a stored document that is published unchanged (IdMap style)."""
        self.add_proprietary_document(name, instance)
        self.add_public_document(name, instance)

    def add_relation(
        self,
        name: str,
        attributes: Sequence[str],
        rows: Optional[Iterable[Sequence[object]]] = None,
    ) -> None:
        """Declare a proprietary relational table, optionally with data."""
        self.relational_schema.add_relation(name, attributes)
        if rows is not None:
            self.relational_data[name] = [tuple(row) for row in rows]
        self._bump_version()

    def set_partition_key(self, relation: str, column: object) -> None:
        """Declare the column the ``sharded`` backend splits *relation* on.

        *column* is an attribute name or a 0-based position.  Relations
        without a partition key are broadcast to every shard, so only the
        large, shardable tables need a declaration.  (Partitioning is a
        physical-layout hint: it does not change the schema correspondence,
        so it does not invalidate cached plans.)
        """
        self.partition_keys[relation] = column

    def add_key(self, relation: str, attributes: Sequence[str]) -> None:
        self.relational_schema.add_key(relation, attributes)
        self._bump_version()

    def add_foreign_key(
        self,
        source: str,
        source_attributes: Sequence[str],
        target: str,
        target_attributes: Sequence[str],
    ) -> None:
        self.relational_schema.add_foreign_key(
            source, source_attributes, target, target_attributes
        )
        self._bump_version()

    def add_relational_view(
        self, view: RelationalView, attributes: Optional[Sequence[str]] = None
    ) -> None:
        """Declare a materialized relational view (LAV redundancy for tuning)."""
        self.relational_views.append(view)
        if view.name not in self.relational_schema:
            names = attributes or [f"c{i}" for i in range(view.arity)]
            self.relational_schema.add_relation(view.name, names)
        self._bump_version()

    def add_xml_view(self, view: XMLView, published: bool = True) -> None:
        """Declare an XML-producing view.

        With ``published=True`` the output document becomes part of the public
        schema (GAV mapping); otherwise it is a stored cache document (LAV),
        and should also be registered as a proprietary document.
        """
        self.xml_views.append(view)
        if published:
            self.public_documents.setdefault(view.output_document, None)
        self._bump_version()

    def add_identity_view(self, view: IdentityView) -> None:
        self.identity_views.append(view)
        self._bump_version()

    def add_xic(self, xic: XIC) -> None:
        self.xics.append(xic)
        self._bump_version()

    def add_dependency(self, dependency: DED) -> None:
        self.extra_dependencies.append(dependency)
        self._bump_version()

    # ------------------------------------------------------------------
    # Storage backend factory
    # ------------------------------------------------------------------
    def create_backend(self, spec: Optional[object] = None, **kwargs: object):
        """Instantiate the storage backend executing this deployment's queries.

        *spec* overrides the configuration's :attr:`backend` name; it may be
        a registry name, a backend class, or a ready instance (see
        :func:`repro.storage.backends.create_backend`).  When the resolved
        spec is the ``sharded`` backend, the configuration's sharding
        declarations (:attr:`shard_count`, :attr:`partition_keys`,
        :attr:`shard_children`) are threaded through as defaults, so a
        deployment flips to horizontal partitioning by setting
        ``backend = "sharded"`` and declaring partition keys.
        """
        from ..storage.backends import create_backend

        spec = spec if spec is not None else self.backend
        if spec in ("sharded", "replicated"):
            # Composite backends build their own children thread-portable
            # and do not take check_same_thread; dropping it here (instead
            # of letting the constructor raise TypeError) matters because
            # the replicated-over-sharded expansion below constructs real
            # child stores — a raise-and-retry would leak them.
            kwargs.pop("check_same_thread", None)
        if spec == "sharded":
            kwargs.setdefault("shards", self.shard_count)
            kwargs.setdefault("partition_keys", dict(self.partition_keys))
            if self.shard_children is not None:
                kwargs.setdefault("children", self.shard_children)
        elif spec == "replicated":
            kwargs.setdefault("replicas", self.replica_count)
            if self.replica_selector is not None:
                kwargs.setdefault("selector", self.replica_selector)
            if "children" not in kwargs:
                child = kwargs.setdefault("child", self.replica_child)
                if child == "sharded":
                    # Each replica must be an independent sharded store
                    # built from this configuration's sharding declarations
                    # (partition keys, shard count), not a bare default —
                    # so the instances are constructed here, recursively.
                    from ..replica.backend import default_replica_count

                    count = kwargs.get("replicas") or default_replica_count()
                    kwargs.pop("child")
                    kwargs["replicas"] = count
                    kwargs["children"] = [
                        self.create_backend("sharded") for _ in range(count)
                    ]
        return create_backend(spec, **kwargs)

    # ------------------------------------------------------------------
    # Derived artifacts
    # ------------------------------------------------------------------
    def document_names(self) -> Tuple[str, ...]:
        seen: Dict[str, None] = {}
        for name in self.public_documents:
            seen.setdefault(name, None)
        for name in self.proprietary_documents:
            seen.setdefault(name, None)
        return tuple(seen)

    def grex_schemas(self) -> Dict[str, GrexSchema]:
        return {name: GrexSchema(name) for name in self.document_names()}

    def compiler(self) -> GrexCompiler:
        schemas = self.grex_schemas()
        default = None
        if len(schemas) == 1:
            default = next(iter(schemas))
        return GrexCompiler(schemas, default_document=default)

    def closure_specs(self) -> Tuple[ClosureSpec, ...]:
        return tuple(schema.closure_spec() for schema in self.grex_schemas().values())

    def dependencies(self) -> List[DED]:
        """Every DED the chase will use: TIX, XICs, views, relational constraints."""
        schemas = self.grex_schemas()
        compiler = self.compiler()
        dependencies: List[DED] = []
        dependencies.extend(
            tix_for_documents(schemas.values(), self.include_disjunctive_tix)
        )
        dependencies.extend(compile_xics(self.xics, compiler))
        for view in self.relational_views:
            dependencies.extend(view.compile(compiler))
        for view in self.xml_views:
            target = schemas.get(view.output_document)
            if target is None:
                raise SchemaError(
                    f"XML view {view.name}: output document {view.output_document!r} "
                    "is not declared"
                )
            dependencies.extend(view.compile(compiler, target))
        for view in self.identity_views:
            source = schemas.get(view.document)
            published = schemas.get(view.published_as)
            if source is None or published is None:
                raise SchemaError(
                    f"identity view {view.name}: documents {view.document!r} / "
                    f"{view.published_as!r} must both be declared"
                )
            if view.document != view.published_as:
                dependencies.extend(view.compile(source, published))
        dependencies.extend(self.relational_schema.dependencies())
        dependencies.extend(self.extra_dependencies)
        return dependencies

    def target_relations(self) -> Set[str]:
        """Relations a reformulation may mention: the proprietary schema."""
        schemas = self.grex_schemas()
        target: Set[str] = set()
        for name in self.proprietary_documents:
            target.update(schemas[name].relation_names())
        target.update(self.relational_schema.relation_names)
        return target

    def access_weights(self) -> Dict[str, float]:
        """Per-relation scan weights: overrides first, then every stored
        document's relations at ``xml_access_weight`` per node."""
        weights = dict(self.statistics.access_weights)
        schemas = self.grex_schemas()
        for name in self.proprietary_documents:
            for relation in schemas[name].relation_names():
                weights.setdefault(relation, self.xml_access_weight)
        return weights

    def build_statistics(self) -> StatisticsCatalog:
        """The declared statistics catalog :class:`MarsSystem` plans with.

        Administrator overrides in :attr:`statistics` win; stored documents
        cost ``xml_access_weight`` per node; relations declared *with data*
        get exact row and per-column distinct counts from the declared rows
        — unless an override changed the row count, in which case the
        declared rows are no longer trusted to describe the table.
        """
        overrides = self.statistics
        catalog = StatisticsCatalog(
            tables=overrides.tables,
            access_weights=self.access_weights(),
            default_row_count=overrides.default_row_count,
            default_weight=overrides.default_weight,
        )
        schemas = self.grex_schemas()
        for name, instance in self.proprietary_documents.items():
            if instance is None:
                continue
            node_count = instance.node_count()
            for relation in schemas[name].relation_names():
                if relation not in catalog:
                    catalog.set_cardinality(relation, node_count)
        for name, rows in self.relational_data.items():
            if name not in catalog or catalog.row_count(name) == len(rows):
                catalog.add(profile_rows(name, rows))
        # Materialized views without instance data get a modest default size:
        # they are maintained copies of published data, so they are expected
        # to be far cheaper to scan than navigating the native XML documents.
        for view in self.relational_views:
            if view.name not in catalog:
                catalog.set_cardinality(view.name, 200.0)
        return catalog
