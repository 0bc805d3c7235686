"""The MARS system facade: reformulating client queries end to end.

:class:`MarsSystem` wires a :class:`~repro.core.configuration.MarsConfiguration`
into the C&B engine (paper Figure 3): it compiles client XBind queries over
the public schema into conjunctive queries over GReX, chases them with the
compiled schema correspondence, XICs, TIX and relational constraints, and
backchases to find the minimal reformulations over the proprietary schema.
Each system owns one statistics-fed :class:`~repro.cost.model.CostModel`:
the backchase prunes with its monotone lower bound and the finished
candidates are ranked by its estimate (declared statistics by default;
:meth:`MarsSystem.attach_statistics` swaps in a catalog measured from a
live backend without touching the compiled configuration).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional

from ..cost.model import CostModel
from ..cost.statistics import StatisticsCatalog
from ..engine.cb import CBConfig, CBEngine
from ..errors import ReformulationError, SchemaError
from ..logical.dependencies import DED
from ..logical.queries import ConjunctiveQuery
from ..plan import (
    CanonicalFormError,
    PlanStore,
    canonical_reformulation,
    configuration_fingerprint,
    plan_identity,
    reformulation_from_canonical,
)
from ..storage.sql import render_sql
from ..xbind.query import XBindQuery
from .configuration import MarsConfiguration
from .reformulation import MarsReformulation


class MarsSystem:
    """Reformulates queries over the public schema into proprietary queries."""

    def __init__(
        self,
        configuration: MarsConfiguration,
        cb_config: Optional[CBConfig] = None,
        plan_cache: Optional["PlanCache"] = None,
        plan_store: Optional[PlanStore] = None,
    ):
        self.configuration = configuration
        self.cb_config = cb_config or CBConfig()
        # An optional LRU cache of finished reformulations (a
        # repro.serve.cache.PlanCache), keyed on the client query's
        # structural fingerprint plus the configuration version.  With a
        # cache attached, a repeated query skips compilation, chase and
        # backchase entirely.  None (the default) preserves uncached
        # behaviour.
        self.plan_cache = plan_cache
        # An optional disk-backed repro.plan.PlanStore consulted between
        # the in-process cache and the C&B engine.  A store hit decodes
        # the canonical artifact, re-ranks it under the current cost
        # model and re-renders SQL — no chase, no backchase; a fresh
        # compile is written back as an artifact.  Damage degrades to a
        # recompile, never to a wrong plan.
        self.plan_store = plan_store
        # Entries into the C&B engine (chase + backchase runs).  Cache and
        # store hits do not count: the restart-warm acceptance check — and
        # anyone measuring what the store actually saves — keys on this.
        self.engine_invocations = 0
        # One cost model (repro.cost) answers two questions.  The backchase
        # asks for its cheap, monotone lower bound: it prices every
        # candidate subquery and prunes supersets of expensive ones, which
        # is only sound when adding atoms never lowers the figure.  Its
        # estimate proper is join-order-aware and not monotone, so it never
        # steers the pruning: it ranks the finished minimal
        # reformulations.  The engines and the ranking share this one
        # object, so swapping its catalog reaches all of them.
        self.cost_model = CostModel(configuration.build_statistics())
        self._statistics_attached = False
        # Compiled artifacts are derived once per configuration version and
        # reused across queries; _recompile() refreshes them (and flushes
        # stale cached plans) when the configuration is edited afterwards.
        self._compile_artifacts()

    @property
    def catalog(self) -> StatisticsCatalog:
        """The statistics the cost model prices with."""
        return self.cost_model.catalog

    def _compile_artifacts(self) -> None:
        """Derive (or re-derive) every compiled artifact of the configuration.

        None of them depends on statistics: attaching a catalog keeps them.
        """
        configuration = self.configuration
        self._compiler = configuration.compiler()
        self._dependencies: List[DED] = configuration.dependencies()
        self._target_relations = configuration.target_relations()
        self._specs = configuration.closure_specs()
        self._engine = CBEngine(
            config=self.cb_config, cost_model=self.cost_model, specs=self._specs
        )
        # Engines for per-call `minimize` overrides, built lazily and cached:
        # rebuilding a CBEngine per reformulate() call is wasteful.
        self._override_engines: Dict[bool, CBEngine] = {}
        self._compiled_version = configuration.version
        # The content fingerprint of what was just compiled: plan-artifact
        # identities embed it, so artifacts from an older correspondence
        # are unreachable by construction.
        self._configuration_digest = configuration_fingerprint(
            configuration.version,
            self._dependencies,
            self._target_relations,
            self.cb_config,
        )

    def _recompile(self) -> None:
        """React to a configuration edit: refresh artifacts, flush stale plans.

        Views and constraints shape every reformulation, so cached plans
        computed under an older configuration version must not survive the
        edit.  Keys embed the version (a stale entry can never be *hit*);
        this additionally evicts the dead entries so they stop occupying
        LRU slots.
        """
        if not self._statistics_attached:
            # Re-derive declared statistics; an attached (collected) catalog
            # describes live instance data that a schema edit did not change,
            # so it is kept until the owner re-attaches a fresh one.
            self.cost_model.catalog = self.configuration.build_statistics()
        self._compile_artifacts()
        if self.plan_cache is not None:
            current = self._compiled_version
            self.plan_cache.evict_where(lambda key: key[0] != current)
        if self.plan_store is not None:
            # On-disk artifacts of the old correspondence are already
            # unreachable (identities embed the configuration digest);
            # pruning reclaims the directory.
            self.plan_store.prune_stale(self._configuration_digest)

    def attach_statistics(self, catalog: StatisticsCatalog) -> None:
        """Plan against *catalog* (normally collected from a live backend).

        Replaces the catalog of the system's one cost model, which the
        backchase prunes with and the ranking reads, and flushes every
        cached plan: a plan chosen under the old statistics may no longer
        be the cheapest, and pruning decides which minimal plans are found
        at all.  The compiled configuration depends on no statistics and is
        kept.  A :class:`~repro.serve.PublishingService` calls this at
        startup with the catalog measured from its freshly built backend.
        """
        self.cost_model.catalog = catalog
        self._statistics_attached = True
        if self.plan_cache is not None:
            self.plan_cache.evict_where(lambda key: True)

    # ------------------------------------------------------------------
    @property
    def configuration_digest(self) -> str:
        """The content fingerprint of the compiled configuration.

        Plan-artifact identities embed it; the golden-plan tooling reads
        it to label which correspondence a golden was compiled under.
        """
        return self._configuration_digest

    @property
    def dependencies(self) -> List[DED]:
        """The compiled DEDs of the configuration (TIX, XICs, views, keys)."""
        return list(self._dependencies)

    @property
    def target_relations(self):
        return set(self._target_relations)

    def compile_query(self, query: XBindQuery) -> ConjunctiveQuery:
        """Compile a client XBind query into a conjunctive query over GReX.

        Equalities are collapsed before the chase: no reformulation can
        match an ``x = y`` atom.  A body equating two distinct constants
        is unsatisfiable; it stays as compiled, and none is found.
        """
        compiled = self._compiler.compile_xbind(query)
        try:
            return compiled.normalize_equalities()
        except SchemaError:
            return compiled

    # ------------------------------------------------------------------
    def _rank_and_render(self, reformulation: MarsReformulation) -> None:
        """Rank the minimal reformulations and render SQL for the winner.

        The one place plan selection happens, shared by fresh compiles and
        store loads.  The backchase's monotone bound already guided the
        pruning; this pass is where join selectivities and access weights
        pick the winner among the survivors (stable on ties, so the
        incoming order breaks them deterministically).  Sets ``best``,
        ``best_cost``, ``cost_estimate``, ``candidate_costs`` and ``sql``
        on *reformulation*; one that found nothing is left as it is.
        """
        if reformulation.best is None:
            return
        ranked = self.cost_model.rank(list(reformulation.minimal) or [reformulation.best])
        reformulation.cost_estimate, reformulation.best = ranked[0]
        reformulation.best_cost = reformulation.cost_estimate.total
        reformulation.candidate_costs = tuple(
            (candidate.name, estimate.total) for estimate, candidate in ranked
        )
        reformulation.sql = render_sql(
            reformulation.best, self.configuration.relational_schema
        )

    def _load_from_store(
        self, identity: str, query: XBindQuery
    ) -> Optional[MarsReformulation]:
        """Rebuild a servable reformulation from the plan store, or ``None``.

        A decodable artifact comes back re-ranked under the *current*
        cost model and with freshly rendered SQL — the store persists
        what the compile proved, never what yesterday's statistics
        preferred.  An artifact whose JSON parsed but whose body cannot
        be rebuilt is quarantined exactly like torn bytes.
        """
        artifact = self.plan_store.load(identity)
        if artifact is None:
            return None
        try:
            reformulation = reformulation_from_canonical(artifact, query)
        except CanonicalFormError as error:
            self.plan_store.mark_corrupt(identity, reason=str(error))
            return None
        self._rank_and_render(reformulation)
        return reformulation

    def _save_to_store(
        self, identity: str, reformulation: MarsReformulation, minimize: bool
    ) -> None:
        """Persist a freshly compiled plan as a canonical artifact."""
        artifact = canonical_reformulation(reformulation)
        artifact["configuration"] = self._configuration_digest
        artifact["query_digest"] = reformulation.query.fingerprint_digest()
        artifact["minimize"] = bool(minimize)
        self.plan_store.save(identity, artifact)

    # ------------------------------------------------------------------
    def reformulate(
        self,
        query: XBindQuery,
        minimize: Optional[bool] = None,
    ) -> MarsReformulation:
        """Reformulate *query* against the proprietary schema.

        When *minimize* is ``False`` only the initial reformulation is
        produced (the paper's "switch off the backchase" mode); the default
        follows the engine configuration.

        The minimal reformulations are ranked by the system's
        :class:`~repro.cost.model.CostModel`: ``best``/``best_cost`` come
        from that ranking, ``cost_estimate`` carries the structured
        estimate of the winner and ``candidate_costs`` the full priced
        field, cheapest first.

        With a :attr:`plan_cache` attached, the finished
        :class:`MarsReformulation` is memoized on the configuration
        version, the query fingerprint and the effective minimize mode;
        cached results are returned as-is (they are treated as immutable).
        Editing the configuration (new views, constraints, relations) bumps
        its version: the next call recompiles the derived artifacts and
        flushes every cache entry of the older version, so a stale plan
        cannot survive a configuration edit.

        With a :attr:`plan_store` attached, a cache miss consults the
        disk-backed store before compiling: the content-derived identity
        (query fingerprint digest + configuration fingerprint + minimize
        mode) addresses a canonical artifact that decodes into the same
        plan a fresh compile would produce — re-ranked under the current
        cost model, with freshly rendered SQL, and without entering the
        C&B engine (:attr:`engine_invocations` does not move).  Fresh,
        complete compiles are written back (a search truncated at
        ``max_inspected`` is cached in memory but never persisted as the
        normative plan); stale or damaged artifacts fall back to
        compilation.
        """
        if self.configuration.version != self._compiled_version:
            self._recompile()
        effective_minimize = (
            self.cb_config.minimize if minimize is None else minimize
        )
        cache_key = None
        if self.plan_cache is not None:
            cache_key = (
                self._compiled_version,
                query.fingerprint(),
                effective_minimize,
            )
            cached = self.plan_cache.get(cache_key)
            if cached is not None:
                return cached
        identity = None
        if self.plan_store is not None:
            # The identity is a function of the compile's *inputs* — this
            # lookup costs a digest and a file read, never a compile.
            identity = plan_identity(
                query.fingerprint_digest(),
                self._configuration_digest,
                effective_minimize,
            )
            loaded = self._load_from_store(identity, query)
            if loaded is not None:
                if cache_key is not None:
                    self.plan_cache.put(cache_key, loaded)
                return loaded
        compiled = self.compile_query(query)
        engine = self._engine
        if minimize is not None and minimize != self.cb_config.minimize:
            engine = self._override_engines.get(minimize)
            if engine is None:
                config = replace(self.cb_config, minimize=minimize)
                engine = CBEngine(
                    config=config, cost_model=self.cost_model, specs=self._specs
                )
                self._override_engines[minimize] = engine
        self.engine_invocations += 1
        result = engine.reformulate(
            compiled, self._dependencies, target_relations=self._target_relations
        )
        reformulation = MarsReformulation.from_cb_result(query, compiled, result)
        self._rank_and_render(reformulation)
        if identity is not None and reformulation.complete:
            self._save_to_store(identity, reformulation, effective_minimize)
        if cache_key is not None:
            # Negative results are cached too: "no reformulation exists" is
            # just as expensive to recompute.
            self.plan_cache.put(cache_key, reformulation)
        return reformulation

    def reformulate_or_fail(self, query: XBindQuery) -> MarsReformulation:
        """Like :meth:`reformulate` but raise when no reformulation exists."""
        reformulation = self.reformulate(query)
        if not reformulation.found:
            raise ReformulationError(
                f"no reformulation of {query.name} against the proprietary schema exists"
            )
        return reformulation

    # ------------------------------------------------------------------
    def executor(self, backend: Optional[object] = None) -> "MarsExecutor":
        """Build a :class:`MarsExecutor` for this configuration.

        *backend* selects the storage backend running reformulations
        (``"memory"``, ``"sqlite"``, a backend class or instance); ``None``
        defers to ``configuration.backend``.
        """
        from .executor import MarsExecutor

        return MarsExecutor(self.configuration, backend=backend)

    def service(self, **kwargs: object) -> "PublishingService":
        """Build a thread-safe :class:`~repro.serve.PublishingService`.

        The service reuses this system (and attaches a plan cache to it if
        none is present); keyword arguments are forwarded — ``backend``,
        ``pool_size``, ``cache_size``, ``admin_port``, ...
        """
        from ..serve import PublishingService

        return PublishingService(self.configuration, system=self, **kwargs)
