"""The statistics + cost subsystem: collection, estimation, plan/route choice.

Four claims are pinned down here:

1. every backend can measure a :class:`StatisticsCatalog` of its own data
   (the SQLite backend through exact ``COUNT`` queries, whatever indexes
   exist, the sharded backend by merging its children's catalogs);
2. the :class:`CostModel` cardinality estimates track reality within sane
   bounds on the randomized differential workload;
3. ``MarsSystem.reformulate`` picks its plan by modeled cost — including a
   case where the statistics-blind (rule-based) choice and the cost-based
   choice *differ*;
4. the cost-based :class:`ShardRouter` overrides scatter with gather when
   the model says so, surfaces chosen-vs-alternative estimates, and still
   prunes partition-key-bound queries to exactly one shard.
"""

import math
import re
from pathlib import Path

import pytest

from repro.core import MarsExecutor, MarsSystem
from repro.cost import CostModel, CostParameters, StatisticsCatalog, profile_rows
from repro.engine import CBEngine
from repro.logical.atoms import RelationalAtom
from repro.logical.queries import ConjunctiveQuery
from repro.logical.terms import Constant, Variable
from repro.serve import PublishingService
from repro.shard import MODE_GATHER, MODE_SCATTER, MODE_SINGLE, ShardedBackend
from repro.storage.backends import MemoryBackend, SQLiteBackend
from repro.workloads import medical, star, xmark
from repro.workloads.star import StarParameters

ORDERS = [(f"c{i % 4}", i, i % 6) for i in range(24)]
CITIES = [(i, f"city{i % 3}") for i in range(6)]


def load(backend):
    backend.create_table("orders", 3, ("customer", "order_id", "qty"))
    backend.create_table("cities", 2, ("city_id", "city"))
    backend.insert_many("orders", ORDERS)
    backend.insert_many("cities", CITIES)
    return backend


# ----------------------------------------------------------------------
# Statistics collection on every backend
# ----------------------------------------------------------------------
class TestStatisticsCollection:
    def test_memory_backend_profiles_exactly(self):
        backend = load(MemoryBackend())
        catalog = backend.collect_statistics()
        orders = catalog.table("orders")
        assert orders.row_count == 24.0
        assert orders.distinct_counts == (4.0, 24.0, 6.0)
        assert catalog.table("cities").row_count == 6.0
        backend.close()

    def test_sqlite_backend_matches_memory(self):
        # Skewed data in an indexed column: one value ten times plus five
        # singletons.  sqlite_stat1's "nrow navg" (15 rows, 3 per value on
        # average) would read 5 distinct values where there are 6.
        events = [("hot", n) for n in range(10)] + [
            (f"cold{n}", 10 + n) for n in range(5)
        ]
        backends = []
        for backend in (MemoryBackend(), SQLiteBackend()):
            load(backend)
            backend.create_table("events", 2, ("kind", "seq"))
            backend.insert_many("events", events)
            backends.append(backend)
        memory, sqlite = backends
        # The indexes and their sqlite_stat1 rows feed SQLite's join order
        # only; the catalog stays the exact counts memory reports.
        i, q, n = Variable("i"), Variable("q"), Variable("n")
        for atom in (
            RelationalAtom("orders", (Constant("c1"), i, q)),
            RelationalAtom("events", (Constant("hot"), n)),
        ):
            sqlite.ensure_indexes(ConjunctiveQuery("probe", (), (atom,)))
        expected = memory.collect_statistics()
        assert expected.table("events").distinct_counts == (6.0, 15.0)
        collected = sqlite.collect_statistics()
        for name in ("orders", "cities", "events"):
            assert collected.table(name).row_count == expected.table(name).row_count
            assert (
                collected.table(name).distinct_counts
                == expected.table(name).distinct_counts
            )
        memory.close()
        sqlite.close()

    def test_sharded_backend_merges_children(self):
        backend = ShardedBackend(
            shards=3,
            children=("memory", "sqlite", "memory"),
            partition_keys={"orders": "customer"},
        )
        load(backend)
        catalog = backend.collect_statistics()
        orders = catalog.table("orders")
        # Partitioned: fragments sum to the full table; the key column's
        # distinct counts are disjoint across shards and add up exactly.
        assert sum(orders.fragment_rows) == 24.0
        assert orders.row_count == 24.0
        assert orders.distinct_counts[0] == 4.0
        # Broadcast: complete on every shard, one copy's numbers are used.
        cities = catalog.table("cities")
        assert cities.row_count == 6.0
        assert cities.fragment_rows == (6.0, 6.0, 6.0)
        backend.close()


# ----------------------------------------------------------------------
# The cost model itself
# ----------------------------------------------------------------------
class TestCostModel:
    def model(self):
        return CostModel(
            StatisticsCatalog.from_rows({"orders": ORDERS, "cities": CITIES})
        )

    def test_full_scan_estimates_exact_rows(self):
        i, q, c = Variable("i"), Variable("q"), Variable("c")
        query = ConjunctiveQuery("scan", (i,), (RelationalAtom("orders", (c, i, q)),))
        estimate = self.model().estimate(query)
        assert estimate.cardinality == 24.0
        assert estimate.total == 24.0  # scan only, no joins

    def test_constant_selection_divides_by_distinct(self):
        i, q = Variable("i"), Variable("q")
        query = ConjunctiveQuery(
            "point", (i,), (RelationalAtom("orders", (Constant("c1"), i, q)),)
        )
        # 24 rows / 4 distinct customers = 6 estimated rows.
        assert self.model().estimate(query).cardinality == 6.0

    def test_join_selectivity_from_distinct_counts(self):
        i, q, w = Variable("i"), Variable("q"), Variable("w")
        query = ConjunctiveQuery(
            "join",
            (w,),
            (
                RelationalAtom("orders", (w, i, q)),
                RelationalAtom("cities", (i, w)),
            ),
        )
        estimate = self.model().estimate(query)
        # Hand-checked System-R arithmetic: two shared variables, one with
        # 24 distinct values (orders.order_id/cities.city_id) and one with
        # 4 vs 3 (customer/city): 24 * 6 / 24 / 4 = 1.5.
        assert estimate.cardinality == pytest.approx(1.5)
        assert estimate.scan_cost == 30.0
        assert estimate.join_cost == pytest.approx(1.5)

    def test_rank_disagrees_with_scan_cost_on_weak_joins(self):
        """Join-order awareness: scan-sum ranking and model ranking differ."""
        catalog = StatisticsCatalog.from_rows(
            {
                # key-joined pair: 60 rows each, join column is a key
                "K1": [(i, i) for i in range(60)],
                "K2": [(i, -i) for i in range(60)],
                # weak-joined pair: 50 rows each, join column has 2 values
                "W1": [(i % 2, i) for i in range(50)],
                "W2": [(i % 2, -i) for i in range(50)],
            }
        )
        x, y, z = Variable("x"), Variable("y"), Variable("z")
        keyed = ConjunctiveQuery(
            "keyed", (y,), (RelationalAtom("K1", (x, y)), RelationalAtom("K2", (x, z)))
        )
        weak = ConjunctiveQuery(
            "weak", (y,), (RelationalAtom("W1", (x, y)), RelationalAtom("W2", (x, z)))
        )
        scan_sum = CostModel(catalog).lower_bound
        assert scan_sum(weak) < scan_sum(keyed)
        ranked = CostModel(catalog).rank([keyed, weak])
        assert ranked[0][1] is keyed  # 1250 intermediate rows vs 60

    def test_estimates_track_actuals_on_random_workload(self, query_generator):
        """Sanity bounds: estimated vs actual cardinality on real data."""
        configuration = medical.build_configuration()
        executor = MarsExecutor(configuration, backend="memory")
        model = CostModel(executor.collect_statistics())
        generator = query_generator(executor.backend, seed=20260725)
        checked = 0
        log_errors = []
        for index in range(40):
            query = generator.conjunctive(f"est{index}")
            actual = len(executor.backend.execute(query, distinct=False))
            estimate = model.cardinality(query)
            cross_product = 1.0
            for atom in query.relational_body:
                cross_product *= max(1.0, model.estimate_rows(atom.relation))
            assert estimate >= 1.0
            assert estimate <= cross_product
            if actual:
                log_errors.append(abs(math.log10(estimate / actual)))
                checked += 1
        assert checked >= 10, "generator produced too few non-empty answers"
        # Uniformity assumptions are wrong in places, but the estimates must
        # stay in the right ballpark: median within ~1 order of magnitude.
        log_errors.sort()
        assert log_errors[len(log_errors) // 2] <= 1.0
        executor.close()


# ----------------------------------------------------------------------
# One model, two questions: the monotone bound and the ranking estimate
# ----------------------------------------------------------------------
INVARIANT_WORKLOADS = {
    "medical": medical.build_configuration,
    "star": lambda: star.build_configuration(
        StarParameters(corners=2), with_instance=True
    ),
    "xmark": xmark.build_configuration,
}


@pytest.fixture(params=sorted(INVARIANT_WORKLOADS))
def model_and_queries(request, query_generator):
    """A collected-catalog model plus 80 seeded random queries per workload."""
    executor = MarsExecutor(INVARIANT_WORKLOADS[request.param](), backend="memory")
    model = CostModel(executor.collect_statistics())
    generator = query_generator(executor.backend, seed=18, max_atoms=4)
    queries = [generator.conjunctive(f"{request.param}{i}") for i in range(80)]
    executor.close()
    return model, queries


class TestOneModelTwoQuestions:
    def test_adding_an_atom_never_lowers_the_bound(self, model_and_queries):
        """Monotonicity — what makes cost-pruning the backchase sound."""
        model, queries = model_and_queries
        extra_atoms = [query.relational_body[0] for query in queries[:10]]
        for query in queries:
            bound = model.lower_bound(query)
            for atom in extra_atoms:
                grown = ConjunctiveQuery(query.name, query.head, query.body + (atom,))
                assert model.lower_bound(grown) >= bound, (query, atom)

    def test_bound_never_exceeds_the_ranking_estimate(self, model_and_queries):
        model, queries = model_and_queries
        for query in queries:
            assert model.lower_bound(query) <= model.estimate(query).total, query

    def test_pipeline_ends_at_the_estimate_when_orders_coincide(
        self, model_and_queries
    ):
        """Same per-step function: textual order == greedy order => same number."""
        model, queries = model_and_queries
        joins_checked = 0
        for query in queries:
            atoms, effective, selectivities = model._step_inputs(query, None)
            order = model._greedy_plan(atoms, effective, selectivities)[2]
            steps = model.pipeline(query)
            assert len(steps) == len(atoms)
            if order == tuple(range(len(atoms))):
                assert steps[-1] == model.estimate(query).cardinality, query
                joins_checked += len(atoms) > 1
        assert joins_checked >= 3, "no multi-atom query kept its textual order"


class TestEstimationLivesInReproCost:
    """Statistics turn into numbers in ``repro.cost`` only: a second
    estimator, a revived legacy statistics record or a second distinct-count
    probe in the SQLite backend fails here."""

    SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
    OFFENCE = re.compile(r"\bselectivity\b|storage\.statistics|from \.+statistics import")
    DISTINCT_PROBE = "SELECT COUNT(DISTINCT"

    def test_source_scan(self):
        offenders = []
        paths = sorted(
            path
            for path in self.SRC.rglob("*.py")
            if self.SRC / "cost" not in path.parents
        )
        assert paths, f"nothing to scan under {self.SRC}"
        for path in paths:
            for number, line in enumerate(path.read_text().splitlines(), start=1):
                if self.OFFENCE.search(line):
                    offenders.append(
                        f"{path.relative_to(self.SRC)}:{number}: {line.strip()}"
                    )
        assert not offenders, "\n".join(offenders)

    def test_sqlite_counts_distinct_values_in_one_place(self):
        source = (self.SRC / "storage" / "backends" / "sqlite.py").read_text()
        assert source.count(self.DISTINCT_PROBE) == 1

    def test_the_scan_catches_what_it_is_for(self):
        assert self.OFFENCE.search("selectivity /= max(1, distinct_values)")
        assert self.OFFENCE.search("from ..storage.statistics import TableStatistics")
        assert self.OFFENCE.search("from .statistics import TableStatistics")
        assert not self.OFFENCE.search("from ..cost.statistics import StatisticsCatalog")
        assert not self.OFFENCE.search("join selectivities pick the winner")


# ----------------------------------------------------------------------
# Cost-based plan selection in MarsSystem
# ----------------------------------------------------------------------
class TestCostBasedPlanSelection:
    def star_configuration(self):
        parameters = StarParameters(corners=2)
        configuration = star.build_configuration(parameters)
        # Declared statistics: the redundant view is huge, the shredded
        # base tables are small (the administrator knows the view blew up).
        configuration.statistics.set_cardinality("V1", 500_000.0)
        configuration.statistics.set_cardinality("R_store", 40.0)
        configuration.statistics.set_cardinality("S1_store", 20.0)
        configuration.statistics.set_cardinality("S2_store", 20.0)
        return parameters, configuration

    def test_rule_based_and_cost_based_choices_differ(self):
        parameters, configuration = self.star_configuration()
        query = star.client_query(parameters)

        cost_system = MarsSystem(configuration)

        # Rule-based: over an empty catalog the backchase's bound reduces
        # to the syntactic heuristic "fewer atoms is cheaper" and the
        # engine grabs the single-view plan.
        blind = CBEngine(specs=configuration.closure_specs(), cost_model=CostModel())
        rule_best = blind.reformulate(
            cost_system.compile_query(query),
            cost_system.dependencies,
            target_relations=cost_system.target_relations,
        ).best
        assert "V1" in rule_best.relation_names()

        # Cost-based (the default): the declared statistics price the view
        # plan at ~500k and the base-table join at a few hundred.
        reformulation = cost_system.reformulate(query)
        assert "V1" not in reformulation.best.relation_names()
        assert {"R_store", "S1_store", "S2_store"} <= set(
            reformulation.best.relation_names()
        )

    def test_estimate_recorded_in_cached_plan(self):
        from repro.serve import PlanCache

        parameters, configuration = self.star_configuration()
        query = star.client_query(parameters)
        system = MarsSystem(configuration, plan_cache=PlanCache(maxsize=8))
        reformulation = system.reformulate(query)
        assert reformulation.cost_estimate is not None
        assert reformulation.best_cost == reformulation.cost_estimate.total
        # Every ranked candidate is recorded, cheapest first; the huge view
        # plan appears with its repellent price tag.
        assert len(reformulation.candidate_costs) >= 2
        costs = [cost for _name, cost in reformulation.candidate_costs]
        assert costs == sorted(costs)
        assert costs[-1] >= 500_000.0
        # The ranked result is what the cache serves back.
        cached = system.reformulate(query)
        assert cached is reformulation

    def test_attach_statistics_replaces_declared_numbers(self):
        parameters, configuration = self.star_configuration()
        query = star.client_query(parameters)
        system = MarsSystem(configuration)
        assert "V1" not in system.reformulate(query).best.relation_names()
        # Measured statistics contradict the declarations: the view is in
        # fact tiny and the base tables huge.
        catalog = configuration.build_statistics()
        catalog.add(profile_rows("V1", [(i, i, i) for i in range(5)]))
        for name in ("R_store", "S1_store", "S2_store"):
            catalog.add(profile_rows(name, [(i, i % 7) for i in range(3000)]))
        system.attach_statistics(catalog)
        assert "V1" in system.reformulate(query).best.relation_names()


# ----------------------------------------------------------------------
# Cost-based shard routing
# ----------------------------------------------------------------------
def broadcast_heavy_backend(shards=4):
    """A small partitioned table joined against a big broadcast table."""
    backend = ShardedBackend(
        shards=shards,
        children="memory",
        partition_keys={"P": "k"},
    )
    backend.create_table("P", 2, ("k", "v"))
    backend.create_table("B", 2, ("v", "w"))
    backend.insert_many("P", [(i, i % 4) for i in range(8)])
    backend.insert_many("B", [(i % 4, i) for i in range(2000)])
    return backend


def co_partitioned_query():
    k, v, w = Variable("k"), Variable("v"), Variable("w")
    return ConjunctiveQuery(
        "co", (k, w), (RelationalAtom("P", (k, v)), RelationalAtom("B", (v, w)))
    )


class TestCostBasedRouting:
    def test_model_overrides_scatter_with_gather(self):
        backend = broadcast_heavy_backend()
        query = co_partitioned_query()
        # Fixed rules: co-partitioned (single partitioned table) => scatter.
        assert backend.router.route(query).mode == MODE_SCATTER
        expected = sorted(backend.execute(query))
        backend.refresh_statistics()
        decision = backend.router.route(query)
        # Modeled: scatter re-scans the 2000-row broadcast table on every
        # shard; gather ships 8 partitioned rows and scans it once.
        assert decision.mode == MODE_GATHER
        assert decision.cost_based
        assert decision.alternative_mode == MODE_SCATTER
        assert decision.estimated_cost < decision.alternative_cost
        assert "gather modeled cheaper" in decision.reason
        # Same answers either way — gather is always sound.
        assert sorted(backend.execute(query)) == expected
        stats = backend.stats().router
        assert stats.cost_based >= 1
        assert stats.cost_overrides >= 1
        backend.close()

    def test_model_keeps_scatter_when_it_is_cheaper(self):
        backend = ShardedBackend(
            shards=3, children="memory", partition_keys={"P": "k", "Q": "k"}
        )
        backend.create_table("P", 2, ("k", "v"))
        backend.create_table("Q", 2, ("k", "w"))
        backend.insert_many("P", [(i, i) for i in range(3000)])
        backend.insert_many("Q", [(i, -i) for i in range(3000)])
        backend.refresh_statistics()
        k, v, w = Variable("k"), Variable("v"), Variable("w")
        query = ConjunctiveQuery(
            "co2", (v, w), (RelationalAtom("P", (k, v)), RelationalAtom("Q", (k, w)))
        )
        decision = backend.router.route(query)
        # Both sides shard on the join key: scattering splits the join work
        # three ways, gathering would ship all 6000 rows to one place.
        assert decision.mode == MODE_SCATTER
        assert decision.cost_based
        assert decision.alternative_mode == MODE_GATHER
        assert decision.estimated_cost < decision.alternative_cost
        backend.close()

    def test_key_bound_query_still_routes_to_one_shard(self):
        """Regression: cost-based routing must not undo shard pruning."""
        backend = broadcast_heavy_backend()
        backend.refresh_statistics()
        v = Variable("v")
        query = ConjunctiveQuery(
            "kb", (v,), (RelationalAtom("P", (Constant(3), v)),)
        )
        before = backend.stats()
        rows = backend.execute(query)
        after = backend.stats()
        assert rows  # the constant exists in the data
        # Serving skips the single-shard annotation (hot path); asking for
        # it (as explain does) fills in the estimate.
        assert backend.router.route(query).estimated_cost is None
        decision = backend.router.route(query, annotate=True)
        assert decision.mode == MODE_SINGLE
        assert len(decision.shards) == 1
        assert decision.estimated_cost is not None
        assert after.router.single_shard - before.router.single_shard == 1
        executed = sum(after.executions_per_shard) - sum(before.executions_per_shard)
        assert executed == 1
        backend.close()

    def test_explain_surfaces_chosen_vs_alternative_costs(self, explain):
        backend = broadcast_heavy_backend()
        backend.refresh_statistics()
        text = explain(backend, co_partitioned_query())
        assert "estimated_cost=" in text
        assert "rejected_mode='scatter'" in text
        assert "rejected_cost=" in text
        backend.close()

    def test_clone_inherits_the_cost_model(self):
        backend = broadcast_heavy_backend()
        backend.refresh_statistics()
        clone = backend.clone()
        try:
            assert clone.router.route(co_partitioned_query()).mode == MODE_GATHER
        finally:
            clone.close()
            backend.close()

    def test_parameters_can_flip_the_choice(self):
        """The comparison really reads the model: pricey fetches favour scatter."""
        backend = broadcast_heavy_backend()
        catalog = backend.refresh_statistics()
        query = co_partitioned_query()
        assert backend.router.route(query).mode == MODE_GATHER
        # Same statistics, but shipping a row now costs a fortune: the
        # broadcast-heavy case that gather just won flips back to scatter.
        pricey = CostModel(catalog, CostParameters(fetch_cost_per_row=1000.0))
        backend.router.set_cost_model(pricey)
        decision = backend.router.route(query)
        assert decision.mode == MODE_SCATTER
        assert decision.cost_based
        backend.close()


# ----------------------------------------------------------------------
# Service-level surfacing
# ----------------------------------------------------------------------
class TestServiceSurfacing:
    def test_sharded_service_reports_cost_counters(self):
        configuration = medical.build_configuration()
        configuration.backend = "sharded"
        configuration.shard_count = 3
        with PublishingService(configuration, pool_size=2) as service:
            rows = service.publish(medical.client_query())
            assert rows
            router = service.stats().router
            assert router is not None
            assert router.queries >= 1
            assert router.cost_based >= 0
            assert router.cost_overrides <= router.cost_based
            # The template router got its model from the executor build.
            assert service.executor.backend.router.cost_model is not None
            # The system plans against the measured catalog.
            assert service.system.catalog is service_catalog(service)

    def test_executor_collect_statistics_remeasures_after_bulk_loads(self):
        """Regression: the sharded build-time catalog must not be served stale."""
        configuration = medical.build_configuration()
        configuration.backend = "sharded"
        configuration.shard_count = 2
        executor = MarsExecutor(configuration)
        table = executor.backend.table_names[0]
        built = executor.collect_statistics().row_count(table)
        rows = [tuple(row) for row in executor.backend.rows(table)]
        executor.backend.insert_many(table, rows)  # double the table
        fresh = executor.collect_statistics()
        assert fresh.row_count(table) == 2 * built
        # The router's model was re-fed in the same pass.
        assert executor.backend.statistics_catalog is fresh
        executor.close()

    def test_service_refresh_can_be_disabled(self):
        configuration = medical.build_configuration()
        with PublishingService(
            configuration, pool_size=1, refresh_statistics=False
        ) as service:
            assert not service.system._statistics_attached
            assert service.publish(medical.client_query())


def service_catalog(service):
    return service.system.catalog
