"""The sharding subsystem: partitioners, router pruning, scatter/gather.

The acceptance-critical test is
``test_key_bound_query_executes_on_exactly_one_shard``: a query binding the
partition key to a constant must be pruned to a single shard, proven
through the backend's per-shard execution counters, not just the routing
decision.
"""

import ast
import re
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core import MarsConfiguration, MarsExecutor, MarsSystem
from repro.cost import CostModel
from repro.errors import EvaluationError, SchemaError, StorageError
from repro.logical.atoms import InequalityAtom, RelationalAtom
from repro.logical.queries import ConjunctiveQuery
from repro.logical.terms import Constant, Variable
from repro.obs import operator_root
from repro.profile import EXECUTE, SHARD_FRAGMENT
from repro.replica import ChangeSet
from repro.serve import PublishingService
from repro.shard import (
    MODE_GATHER,
    MODE_SCATTER,
    MODE_SINGLE,
    HashPartitioner,
    RangePartitioner,
    ShardedBackend,
    merge_rows,
    stable_hash,
)
from repro.storage.backends import (
    MemoryBackend,
    SQLiteBackend,
    available_backends,
    create_backend,
)
from repro.workloads import medical, xmark
from repro.workloads.xmark import XMarkParameters


def multiset(rows):
    return sorted(map(repr, rows))


# ----------------------------------------------------------------------
# Partitioners
# ----------------------------------------------------------------------
class TestPartitioners:
    def test_stable_hash_is_deterministic(self):
        # CRC-32 of the repr: process- and run-independent, unlike str hash
        assert stable_hash("ana") == stable_hash("ana")
        assert stable_hash(("a", 1)) == stable_hash(("a", 1))

    def test_hash_partitioner_covers_all_shards(self):
        partitioner = HashPartitioner()
        shards = {partitioner.shard_of(f"v{i}", 4) for i in range(200)}
        assert shards == {0, 1, 2, 3}

    def test_hash_partitioners_are_co_partition_compatible(self):
        assert HashPartitioner().compatible_with(HashPartitioner())
        assert not HashPartitioner().compatible_with(RangePartitioner(("m",)))

    def test_range_partitioner_boundaries(self):
        partitioner = RangePartitioner(("g", "p"))
        assert partitioner.shard_of("a", 3) == 0
        assert partitioner.shard_of("g", 3) == 1  # boundary is exclusive upper
        assert partitioner.shard_of("k", 3) == 1
        assert partitioner.shard_of("z", 3) == 2
        # more boundaries than shards: clamp to the last shard
        assert RangePartitioner((1, 2, 3, 4)).shard_of(100, 2) == 1

    def test_range_partitioner_rejects_unsorted(self):
        with pytest.raises(StorageError):
            RangePartitioner(("z", "a"))

    def test_range_partitioner_incomparable_value(self):
        with pytest.raises(StorageError):
            RangePartitioner(("a", "b")).shard_of(3.5, 2)


# ----------------------------------------------------------------------
# Construction and the registry
# ----------------------------------------------------------------------
class TestShardedConstruction:
    def test_registered_backend_name(self):
        assert "sharded" in available_backends()
        backend = create_backend("sharded", shards=3)
        assert isinstance(backend, ShardedBackend)
        assert backend.shard_count == 3
        backend.close()

    def test_mars_shards_environment_default(self, monkeypatch):
        monkeypatch.setenv("MARS_SHARDS", "5")
        backend = ShardedBackend()
        assert backend.shard_count == 5
        backend.close()
        monkeypatch.setenv("MARS_SHARDS", "zero")
        with pytest.raises(StorageError):
            ShardedBackend()
        monkeypatch.setenv("MARS_SHARDS", "0")
        with pytest.raises(StorageError):
            ShardedBackend()
        monkeypatch.delenv("MARS_SHARDS")
        backend = ShardedBackend()
        assert backend.shard_count == 2
        backend.close()

    def test_mixed_children(self):
        backend = ShardedBackend(children=("memory", "sqlite"))
        assert isinstance(backend.children[0], MemoryBackend)
        assert isinstance(backend.children[1], SQLiteBackend)
        assert backend.shard_count == 2
        backend.close()

    def test_child_count_mismatch_rejected(self):
        with pytest.raises(StorageError):
            ShardedBackend(shards=3, children=("memory", "sqlite"))
        with pytest.raises(StorageError):
            ShardedBackend(children=())

    def test_nested_sharding_rejected(self):
        with pytest.raises(StorageError):
            ShardedBackend(shards=2, children="sharded")

    def test_configuration_threads_sharding_defaults(self):
        configuration = MarsConfiguration("conf")
        configuration.backend = "sharded"
        configuration.shard_count = 3
        configuration.shard_children = ("memory", "memory", "sqlite")
        configuration.set_partition_key("r", "a")
        backend = configuration.create_backend()
        assert isinstance(backend, ShardedBackend)
        assert backend.shard_count == 3
        backend.create_table("r", 2, ("a", "b"))
        spec = backend.partition_spec("r")
        assert spec is not None and spec.column == "a" and spec.position == 0
        backend.close()

    def test_unknown_partition_column_rejected(self):
        backend = ShardedBackend(shards=2, partition_keys={"r": "nope", "s": 7})
        with pytest.raises(SchemaError):
            backend.create_table("r", 2, ("a", "b"))
        with pytest.raises(SchemaError):
            backend.create_table("s", 2, ("a", "b"))
        backend.close()


def build_backend(shards=3, children="memory", **kwargs):
    backend = ShardedBackend(
        shards=shards,
        children=children,
        partition_keys={"orders": "customer", "customers": "name"},
        **kwargs,
    )
    backend.create_table("orders", 3, ("customer", "item", "qty"))
    backend.create_table("customers", 2, ("name", "city"))
    backend.create_table("cities", 2, ("city", "country"))  # broadcast
    customers = [(f"c{i}", f"city{i % 4}") for i in range(12)]
    orders = [
        (f"c{i % 12}", f"item{i % 5}", i % 7) for i in range(60)
    ]
    cities = [(f"city{i}", "xy") for i in range(4)]
    backend.insert_many("customers", customers)
    backend.insert_many("orders", orders)
    backend.insert_many("cities", cities)
    return backend, customers, orders, cities


def memory_oracle(customers, orders, cities):
    oracle = MemoryBackend()
    oracle.create_table("orders", 3, ("customer", "item", "qty"))
    oracle.create_table("customers", 2, ("name", "city"))
    oracle.create_table("cities", 2, ("city", "country"))
    oracle.insert_many("customers", customers)
    oracle.insert_many("orders", orders)
    oracle.insert_many("cities", cities)
    return oracle


# ----------------------------------------------------------------------
# Data distribution
# ----------------------------------------------------------------------
class TestDataDistribution:
    def test_partitioned_fragments_are_disjoint_and_complete(self):
        backend, customers, orders, _cities = build_backend()
        fragments = backend.fragment_cardinalities("orders")
        assert sum(fragments) == len(orders)
        assert all(count < len(orders) for count in fragments)
        assert multiset(backend.rows("orders")) == multiset(orders)
        assert backend.cardinality("orders") == len(orders)
        backend.close()

    def test_broadcast_tables_replicated_everywhere(self):
        backend, _customers, _orders, cities = build_backend()
        assert backend.fragment_cardinalities("cities") == (4, 4, 4)
        # logical count is one copy, not shard_count copies
        assert backend.cardinality("cities") == 4
        assert backend.cardinalities()["cities"] == 4
        backend.close()

    def test_co_partitioned_rows_land_together(self):
        backend, _customers, _orders, _cities = build_backend()
        # customers.name and orders.customer use the same hash partitioner:
        # every customer's orders live on the customer's own shard
        for shard, child in enumerate(backend.children):
            names = {row[0] for row in child.rows("customers")}
            order_customers = {row[0] for row in child.rows("orders")}
            assert order_customers <= names
        backend.close()

    def test_clear_and_arity_validation(self):
        backend, *_ = build_backend()
        with pytest.raises(EvaluationError):
            backend.insert_many("orders", [("c1", "x")])
        with pytest.raises(EvaluationError):
            backend.rows("missing")
        backend.clear_table("orders")
        assert backend.cardinality("orders") == 0
        assert backend.has_table("orders")
        backend.close()

    def test_a_change_set_with_a_short_row_stores_nothing(self):
        """As ``insert_many`` always did: the partitioned ``apply`` (and its
        ``route_changeset``) rejects the whole change set up front."""
        backend, *_ = build_backend()
        before = {name: multiset(backend.rows(name)) for name in backend.table_names}
        changeset = ChangeSet.build(
            inserts={
                "customers": [("c90", "city0"), ("c91", "city1")],
                "orders": [("c90", "item0", 1), ("c91", "item1")],
                "cities": [("city9", "xy")],
            }
        )
        with pytest.raises(EvaluationError):
            backend.route_changeset(changeset)
        with pytest.raises(EvaluationError):
            backend.apply(changeset)
        after = {name: multiset(backend.rows(name)) for name in backend.table_names}
        assert after == before
        backend.close()


# ----------------------------------------------------------------------
# Routing decisions
# ----------------------------------------------------------------------
class TestRouting:
    def query_all_orders(self):
        c, i, q = Variable("c"), Variable("i"), Variable("q")
        return ConjunctiveQuery(
            "all_orders", (c, i), (RelationalAtom("orders", (c, i, q)),)
        )

    def test_broadcast_only_routes_to_one_shard(self):
        backend, *_ = build_backend()
        x, y = Variable("x"), Variable("y")
        query = ConjunctiveQuery("dims", (x, y), (RelationalAtom("cities", (x, y)),))
        decision = backend.router.route(query)
        assert decision.mode == MODE_SINGLE and len(decision.shards) == 1
        # the round-robin rotation spreads broadcast-only load over shards
        seen = {backend.router.route(query).shards[0] for _ in range(6)}
        assert len(seen) > 1
        backend.close()

    def test_bound_key_routes_to_single_shard(self):
        backend, *_ = build_backend()
        i, q = Variable("i"), Variable("q")
        query = ConjunctiveQuery(
            "one_customer",
            (i,),
            (RelationalAtom("orders", (Constant("c3"), i, q)),),
        )
        decision = backend.router.route(query)
        assert decision.mode == MODE_SINGLE
        expected = HashPartitioner().shard_of("c3", backend.shard_count)
        assert decision.shards == (expected,)
        backend.close()

    def test_equality_bound_key_is_recognized(self):
        """x = 'c3' in the body binds the key after normalization."""
        from repro.logical.atoms import EqualityAtom

        backend, *_ = build_backend()
        c, i, q = Variable("c"), Variable("i"), Variable("q")
        query = ConjunctiveQuery(
            "eq_bound",
            (i,),
            (
                RelationalAtom("orders", (c, i, q)),
                EqualityAtom(c, Constant("c3")),
            ),
        )
        decision = backend.router.route(query)
        assert decision.mode == MODE_SINGLE
        backend.close()

    def test_unbound_key_scatters(self):
        backend, *_ = build_backend()
        decision = backend.router.route(self.query_all_orders())
        assert decision.mode == MODE_SCATTER
        assert decision.shards == tuple(range(backend.shard_count))
        backend.close()

    def test_co_partitioned_join_scatters(self):
        backend, *_ = build_backend()
        c, i, q, city = (Variable("c"), Variable("i"), Variable("q"), Variable("t"))
        query = ConjunctiveQuery(
            "orders_with_city",
            (c, i, city),
            (
                RelationalAtom("orders", (c, i, q)),
                RelationalAtom("customers", (c, city)),
            ),
        )
        decision = backend.router.route(query)
        assert decision.mode == MODE_SCATTER
        backend.close()

    def test_non_key_join_gathers_with_pruned_fetch(self):
        backend, *_ = build_backend()
        c1, c2, city, i, q = (
            Variable("c1"),
            Variable("c2"),
            Variable("city"),
            Variable("i"),
            Variable("q"),
        )
        # join customers on city (not the partition key) with one bound order
        query = ConjunctiveQuery(
            "same_city",
            (c2,),
            (
                RelationalAtom("orders", (Constant("c3"), i, q)),
                RelationalAtom("customers", (Constant("c3"), city)),
                RelationalAtom("customers", (c2, city)),
            ),
        )
        decision = backend.router.route(query)
        assert decision.mode == MODE_GATHER
        fetch = dict(decision.fetch_shards)
        target = HashPartitioner().shard_of("c3", backend.shard_count)
        # the orders fragment fetch is pruned to the bound key's shard;
        # customers has an unbound atom, so every fragment is needed
        assert fetch["orders"] == (target,)
        assert fetch["customers"] == tuple(range(backend.shard_count))
        backend.close()

    def test_keys_bound_to_different_shards_gather(self):
        backend, *_ = build_backend()
        # find two customers on different shards
        partitioner = HashPartitioner()
        names = [f"c{i}" for i in range(12)]
        by_shard = {}
        for name in names:
            by_shard.setdefault(partitioner.shard_of(name, 3), name)
        assert len(by_shard) > 1
        first, second = list(by_shard.values())[:2]
        i1, i2, q1, q2 = (Variable(v) for v in ("i1", "i2", "q1", "q2"))
        query = ConjunctiveQuery(
            "two_customers",
            (i1, i2),
            (
                RelationalAtom("orders", (Constant(first), i1, q1)),
                RelationalAtom("orders", (Constant(second), i2, q2)),
            ),
        )
        decision = backend.router.route(query)
        assert decision.mode == MODE_GATHER
        backend.close()


# ----------------------------------------------------------------------
# Execution equivalence against the unsharded oracle
# ----------------------------------------------------------------------
CHILD_LAYOUTS = (
    ("memory", "memory", "memory"),
    ("memory", "sqlite", "memory"),
)


@pytest.mark.parametrize("children", CHILD_LAYOUTS, ids=("uniform", "mixed"))
class TestExecutionEquivalence:
    def queries(self):
        c, c2, i, q, city = (
            Variable("c"),
            Variable("c2"),
            Variable("i"),
            Variable("q"),
            Variable("city"),
        )
        yield ConjunctiveQuery(  # scatter: unbound partitioned scan
            "scan", (c, i, q), (RelationalAtom("orders", (c, i, q)),)
        )
        yield ConjunctiveQuery(  # single shard: bound key
            "point", (i, q), (RelationalAtom("orders", (Constant("c5"), i, q)),)
        )
        yield ConjunctiveQuery(  # scatter: co-partitioned join
            "co",
            (c, i, city),
            (
                RelationalAtom("orders", (c, i, q)),
                RelationalAtom("customers", (c, city)),
            ),
        )
        yield ConjunctiveQuery(  # gather: join through a non-key column
            "via_city",
            (c, c2),
            (
                RelationalAtom("customers", (c, city)),
                RelationalAtom("customers", (c2, city)),
                InequalityAtom(c, c2),
            ),
        )
        yield ConjunctiveQuery(  # broadcast join
            "geo",
            (c, q),
            (
                RelationalAtom("customers", (c, city)),
                RelationalAtom("cities", (city, q)),
            ),
        )

    def test_all_modes_agree_with_oracle(self, children):
        backend, customers, orders, cities = build_backend(children=children)
        oracle = memory_oracle(customers, orders, cities)
        for query in self.queries():
            for distinct in (True, False):
                expected = oracle.execute(query, distinct=distinct)
                actual = backend.execute(query, distinct=distinct)
                assert multiset(actual) == multiset(expected), (
                    f"{query.name} diverged (distinct={distinct})"
                )
        backend.close()
        oracle.close()


# ----------------------------------------------------------------------
# The acceptance criterion: provable single-shard execution
# ----------------------------------------------------------------------
class TestSingleShardPruning:
    def test_key_bound_query_executes_on_exactly_one_shard(self):
        backend, customers, orders, cities = build_backend(
            children=("sqlite", "memory", "sqlite")
        )
        oracle = memory_oracle(customers, orders, cities)
        i, q = Variable("i"), Variable("q")
        query = ConjunctiveQuery(
            "point", (i, q), (RelationalAtom("orders", (Constant("c7"), i, q)),)
        )
        target = HashPartitioner().shard_of("c7", backend.shard_count)
        before = backend.stats()
        rows = backend.execute(query)
        after = backend.stats()
        assert multiset(rows) == multiset(oracle.execute(query))
        assert after.router.single_shard - before.router.single_shard == 1
        deltas = [
            now - then
            for then, now in zip(
                before.executions_per_shard, after.executions_per_shard
            )
        ]
        assert sum(deltas) == 1, "query fanned out instead of being pruned"
        assert deltas[target] == 1, "query ran on the wrong shard"
        assert after.gather_fetches_per_shard == before.gather_fetches_per_shard
        backend.close()
        oracle.close()


# ----------------------------------------------------------------------
# Lifecycle, clone, explain
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_close_is_loud_and_closes_children(self):
        backend, *_ = build_backend(children=("memory", "sqlite", "memory"))
        children = backend.children
        backend.close()
        assert backend.closed and all(child.closed for child in children)
        with pytest.raises(StorageError):
            backend.close()
        with pytest.raises(StorageError):
            backend.execute(
                ConjunctiveQuery(
                    "q", (Variable("x"),), (RelationalAtom("cities", (Variable("x"), Variable("y"))),)
                )
            )
        with pytest.raises(StorageError):
            backend.clone()

    def test_clone_is_independent(self):
        backend, customers, orders, cities = build_backend(
            children=("memory", "sqlite", "memory")
        )
        clone = backend.clone()
        c, i, q = Variable("c"), Variable("i"), Variable("q")
        query = ConjunctiveQuery(
            "scan", (c, i, q), (RelationalAtom("orders", (c, i, q)),)
        )
        assert multiset(clone.execute(query)) == multiset(backend.execute(query))
        # clone counters start fresh and do not leak into the template
        assert sum(clone.stats().executions_per_shard) == backend.shard_count
        clone.close()
        backend.execute(query)  # template still live
        backend.close()

    def test_explain_reports_routing(self, explain):
        backend, *_ = build_backend()
        i, q = Variable("i"), Variable("q")
        bound = ConjunctiveQuery(
            "point", (i,), (RelationalAtom("orders", (Constant("c3"), i, q)),)
        )
        plan = explain(backend, bound)
        assert re.search(r"mode='single'.*reason=.*orders\.customer", plan)
        c = Variable("c")
        scan = ConjunctiveQuery(
            "scan", (c,), (RelationalAtom("orders", (c, i, q)),)
        )
        assert "mode='scatter'" in explain(backend, scan)
        backend.close()


# ----------------------------------------------------------------------
# Range partitioning end to end
# ----------------------------------------------------------------------
class TestRangePartitioning:
    def test_range_partitioned_table_routes_and_agrees(self):
        backend = ShardedBackend(
            shards=3,
            partition_keys={"events": "day"},
            partitioners={"events": RangePartitioner((10, 20))},
        )
        backend.create_table("events", 2, ("day", "kind"))
        rows = [(day, f"k{day % 3}") for day in range(30)]
        backend.insert_many("events", rows)
        assert backend.fragment_cardinalities("events") == (10, 10, 10)
        k = Variable("k")
        query = ConjunctiveQuery(
            "day5", (k,), (RelationalAtom("events", (Constant(5), k)),)
        )
        decision = backend.router.route(query)
        assert decision.mode == MODE_SINGLE and decision.shards == (0,)
        assert backend.execute(query) == [("k2",)]
        backend.close()


# ----------------------------------------------------------------------
# Scatter execution and merge semantics
# ----------------------------------------------------------------------
class ToyShard(MemoryBackend):
    """A memory shard that calls *hook* before every ``execute``."""

    def __init__(self, hook):
        super().__init__()
        self.hook = hook

    def execute(self, query, distinct=True):
        self.hook(self)
        return super().execute(query, distinct=distinct)


def toy_scatter(hook):
    """A 3-shard backend over :class:`ToyShard` children, and a query that
    scatters to all three."""
    children = [ToyShard(hook) for _ in range(3)]
    backend = ShardedBackend(children=children, partition_keys={"t": "k"})
    backend.create_table("t", 2, ("k", "v"))
    backend.insert_many("t", [(f"k{i}", i) for i in range(12)])
    k, v = Variable("k"), Variable("v")
    query = ConjunctiveQuery("all_t", (k, v), (RelationalAtom("t", (k, v)),))
    plan = backend.route_plan(query)
    ((_query, decision),) = plan.decisions
    assert decision.mode == MODE_SCATTER and decision.shards == (0, 1, 2)
    return backend, children, plan, query


class TestScatterGather:
    def test_merge_semantics(self):
        per_shard = [(0, [(1,), (2,)]), (1, [(2,), (3,)])]
        assert merge_rows(per_shard, distinct=True) == [(1,), (2,), (3,)]
        assert merge_rows(per_shard, distinct=False) == [(1,), (2,), (2,), (3,)]

    def test_single_task_runs_inline(self):
        """Every shard of a scatter executes on the calling thread."""
        threads = []
        backend, children, plan, query = toy_scatter(
            lambda shard: threads.append((children.index(shard), threading.get_ident()))
        )
        rows = backend.execute_routed(plan, query)
        assert len(rows) == 12
        assert threads == [(shard, threading.get_ident()) for shard in (0, 1, 2)]
        backend.close()

    def test_errors_propagate(self):
        """A failed shard's error reaches the caller, and no later shard is
        still executing (on connections the caller is about to give back)
        when the call returns."""
        started, release = threading.Event(), threading.Event()
        running = set()

        def hook(shard):
            index = children.index(shard)
            running.add(index)
            try:
                if index == 0:
                    # Give a concurrently started shard 1 time to begin.
                    started.wait(timeout=0.5)
                    raise EvaluationError("shard failure")
                if index == 1:
                    started.set()
                    release.wait(timeout=5)
            finally:
                running.discard(index)

        backend, children, plan, query = toy_scatter(hook)
        try:
            with pytest.raises(EvaluationError, match="shard failure"):
                backend.execute_routed(plan, query)
            assert running == set()
            assert not started.is_set()
            assert backend.stats().executions_per_shard == (0, 0, 0)
        finally:
            release.set()
            backend.close()


class TestOneThreadPerRequest:
    """A request is served on one thread: no thread pool, executor or
    thread may be started under ``src/repro/shard/`` or
    ``src/repro/storage/``."""

    PACKAGES = [
        Path(__file__).resolve().parent.parent / "src" / "repro" / package
        for package in ("shard", "storage")
    ]

    @staticmethod
    def thread_starts(source):
        """Lines importing ``concurrent.futures`` or naming
        ``ThreadPoolExecutor`` or ``threading.Thread``."""
        lines = []
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                if any(alias.name.startswith("concurrent") for alias in node.names):
                    lines.append(node.lineno)
            elif isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
                if (node.module or "").startswith("concurrent") or (
                    node.module == "threading" and "Thread" in names
                ):
                    lines.append(node.lineno)
            elif isinstance(node, ast.Name) and node.id == "ThreadPoolExecutor":
                lines.append(node.lineno)
            elif isinstance(node, ast.Attribute) and (
                node.attr == "ThreadPoolExecutor"
                or (
                    node.attr == "Thread"
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "threading"
                )
            ):
                lines.append(node.lineno)
        return lines

    def test_scan_catches_each_form(self):
        for source in (
            "import concurrent.futures",
            "from concurrent.futures import ThreadPoolExecutor",
            "pool = futures.ThreadPoolExecutor(4)",
            "import threading\nthreading.Thread(target=print).start()",
            "from threading import Thread",
        ):
            assert self.thread_starts(source), source
        assert self.thread_starts("import threading\nlock = threading.Lock()") == []

    def test_source_scan(self):
        found = [
            f"{path.relative_to(package.parent)}:{line}"
            for package in self.PACKAGES
            for path in sorted(package.rglob("*.py"))
            for line in self.thread_starts(path.read_text())
        ]
        assert found == []
        assert not (self.PACKAGES[0] / "executor.py").exists()


# ----------------------------------------------------------------------
# The sharded backend under a full MARS workload (executor level)
# ----------------------------------------------------------------------
# ----------------------------------------------------------------------
# Gathered fragments kept until the next write
# ----------------------------------------------------------------------
class SlowRows(MemoryBackend):
    """A memory shard whose ``rows()`` takes :attr:`DELAY` seconds."""

    DELAY = 0.02

    def __init__(self):
        super().__init__()
        self.fetches = 0

    def rows(self, name):
        self.fetches += 1
        time.sleep(self.DELAY)
        return super().rows(name)


def same_city_query():
    """Customers in c3's city: a gather of one ``orders`` fragment and
    every ``customers`` fragment."""
    c2, city, i, q = Variable("c2"), Variable("city"), Variable("i"), Variable("q")
    return ConjunctiveQuery(
        "same_city",
        (c2,),
        (
            RelationalAtom("orders", (Constant("c3"), i, q)),
            RelationalAtom("customers", (Constant("c3"), city)),
            RelationalAtom("customers", (c2, city)),
        ),
    )


def profiled_fragments(backend, query):
    """The rows of one profiled ``execute`` and its ``shard-fragment`` nodes."""
    with operator_root(EXECUTE, query.name) as root:
        rows = backend.execute(query)
    return rows, [node for node in root.walk() if node.kind == SHARD_FRAGMENT]


class TestGatherCache:
    def test_fragment_nodes_time_the_fetch_and_mark_reuse(self):
        children = [SlowRows() for _ in range(3)]
        backend, customers, orders, cities = build_backend(children=children)
        oracle = memory_oracle(customers, orders, cities)
        query = same_city_query()
        assert backend.route_plan(query).decisions[0][1].mode == MODE_GATHER

        rows, missed = profiled_fragments(backend, query)
        assert multiset(rows) == multiset(oracle.execute(query))
        assert len(missed) == 4  # one orders fragment, three customers ones
        for node in missed:
            assert node.attributes["cached"] is False
            assert node.duration >= SlowRows.DELAY
        fetched = backend.stats().gather_fetches_per_shard
        assert sum(fetched) == 4
        assert sum(child.fetches for child in children) == 4

        again, hits = profiled_fragments(backend, query)
        assert multiset(again) == multiset(rows)
        assert [node.label for node in hits] == [node.label for node in missed]
        assert [node.actual_rows for node in hits] == [
            node.actual_rows for node in missed
        ]
        assert all(node.attributes["cached"] is True for node in hits)
        assert backend.stats().gather_fetches_per_shard == fetched
        assert sum(child.fetches for child in children) == 4
        backend.close()
        oracle.close()

    def test_direct_write_refetches(self):
        backend, customers, orders, cities = build_backend()
        query = same_city_query()
        backend.execute(query)
        added = [("c3x", "city3"), ("c4x", "city3")]
        backend.insert_many("customers", added)
        oracle = memory_oracle(customers + added, orders, cities)
        assert multiset(backend.execute(query)) == multiset(oracle.execute(query))
        oracle.delete_many("customers", added[:1])
        backend.delete_many("customers", added[:1])
        assert multiset(backend.execute(query)) == multiset(oracle.execute(query))
        backend.close()
        oracle.close()

    def test_partitioned_table_keys_on_its_shard_set(self):
        """``orders`` from c3's shard alone, then from every shard: the
        second gather must not reuse the first one's partial table."""
        backend, customers, orders, cities = build_backend()
        oracle = memory_oracle(customers, orders, cities)
        c2, city, i, q = Variable("c2"), Variable("city"), Variable("i"), Variable("q")
        neighbours_orders = ConjunctiveQuery(
            "neighbours_orders",
            (c2, i),
            (
                RelationalAtom("customers", (Constant("c3"), city)),
                RelationalAtom("customers", (c2, city)),
                RelationalAtom("orders", (c2, i, q)),
            ),
        )
        for query in (same_city_query(), neighbours_orders, same_city_query()):
            fetch = dict(backend.route_plan(query).decisions[0][1].fetch_shards)
            assert len(fetch["orders"]) == (1 if query.name == "same_city" else 3)
            assert multiset(backend.execute(query)) == multiset(oracle.execute(query))
        backend.close()
        oracle.close()

    def test_a_direct_write_counts_once_the_caller_says_so(self):
        """A caller that writes to the children itself calls
        ``units_written()`` after; until then the kept tables stand."""
        backend, customers, orders, cities = build_backend()
        query = same_city_query()
        stale = backend.execute(query)
        added = ("c3x", "city3")
        shard = HashPartitioner().shard_of(added[0], backend.shard_count)
        backend.children[shard].insert_many("customers", [added])
        assert backend.execute(query) == stale
        backend.units_written()
        oracle = memory_oracle(customers + [added], orders, cities)
        rows = backend.execute(query)
        assert multiset(rows) == multiset(oracle.execute(query))
        assert ("c3x",) in rows
        backend.close()
        oracle.close()

    def test_a_gather_between_routing_and_applying_is_not_kept(self):
        """Routing a change set is not the write: a gather that runs after
        the routing and before the pieces land fetches the old rows, and
        the next gather after ``units_written()`` must not reuse them."""
        backend, customers, orders, cities = build_backend()
        query = same_city_query()
        added = ("c3x", "city3")
        routed = backend.route_changeset(
            ChangeSet.build(inserts={"customers": [added]})
        )
        assert ("c3x",) not in backend.execute(query)
        for shard, sub in routed.items():
            backend.children[shard].apply(sub)
        backend.units_written()
        oracle = memory_oracle(customers + [added], orders, cities)
        assert multiset(backend.execute(query)) == multiset(oracle.execute(query))
        backend.close()
        oracle.close()

    def test_a_layout_swap_counts_as_a_write(self):
        backend, customers, orders, cities = build_backend()
        query = same_city_query()
        backend.execute(query)
        fetched = sum(backend.stats().gather_fetches_per_shard)
        backend.adopt_layout(backend.children)  # also resets the counters
        backend.execute(query)
        # Every fragment was fetched again.
        assert sum(backend.stats().gather_fetches_per_shard) == fetched > 0
        backend.close()

    def test_at_most_one_entry_per_table(self):
        backend, *_ = build_backend()
        query = same_city_query()
        for _round in range(3):
            backend.execute(query)
            backend.units_written()
        assert sorted(backend._gathered) == ["customers", "orders"]
        backend.close()


#: An xmark instance small enough for a test, sharded as the benchmark is.
XMARK_SHARD_CHILDREN = ("memory", "sqlite", "sqlite", "memory")

#: Drops ``item_europe_0`` from RegionItems: its id attribute lives in the
#: broadcast GReX encoding.
GREX_ROW = ("auction.xml#3", "id", "item_europe_0")
GREX_DELETE = ChangeSet.build(deletes={"attr__auction_xml": [GREX_ROW]})
#: Renames ``item_europe_1`` in the partitioned ``itemName`` view.
ITEM_RENAME = ChangeSet.build(
    deletes={"itemName": [("item_europe_1", "gadget_498873")]},
    inserts={"itemName": [("item_europe_1", "renamed_gadget")]},
)


class TestGatherCacheUnderService:
    """RegionItems runs as a gather on a 4-shard memory/sqlite service; its
    rows must track every write a fresh memory executor sees."""

    @staticmethod
    def configuration():
        configuration = xmark.build_configuration(
            XMarkParameters(items_per_region=8, people=15, closed_auctions=20, seed=11)
        )
        configuration.backend = "sharded"
        configuration.shard_count = len(XMARK_SHARD_CHILDREN)
        configuration.shard_children = XMARK_SHARD_CHILDREN
        return configuration

    @staticmethod
    def expected(configuration, plan, changesets=()):
        oracle = MarsExecutor(configuration, backend="memory")
        try:
            for changeset in changesets:
                oracle.backend.apply(changeset)
            return multiset(oracle.execute_reformulation(plan))
        finally:
            oracle.close()

    @staticmethod
    def publish(service, query):
        """Publish *query*, asserting it ran as a gather."""
        before = service.executor.backend.stats().router.gather
        rows = service.publish(query)
        assert service.executor.backend.stats().router.gather == before + 1
        return multiset(rows)

    def test_updates_reach_the_next_gather(self):
        configuration = self.configuration()
        query = xmark.query_region_items()
        with PublishingService(configuration, pool_size=2) as service:
            plan = service.plan_for(service.reformulate(query))
            assert self.publish(service, query) == self.expected(configuration, plan)
            fetched = service.executor.backend.stats().gather_fetches_per_shard
            assert self.publish(service, query) == self.expected(configuration, plan)
            assert service.executor.backend.stats().gather_fetches_per_shard == fetched

            # The template's own execute() shares the kept tables: the
            # service's updates reach its children by routed change sets
            # and then count as writes.
            template = service.executor.backend
            assert multiset(template.execute(plan)) == self.expected(
                configuration, plan
            )
            applied = []
            for changeset in (GREX_DELETE, ITEM_RENAME):
                service.update(changeset)
                applied.append(changeset)
                plan = service.plan_for(service.reformulate(query))
                expected = self.expected(configuration, plan, applied)
                assert multiset(template.execute(plan)) == expected
                assert self.publish(service, query) == expected
            assert "('gadget_474354',)" not in expected
            assert "('renamed_gadget',)" in expected

    def test_rebalance_reaches_the_next_gather(self):
        configuration = self.configuration()
        query = xmark.query_region_items()
        with PublishingService(configuration, pool_size=2) as service:
            plan = service.plan_for(service.reformulate(query))
            expected = self.expected(configuration, plan)
            assert self.publish(service, query) == expected
            service.rebalance(shards=3)
            plan = service.plan_for(service.reformulate(query))
            assert self.publish(service, query) == self.expected(configuration, plan)
            assert service.executor.backend._gathered  # refilled, new layout

    def test_direct_insert_reaches_the_next_execute(self):
        configuration = self.configuration()
        plan = MarsSystem(configuration).reformulate(xmark.query_region_items()).best
        executor = MarsExecutor(configuration)
        try:
            backend = executor.backend
            assert multiset(backend.execute(plan)) == self.expected(configuration, plan)
            added = [("item_europe_0", "second_name")]
            backend.insert_many("itemName", added)
            expected = self.expected(
                configuration, plan, [ChangeSet.build(inserts={"itemName": added})]
            )
            assert "('second_name',)" in expected
            assert multiset(backend.execute(plan)) == expected
            assert backend.stats().router.gather == 2
        finally:
            executor.close()

    def test_concurrent_publishes_and_updates(self):
        """Four clients start together on a cold cache while a writer
        deletes and restores one GReX row: every answer is the rows of
        one of the two states, never a mix, and the writer reads its own
        writes."""
        configuration = self.configuration()
        query = xmark.query_region_items()
        restore = ChangeSet.build(inserts={"attr__auction_xml": [GREX_ROW]})
        with PublishingService(configuration, pool_size=2) as service:
            plan = service.plan_for(service.reformulate(query))
            states = (
                self.expected(configuration, plan),
                self.expected(configuration, plan, [GREX_DELETE]),
            )
            assert states[0] != states[1]
            assert not service.executor.backend._gathered
            clients = 4
            barrier = threading.Barrier(clients + 1)
            stop = threading.Event()
            answers, errors = [], []

            def client():
                try:
                    barrier.wait(timeout=5)
                    while not stop.is_set():
                        answers.append(multiset(service.publish(query)))
                except Exception as error:  # reported below
                    errors.append(error)

            def writer():
                # Reads its own writes: a gather kept across an update
                # would answer with the state before it.
                try:
                    barrier.wait(timeout=5)
                    for _round in range(10):
                        for changeset, state in ((GREX_DELETE, 1), (restore, 0)):
                            service.update(changeset)
                            answer = multiset(service.publish(query))
                            assert answer == states[state], f"stale after {state}"
                except Exception as error:  # reported below
                    errors.append(error)
                finally:
                    stop.set()

            threads = [threading.Thread(target=client) for _ in range(clients)]
            threads.append(threading.Thread(target=writer))
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
                stop.set()
            assert not any(thread.is_alive() for thread in threads)
            assert not errors, errors[:1]
            assert len(answers) >= clients
            assert all(answer in states for answer in answers)
            assert multiset(service.publish(query)) == states[0]


class TestShardedExecutor:
    def test_medical_reformulations_agree(self):
        configuration = medical.build_configuration()
        system = MarsSystem(configuration)
        memory_executor = MarsExecutor(configuration, backend="memory")
        sharded_executor = MarsExecutor(configuration, backend="sharded")
        assert isinstance(sharded_executor.backend, ShardedBackend)
        # the workload's partition hints reached the backend
        assert sharded_executor.backend.partition_spec("patientDiag") is not None
        for query in (medical.client_query(), medical.drug_usage_query()):
            result = system.reformulate(query)
            assert result.found
            assert multiset(
                sharded_executor.execute_reformulation(result.best)
            ) == multiset(memory_executor.execute_reformulation(result.best))
        sharded_executor.close()
        memory_executor.close()


# ----------------------------------------------------------------------
# Memory per-step cardinality estimates in the explain text
# ----------------------------------------------------------------------
class TestMemoryExplainEstimates:
    def test_estimates_per_join_step(self, explain):
        backend = MemoryBackend()
        backend.create_table("r", 2, ("a", "b"))
        backend.insert_many("r", [(i, i % 3) for i in range(12)])
        backend.create_table("s", 2, ("b", "c"))
        backend.insert_many("s", [(i % 3, i) for i in range(6)])
        x, y, z = Variable("x"), Variable("y"), Variable("z")
        query = ConjunctiveQuery(
            "q",
            (x, z),
            (RelationalAtom("r", (x, y)), RelationalAtom("s", (y, z))),
        )
        plan = explain(backend, query)
        # step 1 scans r (12 rows); step 2 probes s on b (3 distinct values):
        # 12 * 6 / 3 = 24 estimated rows, the plan's result estimate
        assert re.search(
            r"scan r\[step 1\]: est=12, .*probe_positions=\(\), .*table_rows=12\}",
            plan,
        )
        assert re.search(
            r"join-step s\[step 2\]: est=24, .*probe_positions=\(0,\), .*table_rows=6\}",
            plan,
        )
        # the numbers are the planner's, not a recount of the backend's own
        steps = CostModel(backend.statistics_catalog).pipeline(query)
        assert steps == (12.0, 24.0)
        backend.close()
