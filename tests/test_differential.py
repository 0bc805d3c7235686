"""Randomized differential testing: every backend as every other's oracle.

``tests/test_backends.py`` checks cross-backend equivalence on the
hand-picked reformulations of the paper workloads; here the same oracle is
generalized: seeded random conjunctive queries (joins, selections on real
data values, inequality filters) over the *actual* proprietary
tables of the medical and star configurations must return identical row
sets — and identical row multisets under bag semantics — on both engines.
Any divergence is a bug in the SQL rendering, the SQLite loading, or the
hash-join evaluator; the seed in the test id reproduces it exactly.

The ``sharded`` backend joins the matrix at 2 and 4 shards with mixed
memory/sqlite children: the same random queries must survive routing
(single-shard pruning, co-partitioned scatter, gather fallback) and the
set/bag merge, and partition-key-bound queries must additionally be
*pruned* — proven through the per-shard execution counters.

The last section adds one row of ``None`` cells to every table and runs
the disjuncts of random unions there, one plan per request: a ``None``
join key, selection constant or inequality operand must mean the same
thing on every engine (``None`` matches ``None``).
"""

import pytest

from repro.core import MarsExecutor
from repro.replica import ChangeSet
from repro.workloads import medical, star
from repro.workloads.star import StarParameters

SEEDS = range(20)
SHARD_SEEDS = range(10)
#: shard count -> child engines, deliberately mixing the two real backends.
SHARD_LAYOUTS = {
    2: ("memory", "sqlite"),
    4: ("memory", "sqlite", "sqlite", "memory"),
}


def multiset(rows):
    return sorted(map(repr, rows))


def build_workload(name):
    if name == "medical":
        return medical.build_configuration()
    parameters = StarParameters(corners=3, hub_count=15, corner_size=8)
    return star.build_configuration(parameters, with_instance=True)


@pytest.fixture(scope="module", params=("medical", "star"))
def executor_pair(request):
    """One memory and one sqlite executor over the same built instance."""
    configuration = build_workload(request.param)
    memory_executor = MarsExecutor(configuration, backend="memory")
    sqlite_executor = MarsExecutor(configuration, backend="sqlite")
    yield memory_executor, sqlite_executor
    sqlite_executor.close()
    memory_executor.close()


@pytest.mark.parametrize("seed", SEEDS)
def test_random_conjunctive_queries_agree(executor_pair, query_generator, seed):
    memory_executor, sqlite_executor = executor_pair
    generator = query_generator(memory_executor.backend, seed)
    for index in range(5):
        query = generator.conjunctive(f"rand_s{seed}_q{index}")
        memory_rows = memory_executor.backend.execute(query)
        sqlite_rows = sqlite_executor.backend.execute(query)
        assert multiset(memory_rows) == multiset(sqlite_rows), (
            f"set-semantics divergence on seed={seed} query={query}"
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_random_bag_semantics_agree(executor_pair, query_generator, seed):
    """distinct=False: the engines must agree on multiplicities too."""
    memory_executor, sqlite_executor = executor_pair
    generator = query_generator(memory_executor.backend, seed + 1000)
    for index in range(3):
        query = generator.conjunctive(f"bag_s{seed}_q{index}")
        memory_rows = memory_executor.backend.execute(query, distinct=False)
        sqlite_rows = sqlite_executor.backend.execute(query, distinct=False)
        assert multiset(memory_rows) == multiset(sqlite_rows), (
            f"bag-semantics divergence on seed={seed} query={query}"
        )


def test_generator_is_deterministic(executor_pair, query_generator):
    memory_executor, _ = executor_pair
    first = query_generator(memory_executor.backend, 42).conjunctive("q")
    second = query_generator(memory_executor.backend, 42).conjunctive("q")
    assert str(first) == str(second)


# ----------------------------------------------------------------------
# Sharded backends (2 and 4 shards, mixed children) against memory
# ----------------------------------------------------------------------
@pytest.fixture(scope="module", params=("medical", "star"))
def sharded_oracles(request):
    """A memory executor plus sharded executors at each layout."""
    configuration = build_workload(request.param)
    memory_executor = MarsExecutor(configuration, backend="memory")
    sharded = {}
    for shards, children in SHARD_LAYOUTS.items():
        backend = configuration.create_backend(
            "sharded", shards=shards, children=children
        )
        sharded[shards] = MarsExecutor(configuration, backend=backend)
    yield memory_executor, sharded
    for executor in sharded.values():
        executor.backend.close()
    memory_executor.close()


@pytest.mark.parametrize("shards", sorted(SHARD_LAYOUTS))
@pytest.mark.parametrize("seed", SHARD_SEEDS)
def test_sharded_random_queries_agree(sharded_oracles, query_generator, shards, seed):
    memory_executor, sharded = sharded_oracles
    generator = query_generator(memory_executor.backend, seed + 3000)
    backend = sharded[shards].backend
    for index in range(4):
        query = generator.conjunctive(f"sh{shards}_s{seed}_q{index}")
        assert multiset(backend.execute(query)) == multiset(
            memory_executor.backend.execute(query)
        ), f"set divergence on shards={shards} seed={seed} query={query}"
    query = generator.conjunctive(f"shbag{shards}_s{seed}")
    assert multiset(backend.execute(query, distinct=False)) == multiset(
        memory_executor.backend.execute(query, distinct=False)
    ), f"bag divergence on shards={shards} seed={seed} query={query}"


@pytest.mark.parametrize("shards", sorted(SHARD_LAYOUTS))
@pytest.mark.parametrize("seed", SHARD_SEEDS)
def test_sharded_key_bound_queries_prune_and_agree(
    sharded_oracles, query_generator, shards, seed
):
    """Partition-key-bound queries agree AND execute on exactly one shard."""
    memory_executor, sharded = sharded_oracles
    backend = sharded[shards].backend
    partitioned = [
        name for name in backend.table_names if backend.partition_spec(name)
    ]
    assert partitioned, "workload declares no partitioned tables"
    generator = query_generator(memory_executor.backend, seed + 5000)
    rng = generator.rng
    for index in range(3):
        table = rng.choice(sorted(partitioned))
        if memory_executor.backend.cardinality(table) == 0:
            continue
        spec = backend.partition_spec(table)
        query = generator.key_bound_conjunctive(
            f"kb{shards}_s{seed}_q{index}", table, spec.position
        )
        before = backend.stats()
        rows = backend.execute(query)
        after = backend.stats()
        assert multiset(rows) == multiset(
            memory_executor.backend.execute(query)
        ), f"pruned divergence on shards={shards} seed={seed} query={query}"
        assert after.router.single_shard - before.router.single_shard == 1
        executed = sum(after.executions_per_shard) - sum(
            before.executions_per_shard
        )
        assert executed == 1, (
            f"key-bound query fanned out on shards={shards} seed={seed}: {query}"
        )


# ----------------------------------------------------------------------
# None cells: every engine binds None like any other value
# ----------------------------------------------------------------------
@pytest.fixture(scope="module", params=("medical", "star"))
def null_cell_engines(request):
    """Memory, SQLite and the mixed 2-/4-shard layouts over one instance
    that holds, in every table, one extra row of ``None`` cells."""
    configuration = build_workload(request.param)
    executors = {
        "memory": MarsExecutor(configuration, backend="memory"),
        "sqlite": MarsExecutor(configuration, backend="sqlite"),
    }
    for shards, children in SHARD_LAYOUTS.items():
        backend = configuration.create_backend(
            "sharded", shards=shards, children=children
        )
        executors[f"sharded{shards}"] = MarsExecutor(configuration, backend=backend)
    database = executors["memory"].backend.database
    nulls = ChangeSet.build(
        inserts={
            name: [(None,) * database.table(name).arity]
            for name in database.table_names
        }
    )
    for executor in executors.values():
        executor.backend.apply(nulls)
    yield {name: executor.backend for name, executor in executors.items()}
    for executor in executors.values():
        executor.close()  # closes the engines it built, not the sharded ones
        if not executor.backend.closed:
            executor.backend.close()


def assert_null_cells_agree(engines, engine_names, query):
    memory = engines["memory"]
    for distinct in (True, False):
        expected = multiset(memory.execute(query, distinct=distinct))
        for name in engine_names:
            assert multiset(engines[name].execute(query, distinct=distinct)) == (
                expected
            ), f"{name} diverged from memory (distinct={distinct}) on {query}"


@pytest.mark.parametrize("seed", SEEDS)
def test_random_unions_agree(null_cell_engines, query_generator, seed):
    """A random union's disjuncts, each run as its own plan, agree on
    memory and SQLite over the ``None``-cell instance."""
    generator = query_generator(null_cell_engines["memory"], seed + 2000)
    for query in generator.disjuncts(f"u_s{seed}"):
        assert_null_cells_agree(null_cell_engines, ("sqlite",), query)


@pytest.mark.parametrize("shards", sorted(SHARD_LAYOUTS))
@pytest.mark.parametrize("seed", SHARD_SEEDS)
def test_sharded_unions_agree(null_cell_engines, query_generator, shards, seed):
    """The same per-disjunct check on the mixed-child sharded layouts."""
    generator = query_generator(null_cell_engines["memory"], seed + 4000)
    for query in generator.disjuncts(f"shu{shards}_s{seed}"):
        assert_null_cells_agree(null_cell_engines, (f"sharded{shards}",), query)
