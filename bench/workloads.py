"""The four seeded workloads: deployments, query streams and oracles.

Everything random derives from the run's ``--seed``; the service under
test only ever receives the generated configuration, queries and change
sets.  xmark "scale *s*" means ``XMarkParameters(items_per_region=8s,
people=15s, closed_auctions=20s)``, as in ``benchmarks/``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.replica import ChangeSet
from repro.serve import PublishingService
from repro.workloads import xmark
from repro.workloads.xmark import XMarkParameters
from repro.xbind.query import XBindQuery

Row = Tuple[object, ...]

#: The stored views the write workload updates, each with the number of
#: leading key columns an update keeps.
UPDATED_RELATIONS = {"auctionPrice": 2, "itemCategory": 1, "itemName": 1, "personDirectory": 1}

SUITE = "suite"
SUITE_WITHOUT_REGION = "suite-without-region"
CHURN = "churn"

#: Distinct plan fingerprints in the churn stream (8x its 32-entry cache).
CHURN_FINGERPRINTS = 256
CHURN_ZIPF_EXPONENT = 1.1


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload: its deployment shape, traffic and the reason it exists."""

    name: str
    why: str
    scale: int
    backend: str
    clients: int
    mix: str
    #: ``None`` keeps the service's constructor default (128 entries).
    cache_size: Optional[int] = None
    #: One client alternating 1 ``update()`` with 4 ``publish()`` calls,
    #: on a durable log; False is read-only traffic.
    writes: bool = False
    #: Operations (rounds, when *writes*) of the fixed-count traced pass.
    trace_ops: int = 420

    def parameters(self) -> Dict[str, object]:
        return {
            "xmark_scale": self.scale,
            "backend": self.backend,
            "clients": self.clients,
            "mix": self.mix,
            "cache_size": self.cache_size or 128,
            "pool_size": POOL_SIZE,
            "writes": self.writes,
            "trace_ops": self.trace_ops,
        }


POOL_SIZE = 2
SHARD_CHILDREN = ("memory", "sqlite", "sqlite", "memory")
REPLICA_COUNT = 2
ROUND_PUBLISHES = 4
CHECKPOINT_EVERY = 250

WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="warm-read.sqlite",
            why=(
                "steady-state serving: 7 cached xmark plans on pooled SQLite at "
                "scale 32; serve and storage.sqlite do the work, engine/shard none"
            ),
            scale=32,
            backend="sqlite",
            clients=2,
            mix=SUITE,
        ),
        WorkloadSpec(
            name="warm-read.sharded",
            why=(
                "mixed storage under routing: 4 memory/sqlite shards at scale 8; "
                "route, scatter/gather, merge and the memory hash-join do the work"
            ),
            scale=8,
            backend="sharded",
            clients=2,
            mix=SUITE,
            trace_ops=280,
        ),
        WorkloadSpec(
            name="plan-churn",
            why=(
                "Zipf(1.1) over 256 fingerprints against a 32-plan cache: 4 requests in "
                "10 miss into compile, chase, backchase, rank behind one lock"
            ),
            scale=8,
            backend="sqlite",
            clients=2,
            mix=CHURN,
            cache_size=32,
            trace_ops=600,
        ),
        WorkloadSpec(
            name="read-write.durable",
            why=(
                "1 update then 4 publishes per round on 2 durable SQLite replicas at "
                "scale 64: apply fan-out, log append, catch-up replay, statistics refresh"
            ),
            scale=64,
            backend="replicated",
            clients=1,
            mix=SUITE_WITHOUT_REGION,
            writes=True,
            trace_ops=600,
        ),
    )
}


def quick(spec: WorkloadSpec) -> WorkloadSpec:
    """The smoke-test rendition of *spec*: xmark scale 1, a short traced
    pass, and no ``RegionItems`` (3 s of cold C&B per set-up)."""
    return replace(
        spec,
        scale=1,
        mix=SUITE_WITHOUT_REGION if spec.mix == SUITE else spec.mix,
        trace_ops=50 if spec.writes else 60,
    )


def xmark_parameters(scale: int, seed: int) -> XMarkParameters:
    return XMarkParameters(
        items_per_region=8 * scale,
        people=15 * scale,
        closed_auctions=20 * scale,
        seed=seed,
    )


def build_configuration(spec: WorkloadSpec, seed: int):
    """Generate the xmark instance and declare the deployment's layout."""
    configuration = xmark.build_configuration(xmark_parameters(spec.scale, seed))
    if spec.backend == "sharded":
        configuration.shard_count = len(SHARD_CHILDREN)
        configuration.shard_children = SHARD_CHILDREN
    elif spec.backend == "replicated":
        configuration.replica_count = REPLICA_COUNT
        configuration.replica_child = "sqlite"
    return configuration


def open_service(
    spec: WorkloadSpec, configuration, log_dir=None, **overrides
) -> PublishingService:
    """The service at its constructor defaults, but for the workload's shape.

    ``log_fsync="off"`` is stated, not hidden: a sandbox's flush cost says
    nothing about a device's, and it is the same on both sides of any
    comparison.
    """
    options: Dict[str, object] = {"backend": spec.backend, "pool_size": POOL_SIZE}
    if spec.cache_size is not None:
        options["cache_size"] = spec.cache_size
    if spec.writes:
        options.update(log_dir=str(log_dir), log_fsync="off")
    options.update(overrides)
    return PublishingService(configuration, **options)


# ----------------------------------------------------------------------
# Queries and their oracle
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BenchQuery:
    """A client query with the rows the published document says it has.

    *expected* is ``None`` on the write workload, whose stored views drift
    away from the document; there a reference store is the oracle.
    """

    query: XBindQuery
    expected: Optional[FrozenSet[Row]]


class DocumentOracle:
    """Each xmark query evaluated by hand over the published document.

    ``MarsExecutor.execute_original`` is the paper's definition of the
    expected answer, but its nested-loop joins take 16 s for the suite at
    scale 32 — longer than a whole run.  These hash joins over the same
    tree compute the same sets in milliseconds; the smoke test and the
    ``paper.exec_speedup`` probes hold them equal to ``execute_original``.
    """

    def __init__(self, document):
        def text(node, tag: str) -> str:
            return node.child_elements(tag)[0].text

        self.items = [
            (node.attributes["id"], text(node, "name"), text(node, "category"), node.parent.tag)
            for node in document.find_all("item")
        ]
        self.people = {
            node.attributes["id"]: (text(node, "name"), text(node, "city"))
            for node in document.find_all("person")
        }
        self.auctions = [
            (text(node, "itemref"), text(node, "buyer"), text(node, "price"))
            for node in document.find_all("closed_auction")
        ]
        self.item_names = {item_id: name for item_id, name, _c, _r in self.items}

    def item_names_rows(self) -> FrozenSet[Row]:
        return frozenset((item_id, name) for item_id, name, _c, _r in self.items)

    def items_in_category(self, category: str) -> FrozenSet[Row]:
        return frozenset(
            (item_id, name) for item_id, name, cat, _r in self.items if cat == category
        )

    def person_cities(self) -> FrozenSet[Row]:
        return frozenset(self.people.values())

    def item_prices(self) -> FrozenSet[Row]:
        return frozenset(
            (self.item_names[item], price)
            for item, _buyer, price in self.auctions
            if item in self.item_names
        )

    def buyers_with_items(self) -> FrozenSet[Row]:
        return frozenset(
            self.people[buyer] + (self.item_names[item],)
            for item, buyer, _price in self.auctions
            if buyer in self.people and item in self.item_names
        )

    def out_of_town_buyers(self, city: str) -> FrozenSet[Row]:
        return frozenset(
            self.people[buyer]
            for _item, buyer, _price in self.auctions
            if buyer in self.people and self.people[buyer][1] != city
        )

    def region_items(self, region: str) -> FrozenSet[Row]:
        return frozenset((name,) for _i, name, _c, reg in self.items if reg == region)

    def suite(self) -> List[BenchQuery]:
        """``xmark.query_suite()`` in its order, each with its expected rows."""
        expected = (
            self.item_names_rows(),
            self.items_in_category("art"),
            self.person_cities(),
            self.item_prices(),
            self.buyers_with_items(),
            self.out_of_town_buyers("paris"),
            self.region_items("europe"),
        )
        return [BenchQuery(q, rows) for q, rows in zip(xmark.query_suite(), expected)]

    def churn(self) -> List[BenchQuery]:
        """256 distinct fingerprints: two query shapes, 128 constants each.

        The shapes alternate down the popularity ranks, so the traffic's
        blend of shapes is the same under every seed.  ``RegionItems``
        stays out: one 4 s miss would turn the workload's throughput into
        a single-query timer.
        """
        half = CHURN_FINGERPRINTS // 2
        categories = ["art", "books", "coins", "toys"]
        categories += [f"category_{i:03d}" for i in range(half - len(categories))]
        cities = ["paris", "berlin", "tokyo", "boston"]
        cities += [f"city_{i:03d}" for i in range(half - len(cities))]
        queries: List[BenchQuery] = []
        for category, city in zip(categories, cities):
            queries.append(
                BenchQuery(
                    xmark.query_items_in_category(category), self.items_in_category(category)
                )
            )
            queries.append(
                BenchQuery(xmark.query_out_of_town_buyers(city), self.out_of_town_buyers(city))
            )
        return queries


def workload_queries(spec: WorkloadSpec, configuration) -> List[BenchQuery]:
    oracle = DocumentOracle(configuration.public_documents[xmark.AUCTION_DOCUMENT])
    if spec.mix == CHURN:
        return oracle.churn()
    queries = oracle.suite()
    if spec.mix == SUITE_WITHOUT_REGION:
        queries = queries[:-1]
    if spec.writes:
        return [BenchQuery(entry.query, None) for entry in queries]
    return queries


def warm_queries(spec: WorkloadSpec, queries: Sequence[BenchQuery]) -> List[XBindQuery]:
    """What ``warm()`` compiles during set-up: the whole mix, unless the
    workload exists to measure misses."""
    if spec.mix == CHURN:
        return []
    return [entry.query for entry in queries]


def query_stream(spec: WorkloadSpec, count: int, seed: int, client: int) -> Iterator[int]:
    """An endless seeded stream of indexes into the workload's query list.

    The suite mixes are dealt as shuffled decks, so every query gets an
    exactly equal share of any long run; the churn mix draws from a Zipf
    distribution over the fingerprints, most popular first.
    """
    rng = random.Random(f"{seed}/{client}")
    if spec.mix == CHURN:
        weights = [1.0 / (rank + 1) ** CHURN_ZIPF_EXPONENT for rank in range(count)]
        while True:
            yield from rng.choices(range(count), weights=weights, k=4096)
    deck = list(range(count))
    while True:
        rng.shuffle(deck)
        yield from deck


def row_digest(rows: Sequence[Row]) -> Tuple[int, int]:
    """An order-free fingerprint of a ``distinct=True`` answer.

    Cheap enough to take between two timed operations; answers are checked
    by comparing digests once the measured window has closed.
    """
    return len(rows), hash(frozenset(rows))


def expected_digests(queries: Sequence[BenchQuery]) -> List[Optional[Tuple[int, int]]]:
    """Per query, the digest its answers must have (``None``: no fixed answer)."""
    return [
        None if entry.expected is None else (len(entry.expected), hash(entry.expected))
        for entry in queries
    ]



# ----------------------------------------------------------------------
# Updates
# ----------------------------------------------------------------------
class UpdateStream:
    """A seeded, stationary stream of change sets over the stored views.

    ``repro.workloads.datagen.UpdateStreamGenerator`` overwrites join keys
    with fresh tokens: under it the views stop joining and every query
    gets cheaper the longer a run lasts, so a faster service would drift
    further and measure a different workload.  This stream replaces rows
    like for like instead.  Each change set deletes 1-4 rows from one or
    two views and inserts as many; a new row keeps the key columns of a
    stored row and draws its other columns from the values that column
    started with.  Sizes, key distributions and selectivities hold still.

    Change sets are generated ahead of the measured window.
    ``expected_tables(n)`` replays the stream from its seed to give the
    rows each view must hold after *n* updates.
    """

    CHUNK = 512

    def __init__(self, backend, seed: int):
        self._initial = {
            name: [tuple(row) for row in backend.rows(name)] for name in UPDATED_RELATIONS
        }
        self._domains = {
            name: [list(column) for column in zip(*rows)]
            for name, rows in self._initial.items()
        }
        self._seed = seed
        self._rng, self._state = self._start()
        self.changesets: List[ChangeSet] = []

    def _start(self):
        return (
            random.Random(f"{self._seed}/updates"),
            {name: list(rows) for name, rows in self._initial.items()},
        )

    def _next(self, rng: random.Random, state: Dict[str, List[Row]]) -> ChangeSet:
        inserts: Dict[str, List[Row]] = {}
        deletes: Dict[str, List[Row]] = {}
        for name in rng.sample(sorted(state), rng.randint(1, 2)):
            rows, keys, domains = state[name], UPDATED_RELATIONS[name], self._domains[name]
            count = rng.randint(1, 4)
            deletes[name] = rng.sample(rows, count)
            inserts[name] = [
                rng.choice(rows)[:keys] + tuple(rng.choice(d) for d in domains[keys:])
                for _ in range(count)
            ]
            for row in deletes[name]:
                rows.remove(row)
            rows.extend(inserts[name])
        return ChangeSet.build(inserts=inserts, deletes=deletes)

    def ensure(self, count: int) -> None:
        while len(self.changesets) < count:
            self.changesets.append(self._next(self._rng, self._state))

    def expected_tables(self, updates: int) -> Dict[str, List[Row]]:
        rng, state = self._start()
        for _ in range(updates):
            self._next(rng, state)
        return state
