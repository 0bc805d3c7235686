"""A served plan is derived once: kernel, SQL and route live with the plan.

The plan a plan-cache entry holds is normative; what engines compute from
it (the normalized body, the join kernel, the rendered SQL and its index
columns, the routing decision) is kept on its
:class:`~repro.logical.queries.DerivedPlan`.  These tests count the
derivations on warm services, check what moves a kept route, and check
that the record never enters the plan's identity.
"""

from __future__ import annotations

import collections
import copy
import pickle

import pytest

from repro.cost import CostModel
from repro.engine.join_tree import CompiledConjunction
from repro.errors import EvaluationError
from repro.logical.atoms import EqualityAtom, RelationalAtom
from repro.logical.queries import ConjunctiveQuery
from repro.logical.terms import Variable
from repro.replica import Rebalancer
from repro.serve import PublishingService
from repro.shard import MODE_GATHER, MODE_SCATTER, MODE_SINGLE, ShardRouter, ShardedBackend
from repro.storage import evaluation
from repro.storage.backends import MemoryBackend
from repro.storage.backends import sqlite as sqlite_backend
from repro.workloads import xmark
from repro.workloads.xmark import XMarkParameters

DEPLOYMENTS = {
    "sharded": ("memory", "sqlite", "sqlite", "memory"),
    "sqlite": None,
}


def suite_configuration(deployment):
    configuration = xmark.build_configuration(
        XMarkParameters(items_per_region=8, people=15, closed_auctions=20, seed=11)
    )
    children = DEPLOYMENTS[deployment]
    if children is None:
        configuration.backend = deployment
    else:
        configuration.backend = "sharded"
        configuration.shard_count = len(children)
        configuration.shard_children = children
    return configuration


class Derivations:
    """Counts, per plan name, every derivation the serve path can make."""

    def __init__(self, monkeypatch):
        self.calls = collections.Counter()
        self.per_plan = collections.Counter()
        self._count(monkeypatch, CompiledConjunction, "_compile", "compile")
        self._count(monkeypatch, CostModel, "estimate", "estimate")
        self._count(
            monkeypatch, ConjunctiveQuery, "normalize_equalities", "normalize"
        )
        self._count(monkeypatch, ShardRouter, "derive", "route", plan_arg=1)
        self._count(monkeypatch, evaluation, "Kernel", "kernel", plan_arg=0)
        self._count(
            monkeypatch, sqlite_backend, "render_sql_query", "sql", plan_arg=0
        )

    def _count(self, monkeypatch, owner, name, label, plan_arg=None):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            self.calls[label] += 1
            if plan_arg is not None:
                self.per_plan[label, args[plan_arg].name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    def reset(self):
        self.calls.clear()
        self.per_plan.clear()


class TestDerivationCounts:
    @pytest.mark.parametrize("deployment", sorted(DEPLOYMENTS))
    def test_warm_publishes_derive_nothing(self, deployment, monkeypatch):
        queries = xmark.query_suite()
        with PublishingService(suite_configuration(deployment)) as service:
            service.warm(queries)
            derivations = Derivations(monkeypatch)
            # First serve of each cached plan: each artifact at most once
            # per plan (the SQL once per plan and distinctness).
            expected = [sorted(service.publish(query)) for query in queries]
            assert derivations.per_plan
            assert max(derivations.per_plan.values()) == 1
            if deployment == "sharded":
                assert derivations.calls["route"] == len(queries)
                assert derivations.calls["kernel"] > 0
            assert derivations.calls["sql"] > 0
            derivations.reset()
            for round_number in range(50):
                query = queries[round_number % len(queries)]
                rows = service.publish(query)
                assert sorted(rows) == expected[round_number % len(queries)]
            assert service.stats().cache.misses == len(queries)
        assert derivations.calls == {}

    def test_plan_cache_miss_derives_afresh_once(self, monkeypatch):
        query = xmark.query_region_items()
        with PublishingService(suite_configuration("sharded")) as service:
            first = service.plan_for(service.reformulate(query))
            service.publish(query)
            service.plan_cache.clear()
            second = service.plan_for(service.reformulate(query))
            assert second is not first and second == first
            derivations = Derivations(monkeypatch)
            service.publish(query)
            service.publish(query)
            assert derivations.per_plan[("route", first.name)] == 1
            assert derivations.per_plan[("kernel", first.name)] == 1


# ----------------------------------------------------------------------
# What moves a kept route
# ----------------------------------------------------------------------
def broadcast_heavy_backend(shards=4):
    """A small partitioned table joined against a big broadcast table."""
    backend = ShardedBackend(shards=shards, children="memory", partition_keys={"P": "k"})
    backend.create_table("P", 2, ("k", "v"))
    backend.create_table("B", 2, ("v", "w"))
    backend.insert_many("P", [(i, i % 4) for i in range(8)])
    backend.insert_many("B", [(i % 4, i) for i in range(2000)])
    return backend


def co_partitioned_plan():
    k, v, w = Variable("k"), Variable("v"), Variable("w")
    return ConjunctiveQuery(
        "co", (k, w), (RelationalAtom("P", (k, v)), RelationalAtom("B", (v, w)))
    )


def decisions(route, calls):
    """Every decision *calls* consecutive routings produce (all rotations)."""
    return {route() for _ in range(calls)}


def fresh_decisions(backend, plan):
    """What a router built now, for the current layout, decides."""
    router = ShardRouter(
        backend._specs, backend.shard_count, backend.router.cost_model
    )
    return decisions(lambda: router.route(plan), backend.shard_count)


def kept_decisions(backend, plan):
    return decisions(
        lambda: backend.route_plan(plan).decisions[0][1], backend.shard_count
    )


class TestRouteInvalidation:
    def test_statistics_refresh_rederives_the_route(self, monkeypatch):
        backend = broadcast_heavy_backend()
        plan = co_partitioned_plan()
        derivations = Derivations(monkeypatch)
        (before,) = kept_decisions(backend, plan)
        assert before.mode == MODE_SCATTER and not before.cost_based
        assert derivations.calls["route"] == 1
        epoch = backend.statistics_epoch
        backend.refresh_statistics()
        assert backend.statistics_epoch == epoch + 1
        after = kept_decisions(backend, plan)
        assert derivations.calls["route"] == 2
        assert {decision.mode for decision in after} == {MODE_GATHER}
        assert after == fresh_decisions(backend, plan)
        backend.close()

    def test_rebalance_rederives_the_route(self, monkeypatch):
        backend = broadcast_heavy_backend(shards=4)
        backend.refresh_statistics()
        plan = co_partitioned_plan()
        derivations = Derivations(monkeypatch)
        before = kept_decisions(backend, plan)
        assert derivations.calls["route"] == 1
        assert before == fresh_decisions(backend, plan)
        Rebalancer(backend, shards=2).run()
        assert backend.layout_version == 1
        derivations.reset()
        after = kept_decisions(backend, plan)
        assert derivations.calls["route"] == 1
        assert after == fresh_decisions(backend, plan)
        assert all(
            set(shards) <= {0, 1}
            for decision in after
            for _table, shards in decision.fetch_shards
        )
        backend.close()

    def test_broadcast_only_plan_still_rotates(self, monkeypatch):
        backend = broadcast_heavy_backend(shards=3)
        v, w = Variable("v"), Variable("w")
        plan = ConjunctiveQuery("dims", (v, w), (RelationalAtom("B", (v, w)),))
        derivations = Derivations(monkeypatch)
        before = backend.stats()
        backend.execute(plan)
        backend.execute(plan)
        after = backend.stats()
        assert derivations.calls["route"] == 1
        ran = [
            shard
            for shard in range(3)
            if after.executions_per_shard[shard] > before.executions_per_shard[shard]
        ]
        assert len(ran) == 2
        assert after.router.single_shard - before.router.single_shard == 2
        backend.close()

    def test_gather_rotates_its_broadcast_source(self):
        backend = broadcast_heavy_backend(shards=4)
        backend.refresh_statistics()
        plan = co_partitioned_plan()
        sources = [
            dict(backend.route_plan(plan).decisions[0][1].fetch_shards)["B"]
            for _ in range(2)
        ]
        assert sources[0] != sources[1]
        backend.close()

    def test_a_table_declared_later_is_seen(self):
        backend = ShardedBackend(shards=3, children="memory", partition_keys={"T": "k"})
        k, v = Variable("k"), Variable("v")
        plan = ConjunctiveQuery("t", (k, v), (RelationalAtom("T", (k, v)),))
        assert backend.route_plan(plan).decisions[0][1].mode == MODE_SINGLE
        backend.create_table("T", 2, ("k", "v"))
        assert backend.route_plan(plan).decisions[0][1].mode == MODE_SCATTER
        backend.close()


# ----------------------------------------------------------------------
# The record is derived, never normative
# ----------------------------------------------------------------------
class TestRecordStaysOutOfIdentity:
    def plan(self):
        x, y, z = Variable("x"), Variable("y"), Variable("z")
        return ConjunctiveQuery(
            "q",
            (x, z),
            (
                RelationalAtom("R", (x, y)),
                RelationalAtom("S", (z, Variable("u"))),
                EqualityAtom(y, z),
            ),
        )

    def test_equality_hash_and_pickle_ignore_the_record(self):
        served, fresh = self.plan(), self.plan()
        backend = MemoryBackend()
        backend.create_table("R", 2)
        backend.create_table("S", 2)
        backend.insert_many("R", [(1, 2)])
        backend.insert_many("S", [(2, 3)])
        assert backend.execute(served) == [(1, 2)]
        assert "_derived" in vars(served)
        assert served == fresh and hash(served) == hash(fresh)
        for copied in (pickle.loads(pickle.dumps(served)), copy.copy(served)):
            assert copied == served
            assert "_derived" not in vars(copied)

    def test_record_does_not_hold_its_plan(self):
        plan = self.plan().with_body(self.plan().relational_body)
        record = plan.derived()
        assert record.normalized == plan
        assert record.normalized is not plan

    def test_memory_path_checks_tables_once(self, monkeypatch):
        backend = MemoryBackend()
        backend.create_table("R", 2)
        with pytest.raises(EvaluationError, match="query q references unknown table 'S'"):
            backend.execute(self.plan())
        backend.create_table("S", 2)
        checked = collections.Counter()
        original = backend.database.has_table

        def has_table(name):
            checked[name] += 1
            return original(name)

        monkeypatch.setattr(backend.database, "has_table", has_table)
        assert backend.execute(self.plan()) == []
        assert checked == {"R": 1, "S": 1}
