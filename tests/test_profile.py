"""Per-operator query profiles: tree invariants across the backend matrix.

The structured EXPLAIN ANALYZE protocol promises a handful of invariants
no matter which engine executed the plan:

* the root node's ``actual_rows`` is exactly the published row count;
* every child operator's elapsed time fits inside its parent's window;
* engine-specific operators appear where they must (shard fragments
  with real per-shard cardinalities on a sharded deployment, a
  replica-read node naming the serving copy on a replicated one);
* the 1-in-N sampler is deterministic per seed, and the bounded buffer
  stays consistent under concurrent recording.

The matrix fixture flips ``MARS_BACKEND`` (plus the shard/replica
counts) exactly the way CI's tier-1 legs do, so every invariant is
checked on ``memory``, ``sqlite``, ``sharded`` and ``replicated``.
"""

import re
import threading

import pytest

from repro.core import MarsExecutor, MarsSystem
from repro.cost import CostModel
from repro.engine import CompiledConjunction
from repro.errors import EvaluationError
from repro.logical.atoms import RelationalAtom
from repro.logical.queries import ConjunctiveQuery
from repro.logical.terms import Variable
from repro.obs import NULL_SPAN, Span, current_span, operator_root
from repro.obs.feedback import Q_ERROR_CAP, q_error
from repro.profile import (
    JOIN_STEP,
    MERGE,
    ProfileBuffer,
    QueryProfile,
    REPLICA_READ,
    SCAN,
    SHARD_FRAGMENT,
)
from repro.replica import ReplicatedBackend
from repro.serve import PublishingService
from repro.storage.backends import create_backend
from repro.storage.backends.memory import MemoryBackend
from repro.workloads import medical, xmark

BACKENDS = ("memory", "sqlite", "sharded", "replicated")


@pytest.fixture(params=BACKENDS)
def profiled_service(request, monkeypatch):
    """A profiling service (sample=1) on each backend of the matrix."""
    monkeypatch.setenv("MARS_BACKEND", request.param)
    monkeypatch.setenv("MARS_SHARDS", "3")
    monkeypatch.setenv("MARS_REPLICAS", "2")
    service = PublishingService(
        medical.build_configuration(), pool_size=2, profile_sample=1
    )
    try:
        yield request.param, service
    finally:
        service.close()


class TestProfileTreeInvariants:
    def test_root_actual_rows_equals_published_rows(self, profiled_service):
        _backend, service = profiled_service
        rows = service.publish(medical.client_query())
        profile = service.last_profile
        assert profile is not None
        assert profile.actual_rows == len(rows)

    def test_child_elapsed_fits_inside_parent(self, profiled_service):
        _backend, service = profiled_service
        service.publish(medical.client_query())
        profile = service.last_profile
        seen = 0

        def check(node):
            nonlocal seen
            for child in node.children:
                seen += 1
                assert child.elapsed_seconds <= node.elapsed_seconds + 1e-6, (
                    f"{child.describe()} ({child.elapsed_seconds}s) outlives "
                    f"{node.describe()} ({node.elapsed_seconds}s)"
                )
                assert child.start >= node.start - 1e-6
                check(child)

        check(profile.root)
        assert seen > 0, "profiled publish produced a childless tree"

    def test_every_finished_node_is_closed(self, profiled_service):
        _backend, service = profiled_service
        service.publish(medical.client_query())
        for node in service.last_profile.operators():
            assert node.end is not None, f"{node.describe()} never finished"

    def test_operator_kinds_match_backend(self, profiled_service):
        backend, service = profiled_service
        rows = service.publish(medical.client_query())
        kinds = {node.kind for node in service.last_profile.operators()}
        if backend == "memory":
            assert kinds & {SCAN, JOIN_STEP}
        if backend == "sqlite":
            assert "statement" in kinds
        if backend == "sharded":
            assert SHARD_FRAGMENT in kinds
            fragments = [
                node
                for node in service.last_profile.operators()
                if node.kind == SHARD_FRAGMENT
            ]
            # Fragment cardinalities are real: per relation they sum to
            # the template's full table, fragment by fragment.
            totals = {}
            for fragment in fragments:
                relation = fragment.attributes.get("relation")
                if relation is not None:
                    totals[relation] = (
                        totals.get(relation, 0) + fragment.actual_rows
                    )
            template = service.executor.backend
            for relation, total in totals.items():
                assert total == template.cardinality(relation)
        if backend == "replicated":
            reads = [
                node
                for node in service.last_profile.operators()
                if node.kind == REPLICA_READ
            ]
            assert reads, "replicated publish recorded no replica-read node"
            served = reads[-1]
            assert served.attributes["replica"] in (0, 1)
            assert served.actual_rows == len(rows)

    def test_explain_analyze_returns_structured_profile(
        self, profiled_service
    ):
        _backend, service = profiled_service
        rows = service.publish(medical.client_query())
        profile = service.explain(medical.client_query(), analyze=True)
        assert isinstance(profile, QueryProfile)
        assert profile.actual_rows == len(rows)
        assert profile.metadata["forced"] is True
        # The structured export round-trips: the dict mirrors the tree.
        exported = profile.to_dict()
        assert exported["profile"]["actual_rows"] == len(rows)
        assert profile.to_json()

    def test_worst_operator_reaches_misestimation_report(
        self, profiled_service
    ):
        _backend, service = profiled_service
        service.publish(medical.client_query())
        report = service.misestimation_report()
        assert report, "profiled publish produced no feedback entry"
        worst = service.last_profile.worst_operator()
        if worst is not None:
            assert report[0].worst_operator == worst.describe()
            assert report[0].worst_operator_q_error == pytest.approx(
                worst.q_error or 1.0
            )


class TestProfilingDoesNotChangeAnswers:
    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_bag_semantics_survive_an_active_profile(
        self, backend_name, monkeypatch
    ):
        """Regression: the memory evaluator's profiling block rebound its
        own ``distinct`` flag, so a profiled bag query lost duplicates."""
        monkeypatch.setenv("MARS_SHARDS", "3")
        monkeypatch.setenv("MARS_REPLICAS", "2")
        a, b, c = Variable("a"), Variable("b"), Variable("c")
        query = ConjunctiveQuery(
            "bag",
            (a, c),
            (RelationalAtom("r", (a, b)), RelationalAtom("s", (b, c))),
        )
        with create_backend(backend_name) as backend:
            backend.create_table("r", 2, ("a", "b"))
            backend.create_table("s", 2, ("b", "c"))
            backend.insert_many("r", [(1, 2), (1, 3)])
            backend.insert_many("s", [(2, 9), (3, 9)])
            plain = backend.execute(query, distinct=False)
            with operator_root("execute", "bag"):
                profiled = backend.execute(query, distinct=False)
        assert sorted(plain) == [(1, 9), (1, 9)]
        assert sorted(profiled) == sorted(plain)


class TestEstimatesComeFromTheCatalog:
    """Regression: memory recounted distinct values per profiled step while
    SQLite memoized them per row count, so after a same-sized replacement
    of the probed table the two engines reported different estimates."""

    @staticmethod
    def plan_estimate(backend, query):
        """The last estimate in the tree: memory's final join-step, SQLite's
        statement (its per-atom scans carry only actual rows)."""
        with operator_root("execute", query.name) as root:
            backend.execute(query)
        return [
            node.estimated_rows
            for node in root.walk()
            if node.estimated_rows is not None
        ][-1]

    def test_engines_agree_and_follow_the_refreshed_catalog(self):
        a, b, c = Variable("a"), Variable("b"), Variable("c")
        query = ConjunctiveQuery(
            "join",
            (a, c),
            (RelationalAtom("r", (a, b)), RelationalAtom("s", (b, c))),
        )
        backends = [create_backend("memory"), create_backend("sqlite")]
        try:
            for backend in backends:
                backend.create_table("r", 2, ("a", "b"))
                backend.create_table("s", 2, ("b", "c"))
                backend.insert_many("r", [(i, i % 3) for i in range(12)])
                backend.insert_many("s", [(i % 3, i) for i in range(6)])
            # 12 * 6 / max(3, 3) distinct join values.
            assert [self.plan_estimate(b_, query) for b_ in backends] == [24.0, 24.0]
            for backend in backends:
                backend.clear_table("s")
                backend.insert_many("s", [(i, i) for i in range(6)])
                backend.refresh_statistics()
            # Same row counts, new catalog: 12 * 6 / max(3, 6).
            assert [self.plan_estimate(b_, query) for b_ in backends] == [12.0, 12.0]
            for backend in backends:
                with backend.clone() as clone:
                    assert clone.statistics_catalog is backend.statistics_catalog
                    assert self.plan_estimate(clone, query) == 12.0
        finally:
            for backend in backends:
                backend.close()



class TestUnreachedStepsStayInTheProfile:
    """Memory evaluation stops at the first empty step; a profiled tree
    still shows every step, the unreached ones with zero actual rows."""

    def test_empty_first_step_keeps_one_node_per_atom(self):
        a, b, c, d = Variable("a"), Variable("b"), Variable("c"), Variable("d")
        query = ConjunctiveQuery(
            "chain",
            (a, d),
            (
                RelationalAtom("r", (a, b)),
                RelationalAtom("s", (b, c)),
                RelationalAtom("t", (c, d)),
            ),
        )
        backend = MemoryBackend()
        try:
            for name in ("r", "s", "t"):
                backend.create_table(name, 2, ("x", "y"))
            backend.insert_many("s", [(i, i) for i in range(4)])
            backend.insert_many("t", [(i, i) for i in range(6)])
            backend.refresh_statistics()
            assert backend.execute(query) == []
            with operator_root("execute", query.name) as root:
                assert backend.execute(query) == []
        finally:
            backend.close()
        steps = [node for node in root.walk() if node.kind in (SCAN, JOIN_STEP)]
        assert [node.label for node in steps] == ["r[step 1]", "s[step 2]", "t[step 3]"]
        assert [node.kind for node in steps] == [SCAN, JOIN_STEP, JOIN_STEP]
        assert [node.actual_rows for node in steps] == [0, 0, 0]
        assert [node.attributes["table_rows"] for node in steps] == [0, 4, 6]
        assert [node.attributes["probe_positions"] for node in steps] == [(), (0,), (0,)]
        assert all(node.estimated_rows is not None for node in steps)
        assert all(node.end is not None for node in steps)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_unknown_relation_after_an_empty_step_raises(self, name):
        """Whether a missing table raises depends neither on the backend,
        on the join order nor on earlier steps' rows: every backend
        raises, profiled or not."""
        a, b, c = Variable("a"), Variable("b"), Variable("c")
        query = ConjunctiveQuery(
            "dangling",
            (a, c),
            (RelationalAtom("r", (a, b)), RelationalAtom("missing", (b, c))),
        )
        backend = create_backend(name)
        try:
            backend.create_table("r", 2, ("x", "y"))
            with pytest.raises(EvaluationError, match="missing"):
                backend.execute(query)
            with operator_root("execute", query.name):
                with pytest.raises(EvaluationError, match="missing"):
                    backend.execute(query)
        finally:
            backend.close()


class TestProfileFollowsTheExecutedOrder:
    """Regression: the memory evaluator joined in textual order, so a body
    whose text opens with a cross product ran one; it now runs the chase's
    compiled order, and the profile's labels and estimates follow it."""

    def test_steps_labels_and_estimates_follow_the_compiled_order(self):
        a, b, c, d = (Variable(name) for name in "abcd")
        query = ConjunctiveQuery(
            "crossed",
            (a, d),
            (
                RelationalAtom("r", (a, b)),
                RelationalAtom("s", (c, d)),
                RelationalAtom("t", (b, c)),
            ),
        )
        with create_backend("memory") as backend:
            for name in ("r", "s", "t"):
                backend.create_table(name, 2, ("x", "y"))
            backend.insert_many("r", [(i, i % 4) for i in range(8)])
            backend.insert_many("s", [(i % 4, i) for i in range(8)])
            backend.insert_many("t", [(i, i) for i in range(4)])
            with operator_root("execute", query.name) as root:
                rows = backend.execute(query)
            model = CostModel(backend.statistics_catalog)
        assert len(rows) == 16
        steps = [node for node in root.walk() if node.kind in (SCAN, JOIN_STEP)]
        assert [node.label for node in steps] == ["r[step 1]", "t[step 2]", "s[step 3]"]
        assert all(node.attributes["probe_positions"] for node in steps[1:])
        assert [node.actual_rows for node in steps] == [8, 8, 16]
        executed = query.with_body(
            [query.body[0], query.body[2], query.body[1]]
        )
        assert [node.estimated_rows for node in steps] == list(
            model.pipeline(executed)
        )


def executed_order(query):
    """*query* with its relational body in the order the memory evaluator
    runs it: the chase's compiled join order."""
    query = query.normalize_equalities()
    steps = CompiledConjunction(query.relational_body).steps
    return query.with_body([step.atom for step in steps])


def sharded_service(configuration, **options):
    configuration.backend = "sharded"
    configuration.shard_count = 3
    return PublishingService(configuration, pool_size=2, **options)


class TestShardedProfilesCarryThePlannersNumbers:
    def test_service_decision_nodes_carry_the_annotated_cost(self):
        """Regression: the service routed without annotation, so a
        profiled publish's forced-gather decision had no estimated cost
        while ``ShardedBackend.execute`` had one."""
        with sharded_service(medical.build_configuration()) as service:
            query = medical.client_query()
            profile = service.explain(query, analyze=True)
            plan = service.plan_for(service.reformulate(query))
            route = service.executor.backend.route_plan(plan, annotate=True)
            expected = [
                round(decision.estimated_cost, 3) for _q, decision in route.decisions
            ]
            decisions = [
                node for node in profile.operators() if "mode" in node.attributes
            ]
            assert [node.attributes["mode"] for node in decisions] == ["gather"]
            assert [
                node.attributes.get("estimated_cost") for node in decisions
            ] == expected

    def test_profiled_gathers_price_with_the_templates_catalog(self, monkeypatch):
        """Regression: a gather's scratch store had no catalog, so a
        profiled gather swept its fetched fragments for statistics."""
        calls = []
        collect = MemoryBackend.collect_statistics

        def spy(backend):
            calls.append(backend)
            return collect(backend)

        configuration = xmark.build_configuration(
            xmark.XMarkParameters(items_per_region=4, people=8, closed_auctions=12)
        )
        with sharded_service(configuration, profile_sample=1) as service:
            monkeypatch.setattr(MemoryBackend, "collect_statistics", spy)
            template = service.executor.backend
            gathers = 0
            for query in xmark.query_suite():
                service.publish(query)
                profile = service.last_profile
                plan = service.plan_for(service.reformulate(query))
                for node in profile.operators():
                    if node.kind != "gather":
                        continue
                    gathers += 1
                    steps = [
                        child.estimated_rows
                        for child in profile.children(node)
                        if child.kind in (SCAN, JOIN_STEP)
                    ]
                    assert steps == list(
                        template.estimate_pipeline(executed_order(plan))
                    )
            assert gathers
        assert calls == []


class TestExplainAnalyzeForcedWhenSamplingDisabled:
    def test_analyze_profiles_without_a_buffer(self):
        service = PublishingService(
            medical.build_configuration(), pool_size=2, profile_sample=0
        )
        try:
            assert service.profile_buffer is None
            rows = service.publish(medical.client_query())
            # Sampling disabled: the ordinary publish left no profile.
            assert service.last_profile is None
            profile = service.explain(medical.client_query(), analyze=True)
            assert profile.actual_rows == len(rows)
            assert service.last_profile is profile
        finally:
            service.close()

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            PublishingService(
                medical.build_configuration(), pool_size=2, profile_sample=-1
            )


class TestSamplerDeterminism:
    def test_same_seed_fires_identically(self):
        first = ProfileBuffer(sample=3, seed=1)
        second = ProfileBuffer(sample=3, seed=1)
        a = [first.should_sample() for _ in range(9)]
        b = [second.should_sample() for _ in range(9)]
        assert a == b
        assert a.count(True) == 3

    def test_seed_shifts_which_publish_fires(self):
        by_seed = {
            seed: [
                ProfileBuffer(sample=3, seed=seed).should_sample()
                for _ in range(1)
            ]
            for seed in range(3)
        }
        # seed 0 fires on the first publish, other residues do not.
        assert by_seed[0] == [True]
        assert by_seed[1] == [False]
        buffer = ProfileBuffer(sample=3, seed=1)
        fired = [buffer.should_sample() for _ in range(7)]
        assert fired == [False, False, True, False, False, True, False]

    def test_sample_one_profiles_everything(self):
        buffer = ProfileBuffer(sample=1)
        assert all(buffer.should_sample() for _ in range(5))

    def test_service_sampling_is_deterministic(self, monkeypatch):
        monkeypatch.setenv("MARS_BACKEND", "memory")

        def recorded_count(publishes: int) -> int:
            service = PublishingService(
                medical.build_configuration(),
                pool_size=2,
                profile_sample=3,
            )
            try:
                for _ in range(publishes):
                    service.publish(medical.client_query())
                return service.profile_buffer.recorded
            finally:
                service.close()

        # 1-in-3 with the default seed: publishes 1, 4, 7 are profiled.
        assert recorded_count(7) == 3
        assert recorded_count(7) == 3


class TestProfileBufferConcurrency:
    def test_eight_thread_stress_stays_consistent(self):
        buffer = ProfileBuffer(maxlen=16, sample=1)
        per_thread = 50
        threads = 8
        errors = []

        def worker(tag: int) -> None:
            try:
                for index in range(per_thread):
                    buffer.should_sample()
                    root = operator_root("execute", f"t{tag}q{index}")
                    with root:
                        child = root.operator(SCAN, "r", estimated_rows=2.0)
                        child.finish(actual_rows=4)
                    root.finish(actual_rows=4)
                    buffer.record(
                        QueryProfile(root, query=f"t{tag}q{index}")
                    )
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        pool = [
            threading.Thread(target=worker, args=(tag,))
            for tag in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert not errors
        assert buffer.offered == threads * per_thread
        assert buffer.recorded == threads * per_thread
        assert len(buffer) == 16  # bounded: only maxlen retained
        exported = buffer.recent()
        assert len(exported) == 16
        for entry in exported:
            assert entry["profile"]["actual_rows"] == 4
            assert entry["worst_q_error"] == 2.0
        assert buffer.worst_q_error() == 2.0

    def test_concurrent_publishes_each_get_their_own_tree(self, monkeypatch):
        monkeypatch.setenv("MARS_BACKEND", "memory")
        service = PublishingService(
            medical.build_configuration(), pool_size=4, profile_sample=1
        )
        errors = []

        def worker() -> None:
            try:
                for _ in range(5):
                    rows = service.publish(medical.client_query())
                    assert rows
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        try:
            pool = [threading.Thread(target=worker) for _ in range(8)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join()
            assert not errors
            assert service.profile_buffer.recorded == 40
            for entry in service.profile_buffer.recent():
                assert entry["profile"]["actual_rows"] is not None
        finally:
            service.close()


class TestAmbientSink:
    def test_no_tree_means_the_null_node(self):
        assert current_span() is NULL_SPAN
        assert not current_span().profiled
        # The null node absorbs instrumentation without allocating.
        assert NULL_SPAN.operator(SCAN, "r") is NULL_SPAN
        assert NULL_SPAN.child("span").as_operator(SCAN, "r") is NULL_SPAN
        NULL_SPAN.finish(actual_rows=3)
        NULL_SPAN.annotate(anything=1)
        assert NULL_SPAN.actual_rows is None
        assert NULL_SPAN.to_dict() == {}

    def test_nesting_restores_the_outer_node(self):
        outer = operator_root("execute", "outer")
        with outer:
            assert current_span() is outer
            with outer.operator(MERGE, "inner") as inner:
                assert current_span() is inner
            assert current_span() is outer
        assert current_span() is NULL_SPAN

    def test_unprofiled_tree_opens_no_operator(self):
        root = Span("publish")
        assert root.operator(SCAN, "r") is NULL_SPAN
        assert root.child("execute").as_operator("execute", "q").kind is None
        assert [child.name for child in root.children] == ["execute"]

    def test_exception_annotates_and_closes(self):
        node = operator_root("execute", "boom")
        with pytest.raises(RuntimeError):
            with node:
                raise RuntimeError("kaput")
        assert node.attributes["error"] == "RuntimeError"
        assert node.end is not None


class TestQErrorGuards:
    def test_zero_actual_rows_never_divides(self):
        # Flooring both sides at one row turns "estimated 10, got 0"
        # into a finite 10x error instead of a division by zero.
        assert q_error(10.0, 0) == 10.0
        assert q_error(0, 10.0) == 10.0
        assert q_error(0, 0) == 1.0
        assert q_error(1e12, 0) == Q_ERROR_CAP  # capped, never inf
        node = operator_root("execute", "q").operator(
            "scan", "r", estimated_rows=10.0
        )
        node.finish(actual_rows=0)
        assert node.q_error == 10.0

    def test_cap_keeps_prometheus_text_finite(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        gauge = registry.gauge(
            "mars_profile_worst_q_error_ratio", "worst operator q-error"
        )
        gauge.set(q_error(1e12, 0.0))
        text = registry.render_prometheus()
        assert "inf" not in text.lower()
        assert "nan" not in text.lower()

    def test_symmetric_and_floored(self):
        assert q_error(10, 100) == q_error(100, 10) == 10.0
        assert q_error(0.25, 1) == 1.0  # both sides floored at one row
        assert q_error(float("nan"), 5) == Q_ERROR_CAP
        assert q_error(float("inf"), 5) == Q_ERROR_CAP


class TestExplainDecisionRendering:
    def test_sharded_explain_shows_the_routing_decision(self, monkeypatch):
        monkeypatch.setenv("MARS_BACKEND", "sharded")
        monkeypatch.setenv("MARS_SHARDS", "3")
        service = PublishingService(
            medical.build_configuration(), pool_size=2
        )
        try:
            text = service.explain(medical.client_query())
            assert "cost_based=" in text  # cost comparison vs fixed rule
            assert re.search(r"mode='(single|scatter|gather)'", text)
        finally:
            service.close()

    def test_replicated_explain_names_the_serving_replica(self, monkeypatch):
        monkeypatch.setenv("MARS_BACKEND", "replicated")
        monkeypatch.setenv("MARS_REPLICAS", "2")
        service = PublishingService(
            medical.build_configuration(), pool_size=2
        )
        try:
            text = service.explain(medical.client_query())
            # The serving replica heads its own preference order.
            (served, first) = re.search(
                r"replica-read replica(\d): .*order=\[(\d), \d\]", text
            ).groups()
            assert served == first
        finally:
            service.close()


class TestExplainRunsWhatItNames:
    """Regression: explain re-derived each decision instead of running it,
    and asking the selector or the router moved their state."""

    def test_each_explain_names_the_replica_that_served_its_read(self):
        configuration = medical.build_configuration()
        backend = ReplicatedBackend(
            replicas=2, child="memory", selector="round_robin"
        )
        executor = MarsExecutor(configuration, backend=backend)
        plan = MarsSystem(configuration).reformulate(medical.client_query()).best
        try:
            for _ in range(3):
                before = backend.stats().reads_per_replica
                text = executor.explain_reformulation(plan)
                after = backend.stats().reads_per_replica
                moved = [
                    index
                    for index, (old, new) in enumerate(zip(before, after))
                    if new != old
                ]
                named = [int(i) for i in re.findall(r"replica-read replica(\d)", text)]
                assert len(moved) == 1 and named == moved, (text, before, after)
        finally:
            backend.close()

    def test_explain_counts_only_the_routes_it_runs(self):
        with sharded_service(xmark.build_configuration()) as service:
            template = service.executor.backend
            query = xmark.query_item_prices()
            service.publish(query)  # compile outside the measured window
            before = template.stats()
            text = service.explain(query)
            after = template.stats()
            # The router counted one scatter route, and that route ran on
            # every shard; the text shows the same one decision node.
            moved = [
                new - old
                for old, new in zip(
                    before.executions_per_shard, after.executions_per_shard
                )
            ]
            assert after.router.scatter - before.router.scatter == 1
            assert moved == [1, 1, 1]
            decisions = re.findall(r"\bmode='(\w+)'", text)
            assert decisions == ["scatter"]
            assert after.router.queries - before.router.queries == len(decisions)
            for shard in range(3):
                assert f"@shard{shard}" in text
