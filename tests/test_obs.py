"""Observability: tracing, metrics, events and cost feedback.

Covers the acceptance criteria of the telemetry subsystem:

* a single ``publish()`` on the replicated-over-sharded configuration
  yields a JSON span tree covering plan-cache lookup, reformulation,
  routing, per-shard execution and merge;
* ``metrics()`` emits valid Prometheus text including publish-latency
  p50/p95/p99;
* a forced replica fence and an online rebalance each produce *ordered*
  event-log entries (with LSNs);
* the estimate-vs-actual report shows per-fingerprint cardinality error
  on the xmark workload;
* an 8-thread stress run leaves every counter and histogram total equal
  to the oracle count, and disabled tracing stays allocation-free.
"""

import ast
import json
import threading
from pathlib import Path

import pytest

from repro.errors import StorageError
from repro.obs import (
    NULL_SPAN,
    NULL_TRACE,
    CostFeedback,
    EventLog,
    MetricsRegistry,
    POOL_CLONE_REPLACED,
    REBALANCE_COPY,
    REBALANCE_CUTOVER,
    REBALANCE_REPLAY,
    REBALANCE_STAGE,
    REPLICA_FAILOVER,
    REPLICA_FENCED,
    SLOW_QUERY,
    STATISTICS_REFRESH,
    Span,
    Tracer,
    current_span,
    q_error,
    timer,
    validate_metric_name,
)
from repro.profile import EXECUTE, MERGE, REPLICA_READ, SHARD_FRAGMENT
from repro.replica import ChangeSet, ReplicatedBackend
from repro.serve import PublishingService
from repro.storage.backends.memory import MemoryBackend
from repro.storage.backends.sqlite import SQLiteBackend
from repro.workloads import medical, xmark


def small_xmark():
    return xmark.build_configuration(
        xmark.XMarkParameters(items_per_region=4, people=8, closed_auctions=12)
    )


# ----------------------------------------------------------------------
# Timer
# ----------------------------------------------------------------------
class TestTimer:
    def test_elapsed_runs_until_stop_freezes(self):
        clock = timer()
        first = clock.elapsed
        assert first >= 0.0
        frozen = clock.stop()
        assert frozen >= first
        assert clock.stop() == frozen  # idempotent
        assert clock.elapsed == frozen  # reads the frozen value

    def test_context_manager_form(self):
        with timer() as clock:
            assert clock.seconds is None
        assert clock.seconds is not None and clock.seconds >= 0.0


# ----------------------------------------------------------------------
# Spans and tracer
# ----------------------------------------------------------------------
class TestTracing:
    def test_ambient_span_nesting(self):
        assert current_span() is NULL_SPAN
        root = Span("root")
        with root:
            assert current_span() is root
            with current_span().child("inner") as inner:
                assert current_span() is inner
            assert current_span() is root
        assert current_span() is NULL_SPAN
        assert [child.name for child in root.children] == ["inner"]
        assert root.end is not None

    def test_disabled_tracer_is_allocation_free(self):
        tracer = Tracer(enabled=False)
        trace = tracer.trace("publish")
        assert trace is NULL_TRACE
        # the null span absorbs arbitrarily deep instrumentation without
        # allocating: every child IS the singleton
        span = trace.root
        assert span is NULL_SPAN
        assert span.child("a").child("b") is NULL_SPAN
        with span.child("c") as entered:
            assert entered is NULL_SPAN
        assert trace.to_dict() == {}
        assert trace.span_names() == []
        # force=True overrides the switch for explain(trace=True)
        assert tracer.trace("publish", force=True) is not NULL_TRACE

    def test_error_annotation_on_exception(self):
        root = Span("root")
        with pytest.raises(ValueError):
            with root:
                raise ValueError("boom")
        assert root.attributes["error"] == "ValueError"

    def test_add_phase_grafts_recorded_durations(self):
        root = Span("root")
        root.add_phase("chase", 0.25, offset=0.05, rounds=3)
        root.finish()
        entry = root.to_dict()
        child = entry["children"][0]
        assert child["name"] == "chase"
        assert child["offset_ms"] == pytest.approx(50.0, abs=0.001)
        assert child["duration_ms"] == pytest.approx(250.0, abs=0.001)
        assert child["attributes"]["rounds"] == 3

    def test_worker_thread_parents_through_captured_span(self):
        """Thread-locals do not cross threads; captured span objects do."""
        root = Span("root")
        with root:
            parent = current_span()

            def task():
                # the worker's own ambient stack is empty...
                assert current_span() is NULL_SPAN
                # ...but the captured parent attaches children fine
                with parent.child("shard.execute", shard=1):
                    pass

            worker = threading.Thread(target=task)
            worker.start()
            worker.join(timeout=10)
        assert [child.name for child in root.children] == ["shard.execute"]

    def test_trace_json_and_render(self):
        tracer = Tracer(enabled=True)
        trace = tracer.trace("publish", query="Q")
        with trace.root:
            with current_span().child("execute", rows=4):
                pass
        exported = json.loads(trace.to_json())
        assert exported["query"] == "Q"
        assert exported["trace"]["name"] == "publish"
        assert exported["trace"]["children"][0]["name"] == "execute"
        text = trace.render()
        assert "publish" in text and "execute" in text and "ms" in text


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetrics:
    def test_name_validation(self):
        validate_metric_name("mars_publishes_total", "counter")
        with pytest.raises(ValueError):
            validate_metric_name("MarsPublishes_total", "counter")
        with pytest.raises(ValueError):
            validate_metric_name("mars_publishes", "counter")  # no _total
        with pytest.raises(ValueError):
            validate_metric_name("mars_things", "gauge")  # no unit suffix

    def test_registered_once(self):
        registry = MetricsRegistry()
        first = registry.counter("obs_demo_total", "help")
        again = registry.counter("obs_demo_total", "other help")
        assert first is again
        with pytest.raises(ValueError):
            registry.gauge("obs_demo_total")
        with pytest.raises(ValueError):
            registry.counter("obs_demo_total", labels=("shard",))

    def test_counter_only_goes_up(self):
        registry = MetricsRegistry()
        counter = registry.counter("obs_ups_total")
        counter.inc()
        counter.inc(2)
        assert counter.value == 3.0
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_labeled_families(self):
        registry = MetricsRegistry()
        family = registry.counter("obs_shard_ops_total", labels=("shard",))
        family.labels(shard=0).inc()
        family.labels(shard=0).inc()
        family.labels(shard=1).inc()
        text = registry.render_prometheus()
        assert 'obs_shard_ops_total{shard="0"} 2' in text
        assert 'obs_shard_ops_total{shard="1"} 1' in text
        with pytest.raises(ValueError):
            family.labels(replica=0)

    def test_histogram_buckets_and_quantiles(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "obs_latency_seconds", buckets=(0.01, 0.1, 1.0)
        )
        for value in (0.005, 0.005, 0.05, 0.5, 5.0):
            hist.observe(value)
        assert hist.count == 5
        assert hist.bucket_counts() == (2, 3, 4, 5)
        assert 0.0 < hist.quantile(0.50) <= 0.1
        assert hist.quantile(0.99) == 1.0  # +Inf reports the largest bound
        with pytest.raises(ValueError):
            hist.quantile(0.0)

    def test_prometheus_text_is_well_formed(self):
        registry = MetricsRegistry()
        registry.counter("obs_served_total", "queries").inc(3)
        hist = registry.histogram("obs_wait_seconds", "waits", buckets=(0.1, 1.0))
        hist.observe(0.05)
        text = registry.render_prometheus()
        lines = text.splitlines()
        assert "# HELP obs_served_total queries" in lines
        assert "# TYPE obs_served_total counter" in lines
        assert "# TYPE obs_wait_seconds histogram" in lines
        assert 'obs_wait_seconds_bucket{le="+Inf"} 1' in lines
        assert "obs_wait_seconds_count 1" in lines
        for line in lines:
            assert line.startswith("#") or " " in line  # name value pairs

    def test_collectors_run_at_export(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("obs_depth_entries")
        state = {"depth": 7}
        registry.add_collector(lambda: gauge.set(state["depth"]))
        snapshot = registry.snapshot()
        assert snapshot["obs_depth_entries"]["values"][0]["value"] == 7.0

    def test_eight_thread_stress_matches_oracle(self):
        """Counter and histogram totals equal the oracle after 8 threads."""
        registry = MetricsRegistry()
        counter = registry.counter("obs_stress_ops_total")
        hist = registry.histogram(
            "obs_stress_latency_seconds", buckets=(0.001, 0.01, 0.1)
        )
        threads_n, per_thread = 8, 400
        started = threading.Barrier(threads_n)
        errors = []

        def worker(index):
            try:
                started.wait(timeout=10)
                for i in range(per_thread):
                    counter.inc()
                    hist.observe(0.0005 * ((i + index) % 4 + 1))
            except Exception as error:  # pragma: no cover
                errors.append(error)

        workers = [
            threading.Thread(target=worker, args=(i,)) for i in range(threads_n)
        ]
        for worker_thread in workers:
            worker_thread.start()
        for worker_thread in workers:
            worker_thread.join(timeout=60)
        assert not errors
        oracle = threads_n * per_thread
        assert counter.value == oracle
        assert hist.count == oracle
        assert hist.bucket_counts()[-1] == oracle


# ----------------------------------------------------------------------
# Event log
# ----------------------------------------------------------------------
class TestEventLog:
    def test_sequences_are_dense_and_ordered(self):
        log = EventLog()
        log.record("a.one", detail=1)
        log.record("b.two")
        log.record("a.one")
        sequences = [event.sequence for event in log.events()]
        assert sequences == [1, 2, 3]
        assert log.count() == 3
        assert log.count("a.one") == 2
        assert log.kinds() == ("a.one", "b.two")

    def test_ring_bound_keeps_lifetime_counts(self):
        log = EventLog(maxlen=2)
        for i in range(5):
            log.record("k", i=i)
        assert len(log) == 2
        assert log.count("k") == 5  # lifetime, not retained
        assert [event.details["i"] for event in log.events()] == [3, 4]

    def test_lsn_source_stamps_events(self):
        state = {"lsn": 41}
        log = EventLog(lsn_source=lambda: state["lsn"])
        event = log.record("k")
        assert event.lsn == 41
        explicit = log.record("k", lsn=99)
        assert explicit.lsn == 99
        entry = json.loads(log.to_json())[0]
        assert entry == {"sequence": 1, "kind": "k", "lsn": 41,
                         "timestamp": entry["timestamp"]}

    def test_failed_recording_is_dropped_and_counted_not_raised(self):
        """Regression: record() used to swallow failures without a trace.

        A raising ``lsn_source`` (typical during service teardown) must
        neither take the caller down nor vanish silently — the drop is
        counted and ``record`` returns ``None``.
        """

        def broken_lsn_source():
            raise RuntimeError("backend already closed")

        log = EventLog(lsn_source=broken_lsn_source)
        assert log.record("k", detail="lost") is None
        assert log.record("k") is None
        assert log.dropped == 2
        assert len(log) == 0
        assert log.count("k") == 0
        # An explicit lsn bypasses the broken source: recording recovers.
        event = log.record("k", lsn=7)
        assert event is not None and event.lsn == 7
        assert log.dropped == 2


# ----------------------------------------------------------------------
# Cost feedback
# ----------------------------------------------------------------------
class TestCostFeedback:
    def test_q_error_is_symmetric_and_floored(self):
        assert q_error(10, 100) == q_error(100, 10) == 10.0
        assert q_error(0, 0) == 1.0  # both floored at one row
        assert q_error(1, 1) == 1.0

    def test_report_sorts_worst_first(self):
        feedback = CostFeedback()
        feedback.record("fp_a", "plan_a", 10.0, 5.0, 100, 0.01)
        feedback.record("fp_b", "plan_b", 10.0, 5.0, 20, 0.01)
        report = feedback.report()
        assert [entry.fingerprint for entry in report] == ["fp_a", "fp_b"]
        assert report[0].cardinality_q_error == 10.0
        assert report[1].cardinality_q_error == 2.0
        assert feedback.worst_q_error() == 10.0

    def test_replanned_fingerprint_resets_its_aggregate(self):
        feedback = CostFeedback()
        feedback.record("fp", "plan_a", 10.0, 5.0, 100, 0.01)
        feedback.record("fp", "plan_a", 10.0, 5.0, 100, 0.01)
        # fresh statistics re-ranked the candidates: new estimate
        feedback.record("fp", "plan_a", 100.0, 5.0, 100, 0.01)
        (entry,) = feedback.report()
        assert entry.samples == 1
        assert entry.cardinality_q_error == 1.0

    def test_thresholds_filter_the_report(self):
        feedback = CostFeedback()
        feedback.record("good", "p", 10.0, 1.0, 10, 0.01)
        feedback.record("bad", "p", 10.0, 1.0, 90, 0.01)
        assert len(feedback.report(q_threshold=2.0)) == 1
        assert len(feedback.report(min_samples=2)) == 0

    def test_bounded_eviction(self):
        feedback = CostFeedback(maxsize=2)
        for name in ("a", "b", "c"):
            feedback.record(name, "p", 1.0, 1.0, 1, 0.0)
        assert len(feedback) == 2
        assert {entry.fingerprint for entry in feedback.report()} == {"b", "c"}


# ----------------------------------------------------------------------
# Service integration: tracing
# ----------------------------------------------------------------------
class TestServiceTracing:
    def test_publish_span_tree_on_plain_service(self):
        with PublishingService(
            medical.build_configuration(), pool_size=2
        ) as service:
            query = medical.client_query()
            service.publish(query)
            names = service.last_trace.span_names()
            # a cold publish shows the cache miss and the C&B phases
            for expected in ("publish", "reformulate", "plan_cache.lookup",
                             "chase", "backchase.initial", "pool.acquire",
                             "execute"):
                assert expected in names, names
            # the size of the search rides on the minimization span
            (minimize,) = [
                span for span in service.last_trace.root.walk()
                if span.name == "backchase.minimize"
            ]
            compiled = service.system.reformulate(query)  # the cached plan
            assert compiled.subqueries_inspected > 0
            assert (
                minimize.attributes["subqueries_inspected"]
                == compiled.subqueries_inspected
            )
            # a complete search adds nothing else to the span
            assert compiled.complete
            assert "truncated" not in minimize.attributes
            service.publish(query)
            warm = service.last_trace.span_names()
            assert "chase" not in warm  # cache hit: no C&B phases
            assert "plan_cache.lookup" in warm

    def test_replicated_over_sharded_span_tree(self):
        """The acceptance span tree: one publish covers cache lookup,
        reformulation, routing, per-shard execution and merge — through
        the replica layer."""
        configuration = small_xmark()
        configuration.backend = "replicated"
        configuration.replica_count = 2
        configuration.replica_child = "sharded"
        with PublishingService(configuration, pool_size=2) as service:
            service.publish(xmark.query_item_names())
            exported = json.loads(service.last_trace.to_json())
            assert exported["query"] == "ItemNames"
            names = service.last_trace.span_names()
            for expected in ("publish", "plan_cache.lookup", "reformulate",
                             "route", "replica.read", "shard.execute",
                             "merge"):
                assert expected in names, names
            # the route span names the shards it fanned out to
            (route_span,) = [
                span for span in service.last_trace.root.walk()
                if span.name == "route"
            ]
            assert route_span.attributes["shards"]

    def test_tracing_disabled_is_freely_absorbed(self):
        with PublishingService(
            medical.build_configuration(), pool_size=2, tracing=False
        ) as service:
            rows = service.publish(medical.client_query())
            assert rows
            # nothing recorded, nothing allocated: the null singletons
            assert service.last_trace is NULL_TRACE
            assert service.tracer.trace("publish") is NULL_TRACE
            # explain(trace=True) still forces a real trace
            text = service.explain(medical.client_query(), trace=True)
            assert "publish" in text and "ms" in text
            assert service.last_trace is not NULL_TRACE

    def test_update_gets_a_span_tree_too(self):
        with PublishingService(small_xmark(), pool_size=1) as service:
            service.update(
                ChangeSet.build(inserts={"itemName": [("item_t1", "traced")]})
            )
            names = service.last_trace.span_names()
            assert names[0] == "update"
            assert "apply" in names and "log.append" in names
            assert service.last_trace.root.attributes["lsn"] == 1


# ----------------------------------------------------------------------
# Service integration: metrics
# ----------------------------------------------------------------------
class TestServiceMetrics:
    def test_prometheus_exposition_with_latency_quantiles(self):
        with PublishingService(
            medical.build_configuration(), pool_size=2
        ) as service:
            query = medical.client_query()
            for _ in range(5):
                service.publish(query)
            text = service.metrics()
            assert "# TYPE mars_publish_latency_seconds histogram" in text
            assert 'mars_publish_latency_seconds_bucket{le="+Inf"} 5' in text
            assert "mars_publishes_total 5" in text
            assert "mars_plan_cache_hit_ratio" in text
            exported = json.loads(service.metrics("json"))
            latency = exported["mars_publish_latency_seconds"]["values"][0]
            assert latency["count"] == 5
            for quantile in ("p50", "p95", "p99"):
                assert latency[quantile] > 0.0
            with pytest.raises(ValueError):
                service.metrics("xml")

    def test_eight_thread_publish_stress_matches_oracle(self):
        configuration = medical.build_configuration()
        queries = [medical.client_query(), medical.drug_usage_query()]
        threads_n, rounds = 8, 5
        with PublishingService(configuration, pool_size=4) as service:
            for query in queries:
                service.publish(query)  # warm the plan cache
            started = threading.Barrier(threads_n)
            errors = []

            def worker():
                try:
                    started.wait(timeout=10)
                    for _ in range(rounds):
                        for query in queries:
                            service.publish(query)
                except Exception as error:  # pragma: no cover
                    errors.append(error)

            workers = [
                threading.Thread(target=worker) for _ in range(threads_n)
            ]
            for worker_thread in workers:
                worker_thread.start()
            for worker_thread in workers:
                worker_thread.join(timeout=60)
            assert not errors
            oracle = len(queries) * (1 + threads_n * rounds)
            registry = service.registry
            assert registry.get("mars_publishes_total").value == oracle
            assert registry.get("mars_publish_latency_seconds").count == oracle
            assert service.stats().queries_served == oracle
            # the exported gauge agrees with the *Stats snapshot
            exported = json.loads(service.metrics("json"))
            checkouts = exported["mars_pool_checkouts_total"]["values"][0]
            assert checkouts["value"] == service.stats().pool.checkouts

    def test_router_cost_overrides_and_failovers_in_snapshot(self):
        configuration = medical.build_configuration()
        configuration.backend = "sharded"
        configuration.shard_count = 3
        with PublishingService(configuration, pool_size=2) as service:
            service.publish(medical.client_query())
            snapshot = service.stats().snapshot()
            assert "cost_overrides" in snapshot["router"]
            assert snapshot["router"]["queries"] >= 1
            assert snapshot["replica_failovers"] == 0
            assert snapshot["replica_fenced"] == 0
            assert json.dumps(snapshot)  # JSON-able throughout


# ----------------------------------------------------------------------
# Service integration: events
# ----------------------------------------------------------------------
class _FlakyBackend(MemoryBackend):
    """A memory backend whose reads fail while the switch is thrown."""

    def __init__(self, switch):
        super().__init__()
        self._switch = switch

    def execute(self, query, distinct=True):
        if self._switch["fail"]:
            raise StorageError("injected replica failure")
        return super().execute(query, distinct=distinct)


class TestServiceEvents:
    def test_read_failover_records_ordered_events(self):
        switch = {"fail": False}
        backend = ReplicatedBackend(
            children=[_FlakyBackend(switch), MemoryBackend()]
        )
        log = EventLog()
        backend.set_event_log(log)
        backend.create_table("r", 2, ("a", "b"))
        backend.insert_many("r", [(1, "x"), (2, "y")])
        switch["fail"] = True
        from repro.logical.atoms import RelationalAtom
        from repro.logical.queries import ConjunctiveQuery
        from repro.logical.terms import Variable

        x, y = Variable("x"), Variable("y")
        query = ConjunctiveQuery("q", (x, y), (RelationalAtom("r", (x, y)),))
        for _ in range(3):
            assert len(backend.execute(query)) == 2  # failed over
        events = log.events(REPLICA_FAILOVER)
        assert len(events) >= 1
        sequences = [event.sequence for event in events]
        assert sequences == sorted(sequences)
        assert events[0].details["replica"] == 0
        backend.close()

    def test_forced_fence_produces_ordered_lsn_stamped_events(self):
        """A replica that misses a write is fenced; the service event log
        records it in order, stamped with the write LSN."""
        configuration = small_xmark()
        template = ReplicatedBackend(
            children=[MemoryBackend(), SQLiteBackend(check_same_thread=False)]
        )
        with PublishingService(
            configuration, backend=template, pool_size=1
        ) as service:
            assert service.stats().replicas.live_replicas == 2
            # memory stores any Python value; SQLite cannot bind a tuple —
            # the SQLite replica misses the write and must be fenced
            lsn = service.update(
                ChangeSet.build(inserts={"itemName": [(("bad", "key"), "v")]})
            )
            fences = service.events.events(REPLICA_FENCED)
            assert len(fences) >= 1
            assert fences[0].details["engine"] == "sqlite"
            assert fences[0].lsn is not None and fences[0].lsn <= lsn
            sequences = [event.sequence for event in fences]
            assert sequences == sorted(sequences)
            stats = service.stats()
            assert stats.replicas.fenced == 1
            assert stats.replica_fenced >= 1
            assert stats.snapshot()["replicas"]["fenced"] == 1
        template.close()

    def test_rebalance_emits_ordered_stage_events(self):
        configuration = small_xmark()
        configuration.backend = "sharded"
        configuration.shard_count = 2
        with PublishingService(configuration, pool_size=1) as service:
            report = service.rebalance(shards=3)
            assert report.new_shard_count == 3
            order = [
                event for event in service.events.events()
                if event.kind.startswith("rebalance.")
            ]
            kinds = [event.kind for event in order]
            assert kinds[0] == REBALANCE_STAGE
            assert REBALANCE_COPY in kinds and REBALANCE_REPLAY in kinds
            assert kinds[-1] == REBALANCE_CUTOVER
            sequences = [event.sequence for event in order]
            assert sequences == sorted(sequences)
            cutover = order[-1]
            assert cutover.details["new_shards"] == 3
            # the refresh after the cutover is also on the log
            refreshes = service.events.events(STATISTICS_REFRESH)
            assert refreshes and refreshes[-1].details["reason"] == "rebalance"
            assert refreshes[-1].sequence > cutover.sequence

    def test_drift_refresh_event(self):
        with PublishingService(
            small_xmark(), pool_size=1, drift_threshold=0.05
        ) as service:
            rows = [(f"item_bulk_{i}", f"g{i}") for i in range(40)]
            service.update(ChangeSet.build(inserts={"itemName": rows}))
            refreshes = service.events.events(STATISTICS_REFRESH)
            assert refreshes and refreshes[0].details["reason"] == "drift"

    def test_pool_clone_replacement_event(self):
        from repro.replica.changeset import MutationLog
        from repro.serve.pool import ConnectionPool

        template = SQLiteBackend(check_same_thread=False)
        template.create_table("r", 2, ("a", "b"))
        log = MutationLog()
        events = EventLog()
        pool = ConnectionPool(
            template, size=1, mutation_log=log, events=events, label="p"
        )
        connection = pool.acquire()
        # a log entry SQLite cannot apply poisons checkin replay: the
        # clone is discarded and replaced from the template
        log.append(ChangeSet.build(inserts={"r": [((1, 2), "bad")]}))
        with pytest.raises(Exception):
            pool.release(connection)
        recorded = events.events(POOL_CLONE_REPLACED)
        assert len(recorded) == 1
        assert recorded[0].details["replaced"] is True
        assert recorded[0].details["pool"] == "p"
        # the pool still serves: the replacement is checked out fine
        with pool.connection() as replacement:
            assert replacement is not connection
        pool.close()
        template.close()

    def test_slow_query_log_threshold_and_sampling(self):
        with PublishingService(
            medical.build_configuration(),
            pool_size=1,
            slow_query_seconds=0.0,  # every publish qualifies
            slow_query_sample=2,  # ...but only every 2nd is recorded
        ) as service:
            query = medical.client_query()
            for _ in range(6):
                service.publish(query)
            slow = service.slow_queries()
            assert len(slow) == 3  # 1st, 3rd, 5th
            assert all(event.kind == SLOW_QUERY for event in slow)
            assert slow[0].details["query"] == query.name
            assert service.registry.get("mars_slow_queries_total").value == 6
        with PublishingService(
            medical.build_configuration(), pool_size=1,
            slow_query_seconds=None,
        ) as service:
            service.publish(medical.client_query())
            assert service.slow_queries() == ()  # disabled by default


# ----------------------------------------------------------------------
# Service integration: cost feedback
# ----------------------------------------------------------------------
class TestServiceCostFeedback:
    def test_xmark_report_shows_per_fingerprint_cardinality_error(self):
        configuration = small_xmark()
        configuration.backend = "sharded"
        configuration.shard_count = 2
        with PublishingService(configuration, pool_size=2) as service:
            queries = xmark.query_suite()
            for query in queries:
                for _ in range(2):
                    service.publish(query)
            report = service.misestimation_report(min_samples=2)
            assert report  # estimates were recorded and aggregated
            fingerprints = {entry.fingerprint for entry in report}
            assert len(fingerprints) == len(report)  # per-fingerprint
            for entry in report:
                assert entry.samples == 2
                assert entry.cardinality_q_error >= 1.0
                assert entry.estimated_rows >= 0.0
                assert entry.plan_name
            errors = [entry.cardinality_q_error for entry in report]
            assert errors == sorted(errors, reverse=True)
            exported = [entry.to_dict() for entry in report]
            assert json.dumps(exported)

    def test_misestimation_triggers_statistics_refresh(self):
        with PublishingService(small_xmark(), pool_size=1) as service:
            query = xmark.query_item_names()
            for _ in range(3):
                service.publish(query)
            worst = service.cost_feedback.worst_q_error(min_samples=3)
            # a threshold above the observed error does nothing...
            assert not service.refresh_if_misestimated(
                q_threshold=worst + 1.0, min_samples=3
            )
            assert service.stats().statistics_refreshes == 0
            # ...at (or below) it, statistics are re-collected and the
            # feedback aggregates reset
            assert service.refresh_if_misestimated(
                q_threshold=worst, min_samples=3
            )
            stats = service.stats()
            assert stats.statistics_refreshes == 1
            assert len(service.cost_feedback) == 0
            refreshes = service.events.events(STATISTICS_REFRESH)
            assert refreshes[-1].details["reason"] == "misestimation"


# ----------------------------------------------------------------------
# Prometheus exposition edge cases
# ----------------------------------------------------------------------
class TestExpositionEdgeCases:
    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        gauge = registry.gauge(
            "demo_escape_ratio", "label-escaping fixture", labels=("path",)
        )
        nasty = 'a"b\\c\nend'
        gauge.labels(path=nasty).set(1.0)
        text = registry.render_prometheus()
        line = next(
            l for l in text.splitlines() if l.startswith("demo_escape_ratio{")
        )
        # The exposition stays one physical line: backslash, quote and
        # newline all arrive as their escape sequences.
        assert line == 'demo_escape_ratio{path="a\\"b\\\\c\\nend"} 1'
        # And the escaping round-trips: un-escaping recovers the value.
        start = line.index('"') + 1
        end = line.rindex('"')
        unescaped = (
            line[start:end]
            .replace("\\n", "\n")
            .replace('\\"', '"')
            .replace("\\\\", "\\")
        )
        assert unescaped == nasty

    def test_empty_histogram_exports_zero_quantiles(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("demo_idle_seconds", "never observed")
        assert histogram.quantile(0.99) == 0.0
        assert histogram.quantile(0.50) == 0.0
        text = registry.render_prometheus()
        assert "demo_idle_seconds_count 0" in text
        assert "demo_idle_seconds_sum 0" in text
        exported = json.loads(registry.to_json())
        values = exported["demo_idle_seconds"]["values"][0]
        assert values["count"] == 0
        assert values["p50"] == 0.0 and values["p99"] == 0.0

    def test_collector_exceptions_surface_loudly(self):
        registry = MetricsRegistry()
        registry.counter("demo_fine_total", "unaffected metric").inc()

        def broken_collector():
            raise KeyError("stats went away")

        registry.add_collector(broken_collector)
        with pytest.raises(RuntimeError, match="broken_collector"):
            registry.render_prometheus()
        with pytest.raises(RuntimeError, match="stats went away"):
            registry.to_json()


# ----------------------------------------------------------------------
# EventLog tail and lifetime counts
# ----------------------------------------------------------------------
class TestEventLogTail:
    def test_tail_returns_newest_n_oldest_first(self):
        log = EventLog(maxlen=16)
        for i in range(10):
            log.record("tick", index=i)
        tail = log.tail(3)
        assert [event.details["index"] for event in tail] == [7, 8, 9]
        assert log.tail(0) == ()
        assert log.tail(-5) == ()
        # Asking for more than retained returns everything retained.
        assert len(log.tail(99)) == 10

    def test_tail_filters_by_kind_before_counting(self):
        log = EventLog(maxlen=16)
        for i in range(4):
            log.record("a", index=i)
            log.record("b", index=i)
        tail = log.tail(2, kind="a")
        assert [event.kind for event in tail] == ["a", "a"]
        assert [event.details["index"] for event in tail] == [2, 3]

    def test_counts_survive_ring_eviction(self):
        log = EventLog(maxlen=2)
        for _ in range(5):
            log.record("evicted")
        log.record("kept")
        assert len(log) == 2
        assert log.counts() == {"evicted": 5, "kept": 1}


# ----------------------------------------------------------------------
# Slow-query phase breakdown and snapshot round trip
# ----------------------------------------------------------------------
class TestServiceOperationalStats:
    def test_slow_query_events_carry_phase_breakdown(self):
        with PublishingService(
            medical.build_configuration(),
            pool_size=1,
            slow_query_seconds=0.0,
        ) as service:
            service.publish(medical.client_query())
            events = service.slow_queries()
            assert events
            phases = events[-1].details["phases"]
            assert phases["reformulate"] > 0.0
            assert phases["execute"] > 0.0
            # Attribution is from the span tree when tracing is on.
            assert set(phases) <= {
                "reformulate",
                "route",
                "acquire",
                "execute",
                "merge",
                "apply",
                "log.append",
            }

    def test_slow_query_phases_without_tracing_fall_back_to_timers(self):
        with PublishingService(
            medical.build_configuration(),
            pool_size=1,
            tracing=False,
            slow_query_seconds=0.0,
        ) as service:
            service.publish(medical.client_query())
            phases = service.slow_queries()[-1].details["phases"]
            assert set(phases) == {"reformulate", "execute"}

    def test_snapshot_reports_uptime_version_and_round_trips_as_json(self):
        import repro

        with PublishingService(
            medical.build_configuration(), pool_size=1
        ) as service:
            service.publish(medical.client_query())
            snapshot = service.stats().snapshot()
            restored = json.loads(json.dumps(snapshot))
            assert restored == snapshot
            assert restored["version"] == repro.__version__
            assert restored["uptime_seconds"] >= 0.0
            # started_at is ISO-8601 with an explicit UTC offset.
            from datetime import datetime

            parsed = datetime.fromisoformat(restored["started_at"])
            assert parsed.tzinfo is not None
            # A later snapshot has strictly advanced uptime.
            later = service.stats().snapshot()
            assert later["uptime_seconds"] >= restored["uptime_seconds"]
            assert later["started_at"] == restored["started_at"]


# ----------------------------------------------------------------------
# One request, one record
# ----------------------------------------------------------------------
DEPLOYMENTS = ["memory", "sqlite", "sharded", "replicated"]


def every_sink_service(backend, tmp_path, **options):
    """A small xmark service with every telemetry sink switched on."""
    configuration = small_xmark()
    configuration.shard_count = 2
    configuration.replica_count = 2
    options.setdefault("pool_size", 2)
    return PublishingService(
        configuration,
        backend=backend,
        audit_dir=str(tmp_path / "audit"),
        slo_target_p99=5.0,
        slow_query_seconds=0.0,
        profile_sample=1,
        **options,
    )


class TestOneRequestRecord:
    @pytest.mark.parametrize("backend", DEPLOYMENTS)
    def test_every_sink_carries_the_same_request_id(self, backend, tmp_path):
        with every_sink_service(backend, tmp_path) as service:
            service.publish(xmark.query_item_names())
            service.publish(xmark.query_item_names())
            ids = {
                "event": service.slow_queries()[-1].details["request_id"],
                "trace": service.trace_buffer.recent(1)[0]["request_id"],
                "profile": service.profile_buffer.recent(1)[0]["request_id"],
                "last_trace": service.last_trace.metadata["request_id"],
                "last_profile": service.last_profile.request_id,
                "audit": list(service.audit.entries())[-1]["request_id"],
            }
            assert set(ids.values()) == {2}, ids

    def test_ids_are_unique_and_increasing_under_eight_threads(self, tmp_path):
        threads_n, rounds = 8, 5
        queries = [xmark.query_item_names(), xmark.query_person_cities()]
        with every_sink_service("memory", tmp_path, pool_size=4) as service:
            started = threading.Barrier(threads_n)
            seen = [[] for _ in range(threads_n)]
            errors = []

            def worker(mine):
                try:
                    started.wait(timeout=10)
                    for _ in range(rounds):
                        for query in queries:
                            profile = service.explain(query, analyze=True)
                            mine.append(profile.request_id)
                except Exception as error:  # pragma: no cover
                    errors.append(error)

            workers = [
                threading.Thread(target=worker, args=(mine,)) for mine in seen
            ]
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert not errors
            oracle = threads_n * rounds * len(queries)
            for mine in seen:
                assert mine == sorted(set(mine))  # increasing per client
            assert sorted(sum(seen, [])) == list(range(1, oracle + 1))
            audited = [entry["request_id"] for entry in service.audit.entries()]
            assert sorted(audited) == list(range(1, oracle + 1))

    def test_every_batch_query_is_traced_on_one_checkout(self, tmp_path):
        queries = [xmark.query_item_names(), xmark.query_person_cities()]
        with every_sink_service("memory", tmp_path) as service:
            service.warm(queries)
            before = service.pool.stats().checkouts
            results = service.publish_many(queries)
            assert service.pool.stats().checkouts == before + 1
            newest_first = service.trace_buffer.recent()
            assert [t["query"] for t in newest_first] == [
                queries[1].name, queries[0].name
            ]
            assert [t["request_id"] for t in newest_first] == [2, 1]
            assert [t["trace"]["attributes"]["rows"] for t in newest_first] == [
                len(results[1]), len(results[0])
            ]
            # The one checkout shows up in the first query's span tree.
            acquires = [
                sum(c["name"] == "pool.acquire" for c in t["trace"]["children"])
                for t in newest_first
            ]
            assert acquires == [0, 1]

    @pytest.mark.parametrize("tracing", [True, False])
    def test_audit_route_is_the_routers_decision(self, tracing, tmp_path):
        """Traced or not, alone or in a batch, the audit entry names the
        modes the router chose — not a span-scrape fallback."""
        query = xmark.query_item_names()
        with every_sink_service("sharded", tmp_path, tracing=tracing) as service:
            plan = service.plan_for(service.reformulate(query))
            decided = [
                decision.mode
                for _q, decision in service.executor.backend.route_plan(plan).decisions
            ]
            assert decided and "sharded" not in decided
            service.publish(query)
            service.publish_many([query])
            routes = [entry["route"] for entry in service.audit.entries()]
            assert routes == [decided, decided]

    def test_one_fingerprint_spelling_joins_feedback_audit_and_plans(self, tmp_path):
        query = xmark.query_item_names()
        with every_sink_service(
            "memory", tmp_path, plan_dir=str(tmp_path / "plans")
        ) as service:
            service.publish(query)
            (row,) = service.misestimation_report()
            (entry,) = service.audit.entries()
            (identity,) = service.plan_store.identities()
            artifact = service.plan_store.load(identity)
            assert (
                row.to_dict()["fingerprint"]
                == entry["fingerprint"]
                == artifact["query_digest"]
                == query.fingerprint_digest()
            )

    def test_sinks_fire_in_order_and_a_failed_audit_acknowledges_nothing(
        self, tmp_path, monkeypatch
    ):
        from repro.obs import AuditError

        with every_sink_service("memory", tmp_path) as service:
            order = []

            def spy(owner, method, name, fail=False):
                original = getattr(owner, method)

                def wrapped(*args, **kwargs):
                    order.append(name)
                    if fail:
                        raise AuditError("disk full")
                    return original(*args, **kwargs)

                monkeypatch.setattr(owner, method, wrapped)

            spy(service.slo, "observe", "slo")
            spy(service.cost_feedback, "record", "feedback")
            spy(service.events, "record", "event")
            spy(service.trace_buffer, "record", "trace")
            spy(service.profile_buffer, "record", "profile")
            spy(service.audit, "record", "audit", fail=True)
            with pytest.raises(AuditError):
                service.publish(xmark.query_item_names())
            assert order == ["slo", "feedback", "event", "trace", "profile", "audit"]
            assert list(service.audit.entries()) == []

    def test_update_records_take_the_same_path(self, tmp_path):
        with every_sink_service("memory", tmp_path) as service:
            service.publish(xmark.query_item_names())
            lsn = service.update(
                ChangeSet.build(inserts={"itemName": [("item_r1", "recorded")]})
            )
            entry = list(service.audit.entries())[-1]
            assert set(entry) == {
                "ts", "kind", "request_id", "lsn", "changes", "seconds", "phases",
            }
            assert (entry["kind"], entry["lsn"], entry["changes"]) == ("update", lsn, 1)
            assert entry["request_id"] == 2  # one counter for every request
            assert set(entry["phases"]) == {"apply", "log.append"}
            trace = service.last_trace
            assert trace.metadata["request_id"] == 2
            assert [child.name for child in trace.root.children] == [
                "apply", "log.append"
            ]
            assert service.trace_buffer.recent(1)[0]["request_id"] == 2
            assert service.stats().updates_applied == 1
            assert service.registry.get("mars_updates_total").value == 1


def suite_service(backend, **options):
    """A small xmark service on one deployment of the matrix."""
    configuration = small_xmark()
    configuration.backend = backend
    configuration.shard_count = 3
    configuration.replica_count = 2
    return PublishingService(configuration, pool_size=2, **options)


#: The span names of a warm xmark-suite publish, per deployment, in suite
#: order — as they were before spans and profile operators became one tree.
SCATTER = (
    "publish plan_cache.lookup route pool.acquire pool.acquire pool.acquire "
    "execute shard.execute shard.execute shard.execute merge"
)
GATHER = (
    "publish plan_cache.lookup route pool.acquire pool.acquire pool.acquire "
    "execute shard.gather"
)
WARM_SPAN_NAMES = {
    "memory": ["publish plan_cache.lookup pool.acquire execute"] * 7,
    "sqlite": ["publish plan_cache.lookup pool.acquire execute"] * 7,
    "sharded": [SCATTER] * 4 + [GATHER] * 3,
    "replicated": ["publish plan_cache.lookup pool.acquire execute replica.read"] * 7,
}


class TestOneExecutionTree:
    """A span and a profile operator recording one event are one node;
    ``/traces`` and ``/profiles`` are two views of the request's tree."""

    #: Span name -> the operator kind the same node carries when profiled.
    BOTH = {
        "execute": EXECUTE,
        "shard.execute": SHARD_FRAGMENT,
        "replica.read": REPLICA_READ,
        "merge": MERGE,
    }

    @pytest.mark.parametrize("backend", DEPLOYMENTS)
    def test_layer_and_operator_of_one_event_are_one_node(self, backend):
        with suite_service(backend, tracing=True, profile_sample=1) as service:
            for query in xmark.query_suite():
                service.publish(query)
                trace, profile = service.last_trace, service.last_profile
                operators = profile.operators()
                spans = [span for span in trace.nodes() if span.name in self.BOTH]
                for span in spans:
                    assert span.kind == self.BOTH[span.name], span.name
                    assert any(node is span for node in operators), span.name
                (execute,) = [span for span in spans if span.name == "execute"]
                assert profile.root is execute
                # No second node for the same event: every operator of
                # these kinds is a span too, except the fragment fetches
                # a gather records operator-only.
                for node in operators:
                    if node.kind in self.BOTH.values() and node.name is None:
                        assert "relation" in node.attributes, node.describe()

    @pytest.mark.parametrize("backend", DEPLOYMENTS)
    @pytest.mark.parametrize("profile_sample", [0, 1])
    def test_trace_view_keeps_the_span_names(self, backend, profile_sample):
        with suite_service(
            backend, tracing=True, profile_sample=profile_sample
        ) as service:
            names = []
            for query in xmark.query_suite():
                service.publish(query)
                service.publish(query)
                names.append(" ".join(service.last_trace.span_names()))
                # /traces/recent exports the same view.
                exported, pending = [], [service.trace_buffer.recent(1)[0]["trace"]]
                while pending:
                    entry = pending.pop()
                    exported.append(entry["name"])
                    pending.extend(reversed(entry.get("children", [])))
                assert exported == service.last_trace.span_names()
        assert names == WARM_SPAN_NAMES[backend]

    @pytest.mark.parametrize("backend", DEPLOYMENTS)
    def test_untraced_requests_still_profile(self, backend, tmp_path):
        with suite_service(
            backend, tracing=False, profile_sample=1,
            audit_dir=str(tmp_path / "audit"),
        ) as service:
            rows = service.publish(xmark.query_item_names())
            assert service.last_profile.actual_rows == len(rows)
            assert service.last_profile.root.kind == EXECUTE
            assert service.last_trace is NULL_TRACE
            assert service.trace_buffer.recent() == []
            (entry,) = service.audit.entries()
            assert set(entry["phases"]) == {"reformulate", "execute"}


class TestOneAmbientStack:
    """One node class, one null node, one thread-local stack: a second
    ambient sink under ``src/repro/`` fails here."""

    SRC = Path(__file__).resolve().parent.parent / "src"
    RETIRED = ("current_profile", "ProfileNode", "NULL_PROFILE", "_NullProfileNode")

    def test_source_scan(self):
        paths = sorted(self.SRC.rglob("*.py"))
        assert paths, f"nothing to scan under {self.SRC}"
        locals_ = [
            path.name
            for path in paths
            for line in path.read_text().splitlines()
            if "threading.local(" in line
        ]
        assert locals_ == ["trace.py"], locals_
        for path in paths:
            source = path.read_text()
            for name in self.RETIRED:
                assert name not in source, f"{name} in {path}"


class TestOneEmitSite:
    """Each telemetry sink is written to from exactly one function of the
    serving layer: a second hand-written call site fails here."""

    SERVE = Path(__file__).resolve().parent.parent / "src" / "repro" / "serve"
    SINK_CALLS = (
        ".audit.record(",
        "cost_feedback.record(",
        "trace_buffer.record(",
        "profile_buffer.record(",
        "slo.observe(",
    )

    @staticmethod
    def call_sites(source, needle):
        """The innermost function around every line containing *needle*."""
        functions = [
            node
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        sites = []
        for number, line in enumerate(source.splitlines(), start=1):
            if needle in line:
                around = [f for f in functions if f.lineno <= number <= f.end_lineno]
                sites.append(max(around, key=lambda f: f.lineno).name if around else "")
        return sites

    def test_source_scan(self):
        paths = sorted(self.SERVE.rglob("*.py"))
        assert paths, f"nothing to scan under {self.SERVE}"
        for needle in self.SINK_CALLS:
            sites = {
                f"{path.name}:{name}"
                for path in paths
                for name in self.call_sites(path.read_text(), needle)
            }
            assert len(sites) == 1, f"{needle} is called from {sorted(sites)}"

    def test_the_scan_catches_what_it_is_for(self):
        source = (
            "def a(self):\n    self.audit.record(entry)\n"
            "def b(self):\n    def inner():\n        self.audit.record(entry)\n"
        )
        assert self.call_sites(source, ".audit.record(") == ["a", "inner"]
        assert self.call_sites(source, "slo.observe(") == []


class TestOneExplainPath:
    """A plan is described once — by rendering its profiled run: a backend
    that explains itself again, or a revived hand-written decision
    renderer, fails here."""

    SRC = Path(__file__).resolve().parent.parent / "src"
    #: The packages holding storage backends (under ``src/repro/``).
    BACKEND_PACKAGES = ("storage", "shard", "replica")
    RETIRED = ("describe_lines", "cost_summary")

    def test_source_scan(self):
        paths = sorted(self.SRC.rglob("*.py"))
        assert paths, f"nothing to scan under {self.SRC}"
        for path in paths:
            source = path.read_text()
            if path.relative_to(self.SRC).parts[1] in self.BACKEND_PACKAGES:
                assert "def explain" not in source, path
            for name in self.RETIRED:
                assert name not in source, f"{name} in {path}"
            for node in ast.walk(ast.parse(source)):
                if isinstance(node, ast.ClassDef) and node.name == "RoutePlan":
                    methods = {
                        item.name
                        for item in node.body
                        if isinstance(item, ast.FunctionDef)
                    }
                    assert "describe" not in methods, path

    def test_no_backend_class_explains_itself(self):
        from repro.storage.backends import StorageBackend

        pending, seen = [StorageBackend], []
        while pending:
            cls = pending.pop()
            seen.append(cls.__name__)
            assert "explain" not in vars(cls), cls
            pending.extend(cls.__subclasses__())
        for shipped in ("MemoryBackend", "SQLiteBackend", "ShardedBackend",
                        "ReplicatedBackend"):
            assert shipped in seen

    def test_explain_bodies_only_render_a_view(self):
        """The service and executor build no text from plan data: no
        f-string, no join or format, and a ``render()`` call."""
        for module, name in (
            ("serve/service.py", "explain"),
            ("core/executor.py", "explain_reformulation"),
        ):
            tree = ast.parse((self.SRC / "repro" / module).read_text())
            (function,) = [
                node
                for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name
            ]
            calls = {
                node.func.attr
                for node in ast.walk(function)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            }
            assert "render" in calls and not calls & {"join", "format"}, calls
            assert not any(
                isinstance(node, ast.JoinedStr) for node in ast.walk(function)
            ), name
