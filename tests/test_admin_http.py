"""The operational tier: health model, SLOs, audit log, admin endpoint.

Covers, bottom-up:

* the :class:`~repro.obs.health.HealthCheck` registry and its worst-wins
  aggregation (a raising probe is a finding, not a crash);
* the :class:`~repro.obs.slo.SLOTracker` rolling windows and error-budget
  burn arithmetic (with an injected clock);
* the :class:`~repro.obs.audit.AuditLog` rotation, pruning, torn-tail
  tolerance and the audit-before-acknowledge raise contract;
* the :class:`~repro.obs.trace.TraceBuffer` sampling ring and the
  :func:`~repro.obs.trace.phase_breakdown` attribution;
* the :class:`~repro.obs.http.AdminServer` routes against plain lambdas
  (status codes, provider failures surfacing as 500s);
* the wired :class:`~repro.serve.PublishingService`: every endpoint live,
  the replica-kill → degraded → repaired → healthy arc with the scrape
  staying valid Prometheus text throughout, audit replay across a service
  restart, and ``tools/mars_top.py --once`` against a real port.
"""

import json
import subprocess
import sys
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.core import MarsConfiguration
from repro.errors import SchemaError
from repro.obs import (
    AuditError,
    AuditLog,
    AdminServer,
    CheckResult,
    DEGRADED,
    HEALTHY,
    HealthCheck,
    SLOTracker,
    Span,
    TraceBuffer,
    Tracer,
    UNHEALTHY,
    phase_breakdown,
    worst_status,
)
from repro.replica import ChangeSet
from repro.serve import PublishingService
from repro.workloads import medical, xmark

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def small_xmark():
    return xmark.build_configuration(
        xmark.XMarkParameters(items_per_region=4, people=8, closed_auctions=12)
    )


def get(base, path):
    """``(status, parsed_body)`` for one GET; JSON bodies are decoded."""
    try:
        with urllib.request.urlopen(base + path, timeout=10.0) as response:
            status, body = response.status, response.read()
            content_type = response.headers.get("Content-Type", "")
    except urllib.error.HTTPError as error:
        status, body = error.code, error.read()
        content_type = error.headers.get("Content-Type", "")
    if "json" in content_type:
        return status, json.loads(body)
    return status, body.decode("utf-8")


# ----------------------------------------------------------------------
# Health model
# ----------------------------------------------------------------------
class TestHealthCheck:
    def test_worst_status_wins(self):
        assert worst_status([]) == HEALTHY
        assert worst_status([HEALTHY, HEALTHY]) == HEALTHY
        assert worst_status([HEALTHY, DEGRADED]) == DEGRADED
        assert worst_status([DEGRADED, UNHEALTHY, HEALTHY]) == UNHEALTHY
        with pytest.raises(ValueError, match="unknown health status"):
            worst_status(["fine"])

    def test_check_result_rejects_unknown_status(self):
        with pytest.raises(ValueError, match="unknown health status"):
            CheckResult("x", "sortof-ok")

    def test_report_aggregates_and_encodes_for_the_gauge(self):
        checks = HealthCheck()
        checks.register("a", lambda: CheckResult("a", HEALTHY))
        checks.register(
            "b", lambda: CheckResult("b", DEGRADED, reason="one replica down")
        )
        report = checks.report()
        assert report.status == DEGRADED
        assert report.value == 0.5
        assert report.reasons() == ("b: one replica down",)
        exported = report.to_dict()
        assert exported["status"] == DEGRADED
        assert [check["name"] for check in exported["checks"]] == ["a", "b"]
        assert json.dumps(exported)

    def test_raising_probe_becomes_an_unhealthy_result(self):
        checks = HealthCheck()
        checks.register("ok", lambda: CheckResult("ok", HEALTHY))

        def broken():
            raise OSError("disk fell off")

        checks.register("disk", broken)
        report = checks.report()
        assert report.status == UNHEALTHY
        assert report.value == 0.0
        disk = next(check for check in report.checks if check.name == "disk")
        assert "OSError" in disk.reason and "disk fell off" in disk.reason

    def test_register_replaces_and_unregister_removes(self):
        checks = HealthCheck()
        checks.register("x", lambda: CheckResult("x", UNHEALTHY))
        checks.register("x", lambda: CheckResult("x", HEALTHY))
        assert checks.report().status == HEALTHY
        checks.unregister("x")
        assert checks.names() == ()
        assert checks.report().status == HEALTHY


# ----------------------------------------------------------------------
# SLO tracking
# ----------------------------------------------------------------------
class TestSLOTracker:
    def test_violations_and_budget_burn(self):
        clock = [0.0]
        tracker = SLOTracker(
            0.1, objective=0.9, window_seconds=60.0, clock=lambda: clock[0]
        )
        for _ in range(19):
            assert tracker.observe("q", 0.05) is False
        assert tracker.observe("q", 0.5) is True
        (report,) = tracker.report()
        assert report.key == "q"
        assert report.requests == 20 and report.violations == 1
        assert report.window_requests == 20
        # 5% violations against a 10% error budget: burning at half rate.
        assert report.budget_burn == pytest.approx(0.5)
        assert not report.breached
        for _ in range(3):
            assert tracker.observe("q", 0.5) is True
        (report,) = tracker.report()
        assert report.budget_burn > 1.0
        assert report.breached
        assert json.dumps(report.to_dict())

    def test_window_trims_old_samples_but_lifetime_counters_do_not(self):
        clock = [0.0]
        tracker = SLOTracker(0.1, window_seconds=10.0, clock=lambda: clock[0])
        tracker.observe("q", 0.5)
        clock[0] = 100.0
        tracker.observe("q", 0.05)
        (report,) = tracker.report()
        assert report.window_requests == 1
        assert report.window_violations == 0
        assert report.requests == 2 and report.violations == 1
        assert report.budget_burn == 0.0

    def test_per_key_objective_override_and_worst_burn_first(self):
        tracker = SLOTracker(1.0, objective=0.5)
        tracker.set_objective("tight", target_p99=0.001)
        tracker.observe("tight", 0.5)  # violates its 1 ms target
        tracker.observe("loose", 0.5)  # well under the 1 s default
        reports = tracker.report()
        assert [report.key for report in reports] == ["tight", "loose"]
        assert reports[0].breached and not reports[1].breached

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="target"):
            SLOTracker(0.0)
        with pytest.raises(ValueError, match="objective"):
            SLOTracker(1.0, objective=1.0)
        with pytest.raises(ValueError, match="window"):
            SLOTracker(1.0, window_seconds=0.0)


# ----------------------------------------------------------------------
# Audit log
# ----------------------------------------------------------------------
class TestAuditLog:
    def test_rotation_and_pruning_by_size(self, tmp_path):
        log = AuditLog(tmp_path, max_bytes=120, max_files=2)
        for i in range(20):
            log.record({"kind": "publish", "i": i, "pad": "x" * 40})
        stats = log.stats()
        assert stats.rotations > 0
        assert stats.files <= 2
        assert stats.pruned_files > 0
        assert stats.records == 20
        # The newest entries survive pruning, oldest first on replay.
        replayed = [entry["i"] for entry in log.entries()]
        assert replayed == sorted(replayed)
        assert replayed[-1] == 19
        log.close()

    def test_reopen_resumes_the_highest_file(self, tmp_path):
        with AuditLog(tmp_path, max_bytes=80) as log:
            for i in range(5):
                log.record({"i": i, "pad": "y" * 30})
            files_before = log.stats().files
        with AuditLog(tmp_path, max_bytes=80) as log:
            log.record({"i": 5, "pad": "y" * 30})
            replayed = [entry["i"] for entry in log.entries()]
        assert replayed == [0, 1, 2, 3, 4, 5]
        assert files_before >= 1

    def test_torn_tail_is_skipped_on_replay(self, tmp_path):
        with AuditLog(tmp_path) as log:
            log.record({"i": 0})
            log.record({"i": 1})
        (path,) = list(Path(tmp_path).glob("audit-*.jsonl"))
        raw = path.read_bytes()
        path.write_bytes(raw + b'{"i": 2, "torn')  # crash mid-append
        with AuditLog(tmp_path) as log:
            assert [entry["i"] for entry in log.entries()] == [0, 1]

    def test_record_raises_once_closed(self, tmp_path):
        log = AuditLog(tmp_path)
        log.record({"ok": True})
        log.close()
        with pytest.raises(AuditError, match="closed"):
            log.record({"too": "late"})
        log.close()  # idempotent

    def test_rejects_bad_parameters(self, tmp_path):
        with pytest.raises(AuditError, match="fsync"):
            AuditLog(tmp_path, fsync="sometimes")
        with pytest.raises(AuditError, match="max_bytes"):
            AuditLog(tmp_path, max_bytes=0)

    def test_fsync_always_survives_reopen(self, tmp_path):
        with AuditLog(tmp_path, fsync="always") as log:
            log.record({"durable": True})
        with AuditLog(tmp_path) as log:
            assert [entry["durable"] for entry in log.entries()] == [True]


# ----------------------------------------------------------------------
# Trace buffer and phase attribution
# ----------------------------------------------------------------------
class TestTraceBuffer:
    def test_records_completed_traces_newest_first(self):
        tracer = Tracer(enabled=True)
        buffer = TraceBuffer(maxlen=2)
        for i in range(3):
            trace = tracer.trace("publish", index=i)
            with trace.root:
                pass
            assert buffer.record(trace) is True
        assert len(buffer) == 2
        recent = buffer.recent()
        assert [t["index"] for t in recent] == [2, 1]
        assert buffer.completed == 3 and buffer.recorded == 3
        assert json.dumps(recent)

    def test_sampling_keeps_every_nth(self):
        tracer = Tracer(enabled=True)
        buffer = TraceBuffer(maxlen=16, sample=3)
        kept = 0
        for i in range(9):
            trace = tracer.trace("publish", index=i)
            with trace.root:
                pass
            kept += buffer.record(trace)
        assert kept == 3
        assert buffer.completed == 9 and buffer.recorded == 3

    def test_disabled_traces_are_not_recorded(self):
        tracer = Tracer(enabled=False)
        buffer = TraceBuffer()
        assert buffer.record(tracer.trace("publish")) is False
        assert buffer.completed == 0

    def test_phase_breakdown_attributes_child_spans(self):
        root = Span("publish")
        root.add_phase("reformulate", 0.010)
        execute = root.add_phase("execute", 0.030)
        execute.add_phase("merge", 0.005)
        root.add_phase("pool.acquire", 0.002)
        phases = phase_breakdown(root)
        assert phases["reformulate"] == pytest.approx(0.010)
        assert phases["execute"] == pytest.approx(0.030)
        assert phases["merge"] == pytest.approx(0.005)
        assert phases["acquire"] == pytest.approx(0.002)
        # A reformulate span owns its children: the nested cache lookup
        # is not double-counted as a second phase.
        nested = Span("publish")
        reform = nested.add_phase("reformulate", 0.020)
        reform.add_phase("plan_cache.lookup", 0.001)
        assert phase_breakdown(nested) == {"reformulate": pytest.approx(0.020)}

    def test_phase_breakdown_descends_through_spans_that_are_no_phase(self):
        root = Span("publish")
        root.add_phase("plan_cache.lookup", 0.001)
        shard = root.add_phase("shard.execute", 0.004)
        shard.add_phase("merge", 0.002)
        root.add_phase("pool.acquire", 0.003)
        phases = phase_breakdown(root)
        # Phases appear in the order the tree holds them (audit lines
        # keep a stable field order).
        assert list(phases) == ["reformulate", "merge", "acquire"]
        assert phases["merge"] == pytest.approx(0.002)


# ----------------------------------------------------------------------
# Admin server against plain providers
# ----------------------------------------------------------------------
class TestAdminServer:
    def _server(self, **overrides):
        providers = dict(
            metrics_text=lambda: "# HELP demo_up_ratio d\n"
            "# TYPE demo_up_ratio gauge\ndemo_up_ratio 1\n",
            stats_snapshot=lambda: {"queries_served": 7},
            health_report=lambda: HealthCheck().report(),
            ready=lambda: True,
            event_tail=lambda kind, n: {"kind": kind, "n": n, "events": []},
            trace_recent=lambda n: {"n": n, "traces": []},
        )
        providers.update(overrides)
        return AdminServer(0, **providers)

    def test_routes_and_status_codes(self):
        with self._server() as server:
            base = server.url
            assert server.port and server.running
            status, text = get(base, "/metrics")
            assert status == 200 and "demo_up_ratio 1" in text
            status, stats = get(base, "/stats")
            assert status == 200 and stats["queries_served"] == 7
            status, health = get(base, "/health")
            assert status == 200 and health["status"] == HEALTHY
            status, ready = get(base, "/ready")
            assert status == 200 and ready["ready"] is True
            status, events = get(base, "/events?kind=replica.fenced&n=5")
            assert status == 200
            assert events["kind"] == "replica.fenced" and events["n"] == 5
            status, traces = get(base, "/traces/recent?n=2")
            assert status == 200 and traces["n"] == 2
            status, missing = get(base, "/nope")
            assert status == 404 and "/metrics" in missing["routes"]
        assert server.port is None and not server.running

    def test_unhealthy_is_503_and_not_ready_is_503(self):
        checks = HealthCheck()
        checks.register("x", lambda: CheckResult("x", UNHEALTHY, reason="down"))
        with self._server(
            health_report=checks.report, ready=lambda: False
        ) as server:
            status, health = get(server.url, "/health")
            assert status == 503 and health["status"] == UNHEALTHY
            assert health["checks"][0]["reason"] == "down"
            status, ready = get(server.url, "/ready")
            assert status == 503 and ready["ready"] is False

    def test_degraded_still_serves_200(self):
        checks = HealthCheck()
        checks.register("x", lambda: CheckResult("x", DEGRADED, reason="meh"))
        with self._server(health_report=checks.report) as server:
            status, health = get(server.url, "/health")
            assert status == 200 and health["status"] == DEGRADED

    def test_broken_provider_is_a_loud_500(self):
        def broken():
            raise RuntimeError("registry on fire")

        with self._server(metrics_text=broken) as server:
            status, body = get(server.url, "/metrics")
            assert status == 500
            assert "RuntimeError" in body and "registry on fire" in body
            # The other routes still serve.
            status, _ = get(server.url, "/stats")
            assert status == 200

    def test_post_is_rejected(self):
        with self._server() as server:
            request = urllib.request.Request(
                server.url + "/metrics", data=b"x", method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as caught:
                urllib.request.urlopen(request, timeout=10.0)
            assert caught.value.code == 405

    def test_start_stop_idempotent(self):
        server = self._server()
        server.start()
        server.start()
        port = server.port
        assert port is not None
        server.stop()
        server.stop()
        assert server.port is None


# ----------------------------------------------------------------------
# The wired service
# ----------------------------------------------------------------------
class TestServiceAdminEndpoint:
    def test_endpoints_reflect_live_service_state(self, tmp_path):
        with PublishingService(
            medical.build_configuration(),
            pool_size=2,
            admin_port=0,
            audit_dir=str(tmp_path / "audit"),
            slo_target_p99=5.0,
        ) as service:
            base = f"http://127.0.0.1:{service.admin_port}"
            service.publish(medical.client_query())
            status, stats = get(base, "/stats")
            assert status == 200
            assert stats["queries_served"] == 1
            assert stats["audit"]["records"] == 1
            assert stats["slo"][0]["requests"] == 1
            status, health = get(base, "/health")
            assert status == 200 and health["status"] == HEALTHY
            names = {check["name"] for check in health["checks"]}
            assert {"service", "pool"} <= names
            status, text = get(base, "/metrics")
            assert status == 200
            assert "mars_health_status 1" in text
            assert 'mars_slo_requests_total{query="DiagPrice"} 1' in text
            status, events = get(base, "/events?n=10")
            assert status == 200 and "counts" in events
            status, traces = get(base, "/traces/recent")
            assert status == 200 and traces["completed"] >= 1
            assert traces["traces"][0]["trace"]["name"] == "publish"
        # Teardown stopped the endpoint: the port now refuses.
        with pytest.raises(OSError):
            urllib.request.urlopen(base + "/ready", timeout=2.0)
        assert service.admin_port is None

    def test_admin_disabled_by_default(self):
        with PublishingService(
            medical.build_configuration(), pool_size=1
        ) as service:
            assert service.admin is None and service.admin_port is None

    def test_admin_port_variable_is_read(self, monkeypatch):
        monkeypatch.setenv("MARS_ADMIN_PORT", " 0 ")
        assert MarsConfiguration("env").admin_port == 0

    def test_malformed_admin_port_variable_raises(self, monkeypatch):
        monkeypatch.setenv("MARS_ADMIN_PORT", "80a")
        with pytest.raises(SchemaError, match="MARS_ADMIN_PORT .*'80a'"):
            MarsConfiguration("env")

    def test_bind_failure_tears_the_service_down(self, tmp_path):
        with PublishingService(
            medical.build_configuration(), pool_size=1, admin_port=0
        ) as holder:
            with pytest.raises(OSError):
                PublishingService(
                    medical.build_configuration(),
                    pool_size=1,
                    admin_port=holder.admin_port,
                )

    def test_mars_top_once_renders_a_snapshot(self, tmp_path):
        with PublishingService(
            medical.build_configuration(),
            pool_size=1,
            admin_port=0,
            slo_target_p99=5.0,
        ) as service:
            service.publish(medical.client_query())
            result = subprocess.run(
                [
                    sys.executable,
                    str(TOOLS / "mars_top.py"),
                    "--once",
                    "--url",
                    f"http://127.0.0.1:{service.admin_port}",
                ],
                capture_output=True,
                text=True,
                timeout=60,
            )
        assert result.returncode == 0, result.stderr
        assert "health [OK] healthy" in result.stdout
        assert "queries served" in result.stdout
        assert "DiagPrice" in result.stdout

    def test_mars_top_unreachable_exits_nonzero(self):
        result = subprocess.run(
            [
                sys.executable,
                str(TOOLS / "mars_top.py"),
                "--once",
                "--url",
                "http://127.0.0.1:9",  # discard port: nothing listens
            ],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 1
        assert "unreachable" in result.stderr


class TestReplicaHealthArc:
    def test_kill_degrade_repair_recover_and_audit_replays(self, tmp_path):
        """The acceptance arc: a replica dies under live publishes, /health
        degrades with a replica reason, repair restores K, /health returns
        to healthy — the scrape staying lint-valid Prometheus text at every
        step — and after the service is gone the audit log replays every
        acknowledged request's fingerprint and LSN."""
        sys.path.insert(0, str(TOOLS))
        try:
            from check_metrics import lint_scrape
        finally:
            sys.path.remove(str(TOOLS))
        query = xmark.query_item_names()
        audit_dir = str(tmp_path / "audit")
        service = PublishingService(
            small_xmark(),
            backend="replicated",
            pool_size=2,
            admin_port=0,
            audit_dir=audit_dir,
        )
        published_fingerprints = []
        update_lsns = []
        try:
            base = f"http://127.0.0.1:{service.admin_port}"

            def scrape_is_valid():
                status, text = get(base, "/metrics")
                assert status == 200
                failures, _families = lint_scrape(text)
                assert not failures, failures
                return text

            def health_gauge(text):
                line = next(
                    l
                    for l in text.splitlines()
                    if l.startswith("mars_health_status ")
                )
                return float(line.split()[-1])

            template = service.executor.backend
            service.publish(query)
            published_fingerprints.append(query.fingerprint_digest())
            assert health_gauge(scrape_is_valid()) == 1.0
            status, health = get(base, "/health")
            assert status == 200 and health["status"] == HEALTHY

            # Kill one replica; a live publish keeps flowing (failover).
            template.replicas[0].close()
            service.publish(query)
            published_fingerprints.append(query.fingerprint_digest())
            update_lsns.append(
                service.update(
                    ChangeSet.build(inserts={"itemName": [("during", "kill")]})
                )
            )
            status, health = get(base, "/health")
            assert status == 200  # degraded still serves
            assert health["status"] == DEGRADED
            replicas = next(
                check
                for check in health["checks"]
                if check["name"] == "replicas"
            )
            assert replicas["status"] == DEGRADED
            assert "replicas live" in replicas["reason"]
            assert health_gauge(scrape_is_valid()) == 0.5

            # Self-healing: repair back to K live copies.
            reports = service.repair_replicas()
            assert sum(len(report.repaired) for report in reports) == 1
            assert template.stats().live_replicas == template.replica_count
            status, health = get(base, "/health")
            assert status == 200 and health["status"] == HEALTHY
            assert health_gauge(scrape_is_valid()) == 1.0

            service.publish(query)
            published_fingerprints.append(query.fingerprint_digest())
        finally:
            service.close()

        # The audit log replays every acknowledged request after restart.
        with AuditLog(audit_dir) as audit:
            entries = list(audit.entries())
        publishes = [e for e in entries if e["kind"] == "publish"]
        updates = [e for e in entries if e["kind"] == "update"]
        assert [e["fingerprint"] for e in publishes] == published_fingerprints
        assert [e["lsn"] for e in updates] == update_lsns
        for entry in publishes:
            assert entry["phases"]
            assert "lsn" in entry and "seconds" in entry
