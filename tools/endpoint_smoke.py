#!/usr/bin/env python3
"""CI smoke for the admin HTTP surface: start, serve, scrape, lint, exit.

Usage:  python tools/endpoint_smoke.py

Stands a :class:`~repro.serve.PublishingService` up on an ephemeral admin
port (``admin_port=0``) with SLO tracking and a temporary audit log,
drives a few publishes and one update through it, then:

* hits every admin route and fails on any unexpected status code;
* pipes the live ``/metrics`` body through the ``--scrape`` lint of
  ``tools/check_metrics.py`` (the same validator CI runs over the
  source tree);
* checks ``/health`` reports ``healthy``, ``/stats`` carries the audit
  and SLO sections, and the audit log on disk replays every
  acknowledged request;
* joins the replayed audit entry of every publish to the
  ``/traces/recent`` and ``/events?kind=query.slow`` entries scraped
  while the service was up, on their shared ``request_id``.

Exits non-zero with the violation list on any failure.  Stdlib only.
"""

import json
import sys
import tempfile
import urllib.error
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from check_metrics import lint_scrape  # noqa: E402
from repro.obs import AuditLog  # noqa: E402
from repro.replica import ChangeSet  # noqa: E402
from repro.serve import PublishingService  # noqa: E402
from repro.workloads import medical  # noqa: E402


def get(base: str, path: str):
    """``(status, body_bytes)`` for one GET, errors included."""
    try:
        with urllib.request.urlopen(base + path, timeout=10.0) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def main() -> int:
    failures = []
    audit_dir = tempfile.mkdtemp(prefix="mars-audit-smoke-")
    service = PublishingService(
        medical.build_configuration(),
        pool_size=2,
        admin_port=0,
        audit_dir=audit_dir,
        slo_target_p99=5.0,
        slow_query_seconds=0.0,
        profile_sample=1,
    )
    published = 0
    try:
        base = f"http://127.0.0.1:{service.admin_port}"
        print(f"admin endpoint up at {base}")
        for _ in range(3):
            service.publish(medical.client_query())
            published += 1
        lsn = service.update(
            ChangeSet.build(inserts={"drugPrice": [("smokeine", 9.99)]})
        )
        expected = {
            "/metrics": 200,
            "/stats": 200,
            "/health": 200,
            "/ready": 200,
            "/events": 200,
            "/events?kind=query.slow": 200,
            "/traces/recent": 200,
            "/profiles/recent": 200,
            "/profiles/worst": 200,
            "/definitely-not-a-route": 404,
        }
        bodies = {}
        for path, want in expected.items():
            status, body = get(base, path)
            bodies[path] = body
            if status != want:
                failures.append(f"GET {path}: status {status}, wanted {want}")
        scrape = bodies["/metrics"].decode("utf-8")
        scrape_failures, families = lint_scrape(scrape)
        failures.extend(f"/metrics lint: {failure}" for failure in scrape_failures)
        if not scrape_failures:
            print(f"/metrics: {families} families, lint-clean")
        if "mars_profile" not in scrape:
            failures.append("/metrics is missing the mars_profile_* family")
        profiles = json.loads(bodies["/profiles/recent"])
        if not profiles.get("profiles"):
            failures.append("/profiles/recent returned no profiles")
        else:
            root = profiles["profiles"][0].get("profile", {})
            if root.get("actual_rows") is None:
                failures.append(
                    "/profiles/recent root node is missing actual_rows"
                )
        traced = {
            trace.get("request_id")
            for trace in json.loads(bodies["/traces/recent"])["traces"]
        }
        slow = {
            event["details"].get("request_id")
            for event in json.loads(bodies["/events?kind=query.slow"])["events"]
        }
        worst = json.loads(bodies["/profiles/worst"])
        if worst.get("worst_q_error", 0.0) < 1.0:
            failures.append(f"/profiles/worst q-error malformed: {worst}")
        health = json.loads(bodies["/health"])
        if health.get("status") != "healthy":
            failures.append(f"/health reports {health.get('status')!r}: {health}")
        stats = json.loads(bodies["/stats"])
        for key in ("uptime_seconds", "started_at", "version", "audit", "slo"):
            if key not in stats:
                failures.append(f"/stats is missing {key!r}")
        if stats.get("last_write_lsn") != lsn:
            failures.append(
                f"/stats LSN {stats.get('last_write_lsn')} != update LSN {lsn}"
            )
    finally:
        service.close()
    with AuditLog(audit_dir) as audit:
        entries = list(audit.entries())
    publishes = [entry for entry in entries if entry["kind"] == "publish"]
    updates = [entry for entry in entries if entry["kind"] == "update"]
    if len(publishes) != published:
        failures.append(
            f"audit log replays {len(publishes)} publish(es), "
            f"expected {published}"
        )
    audited = {entry.get("request_id") for entry in publishes}
    if None in audited or not audited <= traced & slow:
        failures.append(
            f"request ids do not join: audit {sorted(audited, key=str)}, "
            f"/traces/recent {sorted(traced, key=str)}, "
            f"query.slow events {sorted(slow, key=str)}"
        )
    if len(updates) != 1 or updates[0].get("lsn") != lsn:
        failures.append(f"audit log update entries wrong: {updates}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        print(f"{len(failures)} endpoint-smoke failure(s)", file=sys.stderr)
        return 1
    print(
        f"endpoint smoke passed: {len(entries)} audit record(s) replayed, "
        "every route served, scrape lint-clean"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
