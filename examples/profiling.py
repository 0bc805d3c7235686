"""Query-profiling tour: EXPLAIN ANALYZE with per-operator attribution.

Builds a replicated-over-sharded publishing service on the XMark
workload and walks the structured-profile surface:

* ``explain(query)`` — one forced profiled publish, rendered as text:
  the routing decision with the chosen mode **and the rejected
  alternative's cost**, the replica that served the read and its
  failover order, each operator's estimate beside its actual rows;
* ``explain(query, analyze=True)`` — the same kind of run returned as a
  :class:`~repro.profile.QueryProfile` operator tree (replica reads,
  shard fragments with real cardinalities, merges, hash-join steps with
  the planner's running estimates) and exported as JSON;
* always-on sampled profiling (``profile_sample=1/N``) filling the
  bounded profile buffer behind ``/profiles/recent`` and
  ``/profiles/worst``;
* the worst-operator attribution flowing into
  ``misestimation_report()`` and the ``mars_profile_*`` metric family.

Run with:  python examples/profiling.py
"""

from repro.serve import PublishingService
from repro.workloads import xmark


def banner(title: str) -> None:
    print(f"\n=== {title} " + "=" * max(0, 60 - len(title)))


def main() -> None:
    configuration = xmark.build_configuration()
    configuration.backend = "replicated"
    configuration.replica_count = 2
    configuration.replica_child = "sharded"
    configuration.shard_count = 3

    with PublishingService(
        configuration,
        pool_size=2,
        profile_sample=2,  # every 2nd publish keeps a full operator tree
        profile_buffer_size=16,
    ) as service:
        queries = [xmark.query_item_names(), *xmark.query_suite()[:3]]

        banner("The plan as run (explain): routing incl. rejected cost")
        print(service.explain(queries[0]))

        banner("Another run, structured (explain analyze=True)")
        profile = service.explain(queries[0], analyze=True)
        print(profile.render())
        print(
            f"\nroot actual_rows={profile.actual_rows}, "
            f"elapsed={profile.elapsed_seconds * 1000:.2f} ms, "
            f"worst q-error={profile.worst_q_error():.2f}"
        )

        banner("Worst operator: where the estimate missed")
        worst = profile.worst_operator()
        if worst is not None:
            print(
                f"{worst.describe()}: estimated {worst.estimated_rows:.1f}, "
                f"got {worst.actual_rows} (q={worst.q_error:.2f})"
            )

        banner("Sampled profiling: the buffer fills as traffic flows")
        for query in queries:
            for _ in range(3):
                service.publish(query)
        buffer = service.profile_buffer
        print(
            f"offered={buffer.offered} publishes, sample=1/{buffer.sample}, "
            f"recorded={buffer.recorded}, buffered={len(buffer)}"
        )
        for entry in buffer.worst(3):
            print(
                f"  {entry['query']:<24} worst={entry.get('worst_operator', '-'):<40} "
                f"q={entry.get('worst_q_error', 1.0)}"
            )

        banner("Per-operator attribution in the misestimation report")
        for entry in service.misestimation_report()[:3]:
            print(
                f"  plan={entry.plan_name:<24} "
                f"q={entry.cardinality_q_error:<8.2f} "
                f"worst operator: {entry.worst_operator} "
                f"(q={entry.worst_operator_q_error:.2f})"
            )

        banner("The mars_profile_* metric family")
        for line in service.metrics().splitlines():
            if line.startswith("mars_profile"):
                print(f"  {line}")

        banner("One profile as JSON (first two levels)")
        exported = profile.to_dict()
        print({k: v for k, v in exported.items() if k != "profile"})
        root = exported["profile"]
        print(f"root: {root['kind']} {root['label']} act={root['actual_rows']}")
        for child in root.get("children", ()):
            print(
                f"  {child['kind']} {child['label']}: "
                f"act={child.get('actual_rows')} "
                f"q={child.get('q_error', '-')}"
            )


if __name__ == "__main__":
    main()
