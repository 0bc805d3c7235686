"""Operational tuning with redundant views: the XML star scenario.

This is the synthetic configuration behind the paper's scalability
experiment (Figure 5): a star document published from shredded relational
storage, plus redundant materialized views joining the hub with pairs of
corners.  Thanks to the key constraint on the hub, MARS
can rewrite the client star query using any subset of the views; the cost
model picks the cheapest combination.

Run with:  python examples/star_tuning.py [corners]
"""

import sys

from repro.core import MarsExecutor, MarsSystem
from repro.engine import BackchaseConfig, CBConfig
from repro.workloads import star
from repro.workloads.star import StarParameters


def main(corners: int = 4) -> None:
    parameters = StarParameters(corners=corners, hub_count=25, corner_size=20)
    configuration = star.build_configuration(parameters, with_instance=True)
    query = star.client_query(parameters)

    print(f"star configuration: NC={corners} corners, NV={parameters.view_count} views")
    print(f"client query: {query.name} joining R with all corners\n")

    system = MarsSystem(configuration)
    result = system.reformulate(query)
    print(f"time to initial reformulation : {result.time_to_initial * 1000:8.1f} ms")
    print(f"extra time to best minimal    : {result.minimization_time * 1000:8.1f} ms")
    print(f"best reformulation uses       : {', '.join(sorted(result.best.relation_names()))}")

    # Without cost pruning we can enumerate the alternatives the redundancy enables.
    enumerate_system = MarsSystem(
        configuration,
        cb_config=CBConfig(backchase=BackchaseConfig(prune_by_cost=False, max_inspected=20000)),
    )
    everything = enumerate_system.reformulate(query)
    print(f"\n{len(everything.minimal)} minimal reformulations exist; a few of them:")
    for reformulation in everything.minimal[:6]:
        views = sorted(n for n in reformulation.relation_names() if n.startswith("V"))
        bases = sorted(
            n for n in reformulation.relation_names() if n.endswith("_store")
        )
        print(f"  - views {views or '[]'} + base tables {bases or '[]'}")

    executor = MarsExecutor(configuration)
    comparison = executor.compare(query, result.best)
    print("\nexecution on the generated instance:")
    print(f"  original (published document) : {comparison.original_seconds * 1000:8.1f} ms")
    print(f"  best reformulation            : {comparison.reformulated_seconds * 1000:8.1f} ms")
    print(f"  answers match                 : {comparison.answers_match}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 4)
