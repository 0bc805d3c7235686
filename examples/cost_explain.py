"""Cost-annotated explain: the same query priced and run on three engines.

Reformulates one XMark client query and prints, for the ``memory``,
``sqlite`` and ``sharded`` backends:

* the cost model's ranking of the minimal reformulations (the plan the
  system chose and the candidates it rejected, with their estimates);
* ``explain_reformulation`` of the chosen plan — one profiled run of it,
  rendered: each operator's estimate beside its actual rows, with the
  per-step table sizes and probe positions on memory, SQLite's
  ``EXPLAIN QUERY PLAN`` rows (``engine_plan``) on its statement node,
  and the routing decision with chosen-vs-alternative costs on the
  sharded backend.

Run with:  python examples/cost_explain.py [query]
where *query* is one of: names, prices, buyers (default: prices).
"""

import sys

from repro.core import MarsExecutor, MarsSystem
from repro.workloads import xmark

QUERIES = {
    "names": xmark.query_item_names,
    "prices": xmark.query_item_prices,
    "buyers": xmark.query_buyers_with_items,
}


def main(which: str = "prices") -> None:
    query = QUERIES[which]()
    configuration = xmark.build_configuration()
    configuration.shard_count = 3

    for backend in ("memory", "sqlite", "sharded"):
        configuration.backend = backend
        system = MarsSystem(configuration)
        executor = MarsExecutor(configuration)
        # Plan against measured statistics, exactly like PublishingService.
        system.attach_statistics(executor.collect_statistics())
        result = system.reformulate(query)

        print(f"=== backend: {backend} ===")
        print(f"query {query.name}: {len(result.minimal)} minimal reformulation(s)")
        for name, cost in result.candidate_costs:
            marker = "*" if name == result.best.name else " "
            print(f"  {marker} {name}: estimated cost {cost:.1f}")
        estimate = result.cost_estimate
        if estimate is not None:
            print(f"chosen plan: {estimate.describe()}")
        print(executor.explain_reformulation(result.best) + "\n")
        executor.close()


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "prices")
