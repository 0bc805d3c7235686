"""The repository's benchmark: seeded publish/update workloads over MARS.

Run ``python3 -m bench`` from the repository root (see ``bench/README.md``);
``BENCHMARK.json`` at the root names the metrics, bounds and workloads.
"""
