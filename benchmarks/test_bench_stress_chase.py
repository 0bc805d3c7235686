"""E1 -- the section 3 chase "stress test".

The paper chases the 20-atom compilation of ``//a/b/c/d/e/f/g/h/i/j`` with
the TIX axioms.  The original C&B prototype did not converge in 12 hours;
the new set-oriented implementation takes 2.6 s and the closure shortcut
brings it to 640 ms.  We reproduce the *shape*: the naive strategy is orders
of magnitude slower than the set-oriented one (it is run on a truncated
chain so the benchmark terminates), and the shortcut gives a further large
factor on the full chain.
"""

import time

import pytest

from repro.compile import GrexCompiler, GrexSchema, tix_dependencies
from repro.engine import ChaseConfig, ChaseEngine, ShortcutChaseEngine
from repro.logical import Variable
from repro.xbind import PathAtom, XBindQuery

DOCUMENT = "stress.xml"


def stress_query(depth: int = 10):
    """The compiled ``//a/b/.../<depth letters>`` query (20 atoms at depth 10)."""
    schema = GrexSchema(DOCUMENT)
    compiler = GrexCompiler({DOCUMENT: schema})
    letters = "abcdefghij"[:depth]
    path = "//" + "/".join(letters)
    target = Variable("t")
    query = XBindQuery("Stress", (target,), (PathAtom(path, target),))
    return compiler.compile_xbind(query), schema


def run_chase(depth: int, strategy: str, shortcut: bool) -> float:
    compiled, schema = stress_query(depth)
    dependencies = tix_dependencies(schema)
    config = ChaseConfig(strategy=strategy)
    start = time.perf_counter()
    if shortcut:
        engine = ShortcutChaseEngine([schema.closure_spec()], config)
        result = engine.chase(compiled, dependencies)
    else:
        result = ChaseEngine(config).chase(compiled, dependencies)
    elapsed = time.perf_counter() - start
    assert result.branches, "chase unexpectedly failed"
    return elapsed


class TestStressChase:
    def test_set_oriented_chase_full_depth(self, benchmark):
        """New implementation on the full 20-atom chain (paper: 2.6 s)."""
        benchmark.pedantic(
            run_chase, args=(10, "joinTree", False), iterations=1, rounds=3
        )

    def test_shortcut_chase_full_depth(self, benchmark):
        """New implementation plus the closure shortcut (paper: 640 ms)."""
        benchmark.pedantic(
            run_chase, args=(10, "joinTree", True), iterations=1, rounds=3
        )

    def test_naive_chase_truncated_depth(self, benchmark):
        """Original-style naive chase; run on a shorter chain to stay feasible."""
        benchmark.pedantic(
            run_chase, args=(5, "naive", False), iterations=1, rounds=1
        )

    def test_report_relative_factors(self):
        """Print the E1 table: chase time per strategy and chain depth."""
        rows = []
        for label, depth, strategy, shortcut in [
            ("naive (original style), depth 5", 5, "naive", False),
            ("set-oriented, depth 5", 5, "joinTree", False),
            ("set-oriented, depth 10", 10, "joinTree", False),
            ("set-oriented + shortcut, depth 10", 10, "joinTree", True),
        ]:
            rows.append((label, run_chase(depth, strategy, shortcut)))
        print("\nE1: chase stress test (//a/b/.../j with TIX)")
        for label, seconds in rows:
            print(f"  {label:40s} {seconds * 1000:10.1f} ms")
        naive = rows[0][1]
        fast_same_depth = rows[1][1]
        full = rows[2][1]
        shortcut_time = rows[3][1]
        # The paper's qualitative claims: the set-oriented chase beats the
        # naive strategy by a large factor, and the shortcut further improves
        # the full-depth chase.
        assert fast_same_depth < naive
        assert shortcut_time < full
