"""Tier-1 smoke test of the benchmark.

Runs the real command line at smoke-test sizes and checks structure and
answers only — never a timing, which a loaded machine could fail.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bench import tracing, workloads
from repro.core import MarsExecutor
from repro.workloads import xmark

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def contract():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*arguments):
    child = subprocess.run(
        [sys.executable, "-m", "bench", *arguments, "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert child.returncode == 0, child.stderr[-3000:]
    return json.loads(child.stdout)


def check_document(document, contract, section):
    assert set(document["workloads"]) == {entry["name"] for entry in contract["workloads"]}
    for name, entry in document["workloads"].items():
        assert entry["correct"] and entry["failed"] == 0 and entry["attempted"] >= 1, name
        for wanted in contract[section]:
            reported = entry["metrics"][wanted["name"]]
            assert reported["unit"] == wanted["unit"], (name, wanted["name"])
            assert isinstance(reported["value"], (int, float)), (name, wanted["name"])
        assert set(entry["metrics"]) == {wanted["name"] for wanted in contract[section]}


def test_contract_names_and_units_are_well_formed(contract):
    names = [entry["name"] for entry in contract["workloads"]]
    for section in ("end_to_end", "per_layer"):
        for entry in contract[section]:
            names.append(entry["name"])
            assert UNIT.match(entry["unit"]), entry
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert {entry["name"]: entry["why"] for entry in contract["workloads"]} == {
        spec.name: spec.why for spec in workloads.WORKLOADS.values()
    }
    assert {entry["name"]: entry["unit"] for entry in contract["per_layer"]} == tracing.LAYER_UNITS
    assert any(entry["name"] == "setup_s" for entry in contract["end_to_end"])


def test_quick_run_reports_every_end_to_end_metric(contract):
    document = bench()
    check_document(document, contract, "end_to_end")
    for name, entry in document["workloads"].items():
        assert entry["reported"]["failed_ratio"]["value"] == 0, name
        assert all(entry["metrics"][m]["value"] > 0 for m in entry["metrics"]), name


def test_quick_trace_reports_every_layer_metric(contract):
    document = bench("trace")
    check_document(document, contract, "per_layer")
    traced = document["workloads"]
    # "correct" above already means: every decomposed publish returned the
    # rows service.publish() returned.  The layer split must show too.
    for name in ("warm-read.sqlite", "warm-read.sharded"):
        assert traced[name]["metrics"]["engine.invocations"]["value"] == 0
        assert traced[name]["metrics"]["serve.plan_cache.hit_ratio"]["value"] == 1.0
    assert traced["plan-churn"]["metrics"]["engine.invocations"]["value"] > 0
    modes = [m for m in tracing.LAYER_UNITS if m.startswith("shard.mode_counts.")]
    assert all(traced["warm-read.sqlite"]["metrics"][m]["value"] == 0 for m in modes)
    assert any(traced["warm-read.sharded"]["metrics"][m]["value"] > 0 for m in modes)
    for name, entry in traced.items():
        assert (ROOT / entry["reported"]["trace_file"]).exists(), name


def test_document_oracle_agrees_with_the_original_queries():
    """The benchmark's hand-written oracle against the paper's definition:
    the original XBind query evaluated over the published document."""
    configuration = xmark.build_configuration(workloads.xmark_parameters(1, 11))
    oracle = workloads.DocumentOracle(configuration.public_documents[xmark.AUCTION_DOCUMENT])
    executor = MarsExecutor(configuration, backend="sqlite")
    try:
        for entry in oracle.suite() + oracle.churn()[:12]:
            original = executor.execute_original(entry.query)
            assert set(map(tuple, original)) == entry.expected, entry.query.name
    finally:
        executor.close()
