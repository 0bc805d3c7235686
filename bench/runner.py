"""Running whole sets: every workload in a process of its own.

A workload never shares an interpreter with another one, so peak memory
and cache state cannot leak between them, and each child runs with
``PYTHONHASHSEED=0`` so that set iteration order (and with it plan
choice) repeats.
"""

from __future__ import annotations

import json
import os
import platform
import sqlite3
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_FILE = ROOT / "BENCHMARK.json"

#: The seed results are recorded under; 4242 is held out — use it only to
#: confirm a claim that was developed on another seed.
DEFAULT_SEED = 11
HOLD_OUT_SEED = 4242
QUICK_SECONDS = 1.0


def benchmark_contract() -> Dict[str, object]:
    return json.loads(BENCHMARK_FILE.read_text())


def child_environment() -> Dict[str, str]:
    return dict(os.environ, PYTHONHASHSEED="0")


def run_child(arguments: Sequence[str], root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "bench", *arguments],
        cwd=root, env=child_environment(), capture_output=True, text=True,
    )


def run_workload(
    name: str, seed: int, seconds: float, trace: int, quick: bool = False,
    root: Path = ROOT,
) -> Dict[str, object]:
    """One contract run of *name* in the checkout at *root*; returns its
    detail document (or the bare result line if that checkout's benchmark
    leaves no detail file)."""
    arguments = [
        "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if quick:
        arguments.append("--quick")
    child = run_child(arguments, root)
    if child.stderr:
        sys.stderr.write(child.stderr)
    lines = child.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{name}: no result (exit code {child.returncode})")
    result = json.loads(lines[-1])
    detail = detail_path(name, trace, root)
    if detail.exists():
        result = json.loads(detail.read_text())
    return result


def detail_path(name: str, trace: int, root: Path = ROOT) -> Path:
    return root / "bench" / "out" / f"run-{name}.trace{trace}.json"


def git_commit() -> str:
    try:
        found = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return found.stdout.strip() if found.returncode == 0 else "unknown"


def header(seed: int, seconds: float, quick: bool) -> Dict[str, object]:
    return {
        "seed": seed,
        "hold_out_seed": HOLD_OUT_SEED,
        "run_seconds": seconds,
        "quick": quick,
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
    }


def summarize(runs: List[Dict[str, object]]) -> Dict[str, object]:
    """Several runs of one workload as one entry: each metric's median,
    with every run's value kept beside it."""
    last = runs[-1]
    metrics = {}
    for name, entry in last["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        metrics[name] = {
            "value": statistics.median(values), "unit": entry["unit"], "runs": values,
        }
    return {
        "parameters": last.get("parameters"),
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
        "reported": last.get("reported"),
    }


def run_set(
    seed: int, seconds: float, trace: int, quick: bool = False, repeats: int = 1,
    names: Optional[Sequence[str]] = None,
) -> Dict[str, object]:
    """Every workload (or *names*), *repeats* times each, as one document."""
    contract = benchmark_contract()
    names = names or [entry["name"] for entry in contract["workloads"]]
    document: Dict[str, object] = {"header": header(seed, seconds, quick), "workloads": {}}
    for name in names:
        runs = [run_workload(name, seed, seconds, trace, quick) for _ in range(repeats)]
        document["workloads"][name] = summarize(runs)
    return document


def run_probes() -> Dict[str, object]:
    child = run_child(["probes"])
    if child.returncode != 0:
        sys.stderr.write(child.stderr)
        raise RuntimeError(f"probes failed (exit code {child.returncode})")
    return json.loads(child.stdout.strip().splitlines()[-1])


def all_correct(document: Dict[str, object]) -> bool:
    return all(entry["correct"] for entry in document["workloads"].values())
