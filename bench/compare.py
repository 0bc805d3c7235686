"""Verdicts: is B better, the same or worse than A — or can't we tell?

Every end-to-end metric carries a direction and a bound in
``BENCHMARK.json``; a comparison applies them per (workload, metric).
The answer is *unresolved* whenever the spread between a side's own
repeats is wider than the bound: a difference smaller than the noise is
not "unchanged".  Every ratio is printed with its base.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from . import runner

BETTER, SAME, WORSE, UNRESOLVED = "better", "same", "worse", "unresolved"


def gates() -> Dict[str, Dict[str, object]]:
    return {entry["name"]: entry for entry in runner.benchmark_contract()["end_to_end"]}


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the range, below
    four values; 0 for a single run)."""
    if len(values) < 2:
        return 0.0
    middle = statistics.median(values)
    if len(values) < 4:
        return (max(values) - min(values)) / middle
    low, _mid, high = statistics.quantiles(values, n=4)
    return (high - low) / middle


def worsening(base: float, new: float, better: str) -> float:
    """How much worse *new* is than *base*, as a share of *base*."""
    change = (new - base) / base
    return change if better == "lower" else -change


def verdict(
    base_runs: Sequence[float], new_runs: Sequence[float], gate: Dict[str, object],
    wins: Optional[int] = None,
) -> Dict[str, object]:
    """One row.  With *wins* (pairs the new side won, of ``len(new_runs)``
    pairs) a gain also has to pass the choosing-metrics section 8 rule."""
    base, new = statistics.median(base_runs), statistics.median(new_runs)
    bound, noise = gate["bound"], max(spread(base_runs), spread(new_runs))
    worse_by = worsening(base, new, gate["better"])
    if noise > bound:
        outcome = UNRESOLVED
    elif worse_by > bound:
        outcome = WORSE
    elif wins is None:
        outcome = BETTER if worse_by < -bound else SAME
    else:
        low, _mid, high = statistics.quantiles(base_runs, n=4)
        gained = wins >= 0.9 * len(new_runs) and abs(new - base) > high - low
        outcome = BETTER if gained and worse_by < 0 else SAME
    row = {
        "base": base, "new": new, "unit": gate["unit"], "ratio": new / base,
        "worse_by": worse_by, "spread": noise, "bound": bound, "verdict": outcome,
    }
    if wins is not None:
        row["wins"] = f"{wins}/{len(new_runs)}"
    return row


def metric_runs(entry: Dict[str, object]) -> List[float]:
    return list(entry.get("runs") or [entry["value"]])


def compare_documents(base: Dict[str, object], new: Dict[str, object]) -> List[Dict[str, object]]:
    rows = []
    for workload, entry in base["workloads"].items():
        other = new["workloads"].get(workload)
        if other is None:
            continue
        for name, gate in gates().items():
            if name in entry["metrics"] and name in other["metrics"]:
                row = verdict(
                    metric_runs(entry["metrics"][name]), metric_runs(other["metrics"][name]), gate
                )
                rows.append(dict(row, workload=workload, metric=name))
    return rows


def render(rows: Sequence[Dict[str, object]]) -> str:
    lines = [
        f"{'workload':20s} {'metric':16s} {'base':>12s} {'new':>12s} {'new/base':>9s} "
        f"{'worse by':>9s} {'spread':>7s} {'bound':>6s}  verdict"
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:20s} {row['metric']:16s} {row['base']:12.4f} {row['new']:12.4f} "
            f"{row['ratio']:9.3f} {row['worse_by']:+9.1%} {row['spread']:7.1%} "
            f"{row['bound']:6.0%}  {row['verdict']}"
            + (f" ({row['wins']} pairs won)" if "wins" in row else "")
            + f" [{row['unit']}]"
        )
    return "\n".join(lines)


def compare_files(base_path: str, new_path: str) -> List[Dict[str, object]]:
    return compare_documents(
        json.loads(Path(base_path).read_text()), json.loads(Path(new_path).read_text())
    )


def compare_pairs(
    parent: str, change: str, pairs: int, seed: int, seconds: float
) -> List[Dict[str, object]]:
    """*pairs* alternating parent/change runs of every workload.

    Both checkouts run their own copy of the benchmark — a change that
    claims a gain may not have edited it — with the same seed per pair
    and a new seed for each pair.
    """
    roots = {"parent": Path(parent).resolve(), "change": Path(change).resolve()}
    rows = []
    for workload in (entry["name"] for entry in runner.benchmark_contract()["workloads"]):
        values: Dict[str, Dict[str, List[float]]] = {"parent": {}, "change": {}}
        for pair in range(pairs):
            for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
                result = runner.run_workload(
                    workload, seed + pair, seconds, trace=0, root=roots[side]
                )
                if not result["correct"]:
                    raise RuntimeError(f"{workload} gave wrong answers on the {side} side")
                for name, entry in result["metrics"].items():
                    values[side].setdefault(name, []).append(entry["value"])
        for name, gate in gates().items():
            base_runs, new_runs = values["parent"][name], values["change"][name]
            wins = sum(
                1 for old, new in zip(base_runs, new_runs)
                if worsening(old, new, gate["better"]) < 0
            )
            rows.append(
                dict(verdict(base_runs, new_runs, gate, wins), workload=workload, metric=name)
            )
    return rows


def selfcheck(seed: int, seconds: float, quick: bool) -> Dict[str, object]:
    """Two sets of runs of this very commit must agree within the bounds.

    Also takes the traced set and the probes, so that the document it
    returns is a complete row of the trajectory.
    """
    first = runner.run_set(seed, seconds, trace=0, quick=quick)
    second = runner.run_set(seed, seconds, trace=0, quick=quick)
    rows = compare_documents(first, second)
    document = {
        "header": first["header"],
        "sets": [first["workloads"], second["workloads"]],
        "agreement": rows,
        "agrees": all(abs(row["worse_by"]) <= row["bound"] for row in rows),
        "traced": runner.run_set(seed, seconds, trace=1, quick=quick)["workloads"],
    }
    if not quick:
        document["probes"] = runner.run_probes()
    return document
