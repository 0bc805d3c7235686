"""``python3 -m bench``: the benchmark's command line (see bench/README.md).

    python3 -m bench                       every workload, end-to-end metrics
    python3 -m bench trace                 every workload traced, plus the probes
    python3 -m bench --workload W --seed N --seconds S --trace 0|1
                                           one run; the last line is its result
    python3 -m bench compare A.json B.json
    python3 -m bench compare --pairs N PARENT_DIR CHANGE_DIR
    python3 -m bench selfcheck [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# The program under test is built from source: the benchmark imports the
# checkout's own src/, and a checkout without it has nothing to measure.
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# Modules that import the program are imported where they are used, after
# the process has been re-executed with its hash seed pinned.
from . import compare, runner  # noqa: E402


def parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", nargs="?", default="run",
                        choices=("run", "trace", "probes", "compare", "selfcheck"))
    parser.add_argument("paths", nargs="*", help="compare: two result files, or two checkouts")
    parser.add_argument("--workload", help="run this one workload in this process")
    parser.add_argument("--seed", type=int, help="the only source of randomness (default 11)")
    parser.add_argument("--seconds", type=float, help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test sizes: xmark scale 1, 0.5 s windows")
    parser.add_argument("--repeats", type=int, default=1, help="runs per workload")
    parser.add_argument("--pairs", type=int, help="compare: alternating parent/change runs")
    parser.add_argument("--out", help="also write the document to this file")
    return parser.parse_intermixed_args(argv)


def pin_hash_seed() -> None:
    """Re-execute under ``PYTHONHASHSEED=0`` unless already there."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, "-m", "bench", *sys.argv[1:]])


def emit(document, out) -> None:
    text = json.dumps(document, indent=1)
    print(text)
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(text + "\n")


def one_workload(options, seed: int, seconds: float) -> int:
    pin_hash_seed()
    from . import harness, tracing, workloads

    spec = workloads.WORKLOADS[options.workload]
    if options.quick:
        spec = workloads.quick(spec)
    result = (tracing if options.trace else harness).run(spec, seed, seconds)
    detail = runner.detail_path(spec.name, options.trace)
    detail.parent.mkdir(parents=True, exist_ok=True)
    detail.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    options = parse(argv if argv is not None else sys.argv[1:])
    seed = options.seed if options.seed is not None else runner.DEFAULT_SEED
    seconds = options.seconds or (
        runner.QUICK_SECONDS if options.quick else runner.benchmark_contract()["run_seconds"]
    )
    if options.workload:
        return one_workload(options, seed, seconds)
    if options.command == "probes":
        pin_hash_seed()
        from . import probes

        print(json.dumps(probes.run()))
        return 0
    if options.command == "compare":
        if len(options.paths) != 2:
            raise SystemExit("compare takes two result files, or --pairs N and two checkouts")
        if options.pairs:
            rows = compare.compare_pairs(*options.paths, options.pairs, seed, seconds)
        else:
            rows = compare.compare_files(*options.paths)
        print(compare.render(rows))
        return 1 if any(row["verdict"] == compare.WORSE for row in rows) else 0
    if options.command == "selfcheck":
        document = compare.selfcheck(seed, seconds, options.quick)
        emit(document, options.out)
        print(compare.render(document["agreement"]), file=sys.stderr)
        return 0 if document["agrees"] else 1
    trace = 1 if options.command == "trace" else options.trace
    document = runner.run_set(seed, seconds, trace, options.quick, options.repeats)
    if trace and not options.quick:
        document["probes"] = runner.run_probes()
    emit(document, options.out)
    return 0 if runner.all_correct(document) else 1


if __name__ == "__main__":
    sys.exit(main())
