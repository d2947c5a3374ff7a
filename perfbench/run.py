#!/usr/bin/env python3
"""The repository's end-to-end benchmark.

Run one workload::

    python3 perfbench/run.py --workload reference-ring-churn-10k --seed 1 \
        --seconds 8 --trace 0

or every workload, each in a fresh process, with ``--workload all``.  With
``--trace 0`` a run prints the end-to-end metrics; with ``--trace 1`` it
runs one pass untraced and the same pass traced, and prints the per-layer
metrics.  Human-readable lines (metric, value, unit, sample count, notes)
come first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Any failed
operation or output check makes the command exit with status 1.

Inputs are generated from ``--seed``; the program only sees the specs
built from them.  Every file the benchmark writes lives under
``.perfbench_work/`` in the checkout and is removed when the run ends.
See ``perfbench/DESIGN.md`` for the workloads, the metrics and the
layer-to-metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import traceback

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"

ENGINE_WORKLOADS = (
    "array-tree-churn-1m",
    "reference-ring-churn-10k",
)
SERVICE_WORKLOADS = ("service-submit-mix",)
WORKLOADS = ENGINE_WORKLOADS + SERVICE_WORKLOADS


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Every workload in a fresh process, one after the other."""
    status = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        completed = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            check=False,
        )
        status = status or completed.returncode
    return status


def report(outcome, names: dict) -> dict:
    for problem in outcome.problems:
        print(f"# {problem}")
    for note in outcome.notes:
        print(f"# {note}")
    for name, unit in names.items():
        value = outcome.metrics.get(name)
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"{name:34s} {shown:>14s} {unit:8s} n={outcome.samples.get(name, 0)}")
    # A run that attempted nothing measured nothing: report it as failed.
    attempted = max(outcome.attempted, 1)
    failed = outcome.failed if outcome.attempted else 1
    print(f"{'failed_frac':34s} {failed / attempted:>14.6g} {'fraction':8s} n={attempted}")
    correct = failed == 0 and all(name in outcome.metrics for name in names)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in names.items()
            if name in outcome.metrics
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing ({SOURCE / 'repro'})",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SOURCE))
    sys.path.insert(0, str(HERE))
    from common import END_TO_END, PER_LAYER

    if args.workload in SERVICE_WORKLOADS:
        import service_workload as module
    else:
        import engine_workloads as module

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            outcome = module.trace(args.workload, args.seed, args.seconds, work)
        else:
            outcome = module.measure(args.workload, args.seed, args.seconds, work)
    except Exception:  # the run aborted: report it as failed, not as measured
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    summary = report(outcome, PER_LAYER if args.trace else END_TO_END)
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
