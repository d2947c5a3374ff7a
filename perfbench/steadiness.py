#!/usr/bin/env python3
"""Measure the benchmark's own run-to-run spread.

Runs ``perfbench/run.py`` once per seed (1 to ``--seeds``) on each named
workload, for the ``run_seconds`` that ``BENCHMARK.json`` sets, the
workloads interleaved (host speed drifts in phases that last minutes, so
one workload's runs should not all land in one phase), and prints for
each end-to-end metric its median and its spread: the distance between
the first and third quartile of the per-run values, as a share of the
median (``statistics.quantiles(values, n=4)``).

    python3 perfbench/steadiness.py --seeds 10 \
        --workload reference-ring-churn-10k --workload service-submit-mix
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, WORKLOADS  # noqa: E402


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args(argv)
    workloads = args.workload or list(WORKLOADS)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    values: dict[str, dict[str, list[float]]] = {name: {} for name in workloads}
    for seed in range(1, args.seeds + 1):
        for name in workloads:
            completed = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, check=False,
            )
            lines = completed.stdout.strip().splitlines()
            if completed.returncode or not lines:
                print(f"{name} seed {seed}: exit {completed.returncode}\n{completed.stderr}")
                return 1
            summary = json.loads(lines[-1])
            for metric, entry in summary["metrics"].items():
                values[name].setdefault(metric, []).append(entry["value"])
            print(f"{name} seed {seed}: " + " ".join(
                f"{metric}={entry['value']:.4g}" for metric, entry in summary["metrics"].items()
            ), flush=True)

    print(f"\n{'workload':28s} {'metric':16s} {'median':>12s} {'spread':>8s}")
    for name in workloads:
        for metric, series in values[name].items():
            print(f"{name:28s} {metric:16s} {statistics.median(series):12.5g} "
                  f"{spread(series):8.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
