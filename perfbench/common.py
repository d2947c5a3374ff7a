"""Shared pieces of the benchmark: metric names, outcome bookkeeping, stats."""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import time

now = time.perf_counter

#: End-to-end metrics, reported by every workload with tracing off.
END_TO_END = {
    "setup_s": "s",
    "latency_ms_best5pct": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics, reported by every workload in the traced run.  A
#: layer a workload never enters reads 0.
PER_LAYER = {
    "experiment.build_s": "s",
    "simulation.initial_snapshot_s": "s",
    "environment.advance_ms": "ms",
    "environment.advance_calls": "count",
    "environment.connectivity_ms": "ms",
    "agents.schedule_ms": "ms",
    "agents.schedule_calls": "count",
    "algorithms.step_ms": "ms",
    "algorithms.step_calls": "count",
    "algorithms.objective_ms": "ms",
    "algorithms.objective_calls": "count",
    "algorithms.improving_frac": "fraction",
    "simulation.engine_ms_p50": "ms",
    "simulation.engine_self_ms_p50": "ms",
    "simulation.driver_ms_p50": "ms",
    "simulation.group_steps_per_round": "count",
    "probes.round_ms": "ms",
    "checkpoint.capture_ms": "ms",
    "checkpoint.encode_ms": "ms",
    "checkpoint.write_ms": "ms",
    "checkpoint.bytes": "bytes",
    "resume.load_ms": "ms",
    "resume.build_ms": "ms",
    "resume.restore_ms": "ms",
    "service.submit_ms": "ms",
    "service.cache_get_ms": "ms",
    "service.cache_hit_frac": "fraction",
    "service.store_write_ms": "ms",
    "service.store_writes_per_job": "count",
    "service.stream_ms": "ms",
    "service.result_ms": "ms",
    "service.queue_wait_ms": "ms",
    "batch.run_ms": "ms",
    "checkpoint.writes_per_job": "count",
    "service.http_requests_per_job": "count",
    "service.end_before_done": "count",
    "tracing.overhead_frac": "fraction",
}


class Outcome:
    """Operations and output checks attempted and failed, plus metrics.

    ``samples`` records how many measurements stand behind each metric,
    for the human-readable table.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, float] = {}
        self.samples: dict[str, int] = {}
        self.notes: list[str] = []

    def operations(self, count: int, failed: int = 0, what: str = "") -> None:
        self.attempted += count
        self.failed += failed
        if failed:
            self.problems.append(f"{failed} failed: {what}")

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"check failed: {what}")
        return ok

    def metric(self, name: str, value: float, samples: int = 1) -> None:
        self.metrics[name] = float(value)
        self.samples[name] = int(samples)

    def note(self, text: str) -> None:
        self.notes.append(text)


def p50(values) -> float:
    return statistics.median(values)


def p90(values) -> float:
    """The 90th percentile; needs 10 samples beyond it to be reported."""
    return statistics.quantiles(values, n=10)[-1]


def best5pct(values) -> float:
    """Mean of the fastest 5 % of the values (at least one).

    On a shared host the slow side of a latency distribution is set by
    other tenants, the fast side by the program; this reads the fast side
    without resting on a single sample."""
    fastest = sorted(values)[: max(1, round(len(values) * 0.05))]
    return statistics.fmean(fastest)


def mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def release() -> None:
    """Collect garbage between measured phases so one phase's objects do
    not inflate the next phase's time or the process's peak memory."""
    gc.collect()
