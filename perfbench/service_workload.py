"""The service workload: one closed-loop client against an in-process
``ExperimentService``.

A ``repro submit --wait`` caller waits for each reply before sending the
next request, so one client submits, follows the job to completion and
only then submits again.  Completion is timed without ``wait()``'s
doubling poll: an executed job's event stream is followed to its ``end``
event, then a tight status poll confirms ``done`` (``end`` can arrive
before the job is marked done; each such job counts in
``service.end_before_done``).
"""

from __future__ import annotations

import json
import pathlib
import random
import shutil
import threading
import time

from repro import ExperimentSpec
from repro.agents.scheduler import MaximalGroupsScheduler
from repro.core.algorithm import SelfSimilarAlgorithm
from repro.environment.connectivity import ConnectivityTracker
from repro.environment.dynamics import RandomChurnEnvironment
from repro.algorithms.minimum import minimum_algorithm
from repro.service import ExperimentService, ServiceClient, ServiceSinkProbe
from repro.simulation.batch import BatchRunner
from repro.simulation.engine import Simulator
from repro.simulation.probes import CheckpointProbe
from repro.simulation.protocol import HistoryProbe

from common import (
    Outcome,
    best5pct,
    digest,
    mean,
    now,
    p50,
    p90,
    peak_rss_mb,
    ratio,
    release,
)
from engine_workloads import round_layer_metrics, wrap_checkpoint_layers
from tracer import Tracer

SPECS = 100
REPEATS = 3  # cache hits per spec, after its one executed submission
#: Cold starts timed after each pass; setup_s is the fastest of them all.
SETUPS_PER_PASS = 8
RESTARTS = 5
#: Passes per run at least (more until the passes have taken --seconds);
#: three passes give 1,200 submissions, 60 of them in the fastest 5 %.
MIN_PASSES = 3
POLL_S = 0.0005


def make_specs(rng: random.Random) -> list[ExperimentSpec]:
    return [
        ExperimentSpec(
            algorithm="minimum",
            environment="churn",
            environment_params={"topology": "ring", "edge_up_probability": 0.3},
            value_generator="random-integers",
            generator_params={
                "count": 64,
                "low": 0,
                "high": 10**6,
                "seed": rng.randrange(2**31),
            },
            seeds=(rng.randrange(2**31),),
            max_rounds=1_000,
        )
        for _ in range(SPECS)
    ]


def make_order(rng: random.Random) -> list[int]:
    order = [index for index in range(SPECS) for _ in range(1 + REPEATS)]
    rng.shuffle(order)
    return order


def canonical(results) -> str:
    return json.dumps(results, sort_keys=True)


def start_service(data_dir: pathlib.Path, count_request=None):
    """Start a service and wait for its first health reply."""
    service = ExperimentService(data_dir, port=0).start()
    client = ServiceClient(service.url, fault_hook=count_request)
    client.health()
    return service, client


def stop_all(services) -> None:
    """Stop services in parallel: each stop waits up to the HTTP server's
    half-second shutdown poll, which is not part of any measurement."""
    threads = [threading.Thread(target=service.stop) for service in services]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a service did not stop within 60 s")


class SubmitLoop:
    """One pass of the submission mix against a fresh service."""

    def __init__(self, specs, order, data_dir: pathlib.Path, outcome: Outcome,
                 count_request=None, on_started=None):
        self.specs = specs
        self.order = order
        self.data_dir = data_dir
        self.outcome = outcome
        self.count_request = count_request
        self.on_started = on_started
        self.executed_ms: list[float] = []
        self.hit_ms: list[float] = []
        #: Every submission's latency, in submission order.
        self.in_order: list[float] = []
        self.stream_ms: list[float] = []
        self.result_ms: list[float] = []
        self.end_before_done = 0
        #: Each spec's executed results, by spec index.
        self.results: dict[int, list] = {}
        self.job_ids: dict[int, str] = {}
        self.rounds = 0
        self.group_steps = 0
        self.improving_steps = 0

    def run(self) -> float:
        service, client = start_service(self.data_dir, self.count_request)
        try:
            if self.on_started is not None:
                self.on_started(service)
            start = now()
            for index in self.order:
                self.submit(client, index)
            wall = now() - start
        finally:
            service.stop()
        return wall

    def submit(self, client: ServiceClient, index: int) -> None:
        outcome = self.outcome
        first = index not in self.results
        start = now()
        try:
            job = client.submit(self.specs[index])
            if job["status"] == "done":
                record = client.status(job["id"])
                elapsed = now() - start
                streamed = None
            else:
                for _ in client.events(job["id"]):
                    pass
                streamed = now() - start
                record = client.status(job["id"])
                if record["status"] not in ("done", "failed"):
                    self.end_before_done += 1
                while record["status"] not in ("done", "failed"):
                    time.sleep(POLL_S)
                    record = client.status(job["id"])
                elapsed = now() - start
        except Exception as error:  # one failed request must not end the pass
            outcome.operations(1, 1, f"submission of spec {index}: {error!r}")
            return
        ok = record["status"] == "done" and "results" in record
        outcome.operations(1, 0 if ok else 1, f"job {job['id']} {record['status']}")
        if not ok:
            return
        self.in_order.append(elapsed * 1e3)
        if first:
            outcome.check(not job["cached"], f"the first submission of spec {index} executes")
            self.executed_ms.append(elapsed * 1e3)
            if streamed is not None:
                self.stream_ms.append(streamed * 1e3)
                self.result_ms.append((elapsed - streamed) * 1e3)
            self.results[index] = record["results"]
            self.job_ids[index] = job["id"]
            for unit in record["results"]:
                result = unit["result"]
                self.rounds += result["rounds_executed"]
                self.group_steps += result["group_steps"]
                self.improving_steps += result["improving_steps"]
                outcome.check(result["correct"], f"spec {index} reaches the input minimum")
        else:
            outcome.check(job["cached"], f"a repeat submission of spec {index} is a cache hit")
            self.hit_ms.append(elapsed * 1e3)
            outcome.check(
                canonical(record["results"]) == canonical(self.results[index]),
                f"the cache hit for spec {index} is byte-identical to its executed job",
            )

    def digest(self) -> str:
        """Digest of every executed job's simulation results.  The unit
        records around them name the service's data directory, which
        differs between passes, so they stay out."""
        return digest(
            "\n".join(
                canonical([unit["result"] for unit in self.results[index]])
                for index in sorted(self.results)
            )
        )


def check_offline(loop: SubmitLoop, rng: random.Random, outcome: Outcome) -> None:
    """One executed spec per run equals an offline ``spec.run``."""
    index = rng.choice(sorted(loop.results))
    spec = loop.specs[index]
    offline = [spec.run(seed).to_dict() for seed in spec.seeds]
    service_side = [unit["result"] for unit in loop.results[index]]
    outcome.check(
        canonical(offline) == canonical(service_side),
        f"spec {index}: the service's result equals an offline spec.run",
    )


def restarts(data_dir: pathlib.Path, loop: SubmitLoop, outcome: Outcome) -> list[float]:
    """Start services on the pass's full data directory, each until it
    serves a finished job's results again.  Every job there is done, so
    the services only read the directory; they stop together at the end."""
    services = []
    elapsed = []
    try:
        for index in sorted(loop.job_ids)[:RESTARTS]:
            start = now()
            service, client = start_service(data_dir)
            services.append(service)
            record = client.status(loop.job_ids[index])
            elapsed.append(now() - start)
            outcome.operations(1)
            outcome.check(
                record.get("status") == "done"
                and canonical(record.get("results")) == canonical(loop.results[index]),
                "a restarted service serves the finished job's results unchanged",
            )
    finally:
        stop_all(services)
    return elapsed


def cold_starts(work: pathlib.Path) -> list[float]:
    """Start services on fresh data directories, each until its first
    health reply; they stop together at the end."""
    services = []
    elapsed = []
    try:
        for index in range(SETUPS_PER_PASS):
            start = now()
            service, _ = start_service(work / f"setup-{index}")
            elapsed.append(now() - start)
            services.append(service)
    finally:
        stop_all(services)
    for index in range(SETUPS_PER_PASS):
        shutil.rmtree(work / f"setup-{index}", ignore_errors=True)
    return elapsed


def measure(name: str, seed: int, seconds: float, work: pathlib.Path) -> Outcome:
    """Untraced run: the end-to-end metrics."""
    rng = random.Random(f"{name}:{seed}")
    outcome = Outcome()

    loops: list[SubmitLoop] = []
    walls: list[float] = []
    setups: list[float] = []
    while len(loops) < MIN_PASSES or sum(walls) < seconds:
        specs = make_specs(rng)
        loop = SubmitLoop(specs, make_order(rng), work / f"pass-{len(loops)}", outcome)
        walls.append(loop.run())
        loops.append(loop)
        release()
        setups += cold_starts(work)
        if len(loops) == 1:
            # Read after the first pass: each later pass, whose count
            # depends on --seconds, adds a few MB in this one process.
            peak_rss = peak_rss_mb()

    check_offline(loops[0], rng, outcome)
    restarted = restarts(work / "pass-0", loops[0], outcome)

    latencies = [ms for loop in loops for ms in loop.in_order]
    submissions = len(latencies)
    executed = [ms for loop in loops for ms in loop.executed_ms]
    hits = [ms for loop in loops for ms in loop.hit_ms]
    outcome.metric("setup_s", min(setups), len(setups))
    outcome.metric("latency_ms_best5pct", best5pct(latencies), submissions)
    outcome.metric("peak_rss_mb", peak_rss)
    outcome.note(f"run_s (wall time of one pass) p50 {p50(walls):.4f} (n={len(walls)})")
    outcome.note(f"setup_s p50 {p50(setups):.4f} (n={len(setups)})")
    outcome.note(
        f"submission_ms p50 {p50(latencies):.3f} p90 {p90(latencies):.3f} (n={submissions})"
    )
    outcome.note(
        f"restart_s (restart to a finished job served) p50 {p50(restarted):.4f} "
        f"fastest {min(restarted):.4f} (n={len(restarted)})"
    )
    outcome.note(f"job_ms p50 {p50(executed):.3f} p90 {p90(executed):.3f} (n={len(executed)})")
    outcome.note(f"hit_ms p50 {p50(hits):.3f} p90 {p90(hits):.3f} (n={len(hits)})")
    outcome.note(f"jobs_per_s {submissions / sum(walls):.3f} (n={submissions})")
    outcome.note(
        "end_before_done (end event before status done): "
        f"{sum(loop.end_before_done for loop in loops)} of {len(executed)} executed jobs"
    )
    return outcome


def install_service_tracer(tracer: Tracer, service: ExperimentService, marks: dict) -> None:
    """Wrap the service's own objects on the instance, and the engine
    layers the worker builds internally on their classes."""

    def submitted(result, start, end):
        job, created = result
        if created and not job.cached:
            marks.setdefault("submitted", {})[job.id] = end

    def batch_started(args, kwargs, start):
        job_id = pathlib.Path(kwargs["checkpoint_dir"]).parent.name
        marks.setdefault("started", {})[job_id] = start

    def cache_read(entry, start, end):
        tracer.count("service.cache_hits", entry is not None)

    tracer.wrap(service.queue, "submit", "service.submit", on_result=submitted)
    tracer.wrap(service.cache, "get", "service.cache_get", on_result=cache_read)
    tracer.wrap(service.store, "save", "service.store_write")
    tracer.wrap(service.store, "save_results", "service.store_write")
    tracer.wrap(BatchRunner, "run", "batch.run", on_start=batch_started)

    tracer.wrap(ExperimentSpec, "build", "experiment.build")
    tracer.wrap(Simulator, "initial_snapshot", "simulation.initial_snapshot")
    tracer.wrap_steps(Simulator)
    tracer.wrap(RandomChurnEnvironment, "advance", "environment.advance")
    tracer.wrap(RandomChurnEnvironment, "advance_with_delta", "environment.advance")
    tracer.wrap(ConnectivityTracker, "observe", "environment.connectivity")
    tracer.wrap(MaximalGroupsScheduler, "schedule", "agents.schedule")
    tracer.wrap(SelfSimilarAlgorithm, "apply_group_step", "algorithms.step")
    tracer.wrap(SelfSimilarAlgorithm, "objective_delta", "algorithms.objective")
    tracer.wrap(type(minimum_algorithm().objective), "__call__", "algorithms.objective")
    for probe_class in (HistoryProbe, ServiceSinkProbe, CheckpointProbe):
        for hook in ("on_round", "on_round_end"):
            if hook in vars(probe_class):
                tracer.wrap(probe_class, hook, "probes.round")
    wrap_checkpoint_layers(tracer)
    tracer.wrap(Simulator, "checkpoint", "checkpoint.capture")


def trace(name: str, seed: int, seconds: float, work: pathlib.Path) -> Outcome:
    """Traced run: one untraced pass, then the same pass traced."""
    rng = random.Random(f"{name}:{seed}")
    outcome = Outcome()
    specs = make_specs(rng)
    order = make_order(rng)

    plain = SubmitLoop(specs, order, work / "plain", outcome)
    plain_wall = plain.run()
    release()

    tracer = Tracer()
    requests = [0]

    def count_request(method, path):
        requests[0] += 1

    marks: dict = {}
    traced = SubmitLoop(
        specs, order, work / "traced", outcome, count_request,
        on_started=lambda service: install_service_tracer(tracer, service, marks),
    )
    try:
        traced_wall = traced.run()
    finally:
        tracer.close()

    outcome.check(
        traced.digest() == plain.digest(),
        "the traced run's result digests equal the untraced run's",
    )
    executed = len(traced.executed_ms)
    submissions = len(traced.in_order)
    builds = tracer.calls["experiment.build"]
    snapshots = tracer.calls["simulation.initial_snapshot"]
    outcome.metric("experiment.build_s", ratio(tracer.time["experiment.build"], builds), builds)
    outcome.metric(
        "simulation.initial_snapshot_s",
        ratio(tracer.time["simulation.initial_snapshot"], snapshots),
        snapshots,
    )
    round_layer_metrics(outcome, tracer, traced.rounds)
    outcome.metric("algorithms.improving_frac", ratio(traced.improving_steps, traced.group_steps))
    outcome.metric("simulation.group_steps_per_round", ratio(traced.group_steps, traced.rounds))
    for layer in ("resume.load_ms", "resume.build_ms", "resume.restore_ms"):
        outcome.metric(layer, 0.0, 0)

    submits = tracer.calls["service.submit"]
    gets = tracer.calls["service.cache_get"]
    writes = tracer.calls["service.store_write"]
    runs = tracer.calls["batch.run"]
    started = marks.get("started", {})
    waits = [started[job] - end for job, end in marks.get("submitted", {}).items() if job in started]
    outcome.metric("service.submit_ms", ratio(tracer.time["service.submit"] * 1e3, submits), submits)
    outcome.metric("service.cache_get_ms", ratio(tracer.time["service.cache_get"] * 1e3, gets), gets)
    outcome.metric("service.cache_hit_frac", ratio(tracer.counts["service.cache_hits"], gets), gets)
    outcome.metric("service.store_write_ms", ratio(tracer.time["service.store_write"] * 1e3, writes), writes)
    outcome.metric("service.store_writes_per_job", ratio(writes, submissions), submissions)
    outcome.metric("service.stream_ms", mean(traced.stream_ms), len(traced.stream_ms))
    outcome.metric("service.result_ms", mean(traced.result_ms), len(traced.result_ms))
    outcome.metric("service.queue_wait_ms", mean([w * 1e3 for w in waits]), len(waits))
    outcome.metric("batch.run_ms", ratio(tracer.time["batch.run"] * 1e3, runs), runs)
    outcome.metric(
        "checkpoint.writes_per_job", ratio(tracer.calls["checkpoint.capture"], executed), executed
    )
    outcome.metric("service.http_requests_per_job", ratio(requests[0], submissions), submissions)
    outcome.metric("service.end_before_done", traced.end_before_done, executed)
    outcome.metric("tracing.overhead_frac", traced_wall / plain_wall - 1.0)
    return outcome
