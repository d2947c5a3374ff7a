"""The two engine workloads, driven the way users run a spec.

Every pass goes ``ExperimentSpec.build`` -> ``engine.initial_snapshot()``
-> ``engine.run(**spec.run_kwargs(), on_round=stamp)``, so the shared
driver's per-round fold and the probe pipeline are inside every timing.
Recovery goes the way ``repro resume`` goes: the newest verified
checkpoint on disk -> the spec embedded in it -> ``build`` -> ``run`` with
``resume_from``.
"""

from __future__ import annotations

import dataclasses
import pathlib
import random
import shutil

from repro import ExperimentSpec
from repro.environment.connectivity import ConnectivityTracker
from repro.simulation import probes as probes_module
from repro.simulation.checkpoint import RunCheckpoint, load_newest_verified
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
from tracer import ENGINE_LAYERS, Tracer


@dataclasses.dataclass(frozen=True)
class EngineWorkload:
    """One engine workload: the spec shape plus how long a run measures."""

    engine: str
    environment: str
    environment_params: dict
    agents: int
    max_rounds: int
    extra_probes: tuple
    #: Rolling checkpoint cadence, in rounds.
    checkpoint_every: int
    #: Set-ups timed after each pass, besides the pass's own; spreading
    #: them over the run lets the fastest one find the host's fast state.
    setups_per_pass: int
    #: At most this many passes per run (the run also ends once its
    #: passes, set-ups excluded, have taken --seconds).
    max_passes: int
    #: Resumes per run; the first one runs to completion when
    #: ``full_resume`` is set, the others stop after ``resume_rounds``.
    resumes: int
    resume_rounds: int
    full_resume: bool
    #: The run must reach S* (every agent at the input minimum).
    must_converge: bool
    #: Expected ``environment.advance`` call count in the traced run:
    #: "zero" (the churn bypass engaged) or "some".
    advance_calls: str


WORKLOADS = {
    "array-tree-churn-1m": EngineWorkload(
        engine="array",
        environment="churn",
        environment_params={
            "topology": {"graph": "tree", "branching": 2},
            "edge_up_probability": 0.3,
        },
        agents=1_000_000,
        max_rounds=2_000,
        extra_probes=(),
        checkpoint_every=25,
        setups_per_pass=2,
        max_passes=1,
        resumes=1,
        resume_rounds=3,
        full_resume=False,
        must_converge=True,
        advance_calls="zero",
    ),
    "reference-ring-churn-10k": EngineWorkload(
        engine="reference",
        environment="churn",
        environment_params={"topology": "ring", "edge_up_probability": 0.05},
        agents=10_000,
        max_rounds=120,
        extra_probes=("temporal", {"probe": "objective", "keep_trajectory": False}),
        checkpoint_every=25,
        setups_per_pass=8,
        max_passes=20,
        resumes=5,
        resume_rounds=1,
        full_resume=True,
        must_converge=False,
        advance_calls="some",
    ),
}


def make_spec(workload: EngineWorkload, rng: random.Random, directory) -> ExperimentSpec:
    """One pass's spec; its inputs come from ``rng`` (seeded by --seed)."""
    probes = tuple(workload.extra_probes) + (
        {
            "probe": "checkpoint",
            "every": workload.checkpoint_every,
            "directory": str(directory),
            "publish": False,
        },
    )
    return ExperimentSpec(
        algorithm="minimum",
        environment=workload.environment,
        environment_params=dict(workload.environment_params),
        value_generator="random-integers",
        generator_params={
            "count": workload.agents,
            "low": 0,
            "high": 10**9,
            "seed": rng.randrange(2**31),
        },
        seeds=(rng.randrange(2**31),),
        max_rounds=workload.max_rounds,
        history="none",
        engine=workload.engine,
        probes=probes,
    )


# -- one pass ------------------------------------------------------------------


@dataclasses.dataclass
class Pass:
    directory: pathlib.Path
    setup_s: float
    build_s: float
    snapshot_s: float
    run_s: float
    intervals: list
    objectives: dict
    rounds: int
    result_digest: str
    group_steps: int
    improving_steps: int


def timed_setup(spec: ExperimentSpec):
    start = now()
    engine = spec.build()
    built = now()
    engine.initial_snapshot()
    return engine, built - start, now() - built


def run_pass(workload, spec, directory, outcome: Outcome, tracer: Tracer | None = None) -> Pass:
    engine, build_s, snapshot_s = timed_setup(spec)
    minimum = min(engine.initial_values)
    kwargs = spec.run_kwargs()
    if tracer is not None:
        install_engine_tracer(tracer, engine, kwargs.get("probes", ()))
    stamps: list[float] = []
    objectives: dict[int, float] = {}

    def stamp(record):
        stamps.append(now())
        objectives[record.round_index] = record.objective

    start = now()
    result = engine.run(**kwargs, on_round=stamp)
    run_s = now() - start
    outcome.operations(result.rounds_executed)

    final = result.final_states
    outcome.check(min(final) == minimum, "the input minimum survives every round")
    if workload.must_converge:
        outcome.check(result.converged, "the run reaches S*")
        outcome.check(
            all(state == minimum for state in final),
            "every final state equals the input minimum",
        )
    else:
        outcome.check(
            result.rounds_executed == workload.max_rounds,
            "the run uses its whole round budget",
        )
    done = Pass(
        directory=directory,
        setup_s=build_s + snapshot_s,
        build_s=build_s,
        snapshot_s=snapshot_s,
        run_s=run_s,
        intervals=[b - a for a, b in zip(stamps, stamps[1:])],
        objectives=objectives,
        rounds=result.rounds_executed,
        result_digest=digest(result.to_json()),
        group_steps=result.group_steps,
        improving_steps=result.improving_steps,
    )
    del engine, result, final
    release()
    return done


def checkpoint_extra_ms(done: Pass, every: int) -> list[float]:
    """What each rolling checkpoint added to its round: the round's
    interval minus the mean of its two neighbours' (untraced estimate)."""
    gaps = done.intervals  # gaps[i] ends at round i + 1
    extra = []
    for round_index in range(every - 1, done.rounds, every):
        i = round_index - 1
        if 1 <= i < len(gaps) - 1:
            extra.append((gaps[i] - (gaps[i - 1] + gaps[i + 1]) / 2) * 1e3)
    return extra


# -- recovery ------------------------------------------------------------------


def crash_copy(done: Pass, crash_root: pathlib.Path) -> None:
    """Leave on disk what a crash at mid-run leaves: the rolling
    checkpoints up to the middle of the run, none after it."""
    round_files = sorted(done.directory.glob("*/round-*.json"))
    middle = done.rounds // 2
    chosen = None
    for path in round_files:
        if int(path.stem.split("-")[1]) <= middle:
            chosen = path
    if chosen is None:
        raise RuntimeError(f"no rolling checkpoint at or before round {middle}")
    target = crash_root / chosen.parent.name
    target.mkdir(parents=True, exist_ok=True)
    shutil.copy2(chosen, target / chosen.name)
    stamp = chosen.with_name(chosen.name + ".sha256")
    if stamp.exists():
        shutil.copy2(stamp, target / stamp.name)


@dataclasses.dataclass
class Resume:
    recover_s: float
    load_s: float
    build_s: float
    restore_s: float


def resume_once(crash_root, stop_after: int | None, done: Pass, outcome: Outcome,
                tracer: Tracer | None = None) -> Resume:
    start = now()
    checkpoint = load_newest_verified(crash_root, quarantine_corrupt=False)
    loaded = now()
    if checkpoint is None:
        raise RuntimeError(f"no verified checkpoint under {crash_root}")
    spec = ExperimentSpec.from_dict(checkpoint.spec)
    engine = spec.build(checkpoint.seed)
    built = now()
    if tracer is not None:
        tracer.wrap(engine, "restore", "resume.restore")
    restore_before = tracer.time["resume.restore"] if tracer is not None else 0.0
    first: list[float] = []
    resumed: dict[int, float] = {}

    def stamp(record):
        first.append(now())
        resumed[record.round_index] = record.objective
        return stop_after is not None and len(first) >= stop_after

    result = engine.run(**spec.run_kwargs(), resume_from=checkpoint, on_round=stamp)
    outcome.operations(1)
    outcome.check(bool(first), "the resumed run executes a round")
    outcome.check(
        all(done.objectives.get(index) == value for index, value in resumed.items()),
        "resumed rounds match the uninterrupted run's objectives",
    )
    if stop_after is None:
        outcome.check(
            digest(result.to_json()) == done.result_digest,
            "the resumed run finishes byte-identical to the uninterrupted run",
        )
    restore_s = (tracer.time["resume.restore"] - restore_before) if tracer is not None else 0.0
    recovered = Resume(
        recover_s=(first[0] if first else now()) - start,
        load_s=loaded - start,
        build_s=built - loaded,
        restore_s=restore_s,
    )
    del engine, result, checkpoint
    release()
    return recovered


def recover(workload, done: Pass, work: pathlib.Path, outcome: Outcome,
            tracer: Tracer | None = None) -> list[Resume]:
    crash_root = work / "crash"
    crash_copy(done, crash_root)
    resumes = []
    for index in range(workload.resumes):
        full = workload.full_resume and index == 0
        stop_after = None if full else workload.resume_rounds
        resumes.append(resume_once(crash_root, stop_after, done, outcome, tracer))
    shutil.rmtree(crash_root, ignore_errors=True)
    return resumes


# -- tracing -------------------------------------------------------------------


def install_engine_tracer(tracer: Tracer, engine, probes) -> None:
    """Wrap the public layer entry points of one built engine.

    Objects the spec built are wrapped on the instance; objects the
    program builds internally (the connectivity tracker, the driver's
    history probe, run checkpoints) are wrapped on their class.
    """
    tracer.wrap_steps(engine)
    environment = engine.environment
    tracer.wrap(environment, "advance", "environment.advance")
    tracer.wrap(environment, "advance_with_delta", "environment.advance")
    tracer.wrap(ConnectivityTracker, "observe", "environment.connectivity")
    tracer.wrap(engine.scheduler, "schedule", "agents.schedule")
    algorithm = engine.algorithm
    tracer.wrap(algorithm, "apply_group_step", "algorithms.step")
    tracer.wrap(algorithm, "objective_delta", "algorithms.objective")
    tracer.wrap_callable_attribute(algorithm, "objective", "algorithms.objective")
    for probe in probes:
        for hook in ("on_round", "on_round_end"):
            if hook in vars(type(probe)):
                tracer.wrap(probe, hook, "probes.round")
    tracer.wrap(HistoryProbe, "on_round", "probes.round")
    wrap_checkpoint_layers(tracer)
    tracer.wrap(engine, "checkpoint", "checkpoint.capture")


def wrap_checkpoint_layers(tracer: Tracer) -> None:
    def count_bytes(text, start, end):
        tracer.count("checkpoint.bytes", len(text))

    tracer.wrap(RunCheckpoint, "to_json", "checkpoint.encode", on_result=count_bytes)
    tracer.wrap(probes_module, "write_checkpoint_text", "checkpoint.write")


def round_layer_metrics(outcome: Outcome, tracer: Tracer, rounds: int) -> None:
    """Per-round layer figures shared by the engine and service workloads."""
    for layer in ENGINE_LAYERS:
        outcome.metric(f"{layer}_ms", ratio(tracer.time[layer] * 1e3, rounds), rounds)
    for layer in ("environment.advance", "agents.schedule", "algorithms.step",
                  "algorithms.objective"):
        outcome.metric(f"{layer}_calls", tracer.calls[layer])
    engine = [seconds * 1e3 for seconds, _ in tracer.rounds]
    engine_self = [seconds * 1e3 for _, seconds in tracer.rounds]
    driver = [seconds * 1e3 for seconds, _, _ in tracer.gaps]
    plain_probe = [probe * 1e3 for _, probe, checkpointed in tracer.gaps if not checkpointed]
    outcome.metric("simulation.engine_ms_p50", p50(engine) if engine else 0.0, len(engine))
    outcome.metric(
        "simulation.engine_self_ms_p50", p50(engine_self) if engine_self else 0.0, len(engine_self)
    )
    outcome.metric("simulation.driver_ms_p50", p50(driver) if driver else 0.0, len(driver))
    outcome.metric("probes.round_ms", mean(plain_probe), len(plain_probe))
    captures = tracer.calls["checkpoint.capture"]
    encodes = tracer.calls["checkpoint.encode"]
    outcome.metric("checkpoint.capture_ms", ratio(tracer.time["checkpoint.capture"] * 1e3, captures), captures)
    outcome.metric("checkpoint.encode_ms", ratio(tracer.time["checkpoint.encode"] * 1e3, encodes), encodes)
    outcome.metric("checkpoint.write_ms", ratio(tracer.time["checkpoint.write"] * 1e3, captures), captures)
    outcome.metric("checkpoint.bytes", ratio(tracer.counts["checkpoint.bytes"], encodes), encodes)


# -- the workload runs -----------------------------------------------------------


def measure(name: str, seed: int, seconds: float, work: pathlib.Path) -> Outcome:
    """Untraced run: the end-to-end metrics."""
    workload = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    outcome = Outcome()

    setups: list[float] = []
    passes: list[Pass] = []
    passes_s = 0.0
    while len(passes) < workload.max_passes and (not passes or passes_s < seconds):
        index = len(passes)
        spec = make_spec(workload, rng, work / f"pass-{index}")
        start = now()
        passes.append(run_pass(workload, spec, work / f"pass-{index}", outcome))
        passes_s += now() - start
        setups.append(passes[-1].setup_s)
        for _ in range(workload.setups_per_pass):
            engine, build_s, snapshot_s = timed_setup(spec)
            setups.append(build_s + snapshot_s)
            del engine
            release()

    resumes = recover(workload, passes[0], work, outcome)
    intervals = [gap * 1e3 for done in passes for gap in done.intervals]
    recovered = [r.recover_s for r in resumes]

    outcome.metric("setup_s", min(setups), len(setups))
    outcome.metric("latency_ms_best5pct", best5pct(intervals), len(intervals))
    outcome.metric("peak_rss_mb", peak_rss_mb())
    outcome.note(f"rounds per pass: {[done.rounds for done in passes]}")
    outcome.note(f"setup_s p50 {p50(setups):.4f} (n={len(setups)})")
    outcome.note(
        f"run_s (wall time of engine.run) p50 {p50([done.run_s for done in passes]):.4f} "
        f"(n={len(passes)})"
    )
    outcome.note(
        f"round_ms p50 {p50(intervals):.3f} p90 {p90(intervals):.3f} (n={len(intervals)})"
    )
    if recovered:
        outcome.note(
            f"resume_s (checkpoint on disk to first resumed round) p50 {p50(recovered):.4f} "
            f"fastest {min(recovered):.4f} (n={len(recovered)})"
        )
    extra = [ms for done in passes for ms in checkpoint_extra_ms(done, workload.checkpoint_every)]
    outcome.note(
        f"checkpoint_ms (what one rolling checkpoint adds to its round, "
        f"p50 of {len(extra)}): {p50(extra):.3f}"
    )
    return outcome


def trace(name: str, seed: int, seconds: float, work: pathlib.Path) -> Outcome:
    """Traced run: one untraced pass, then the same pass traced."""
    workload = WORKLOADS[name]
    outcome = Outcome()
    plain = run_pass(
        workload, make_spec(workload, random.Random(f"{name}:{seed}"), work / "plain"),
        work / "plain", outcome,
    )
    spec = make_spec(workload, random.Random(f"{name}:{seed}"), work / "traced")
    tracer = Tracer()
    try:
        traced = run_pass(workload, spec, work / "traced", outcome, tracer)
        outcome.check(
            traced.result_digest == plain.result_digest,
            "the traced run's result digest equals the untraced run's",
        )
        advance_calls = tracer.calls["environment.advance"]
        if workload.advance_calls == "zero":
            outcome.check(advance_calls == 0, "environment.advance is bypassed (churn bypass engaged)")
        else:
            outcome.check(advance_calls > 0, "environment.advance runs through the public method")

        outcome.metric("experiment.build_s", traced.build_s)
        outcome.metric("simulation.initial_snapshot_s", traced.snapshot_s)
        round_layer_metrics(outcome, tracer, traced.rounds)
        outcome.metric("algorithms.improving_frac", ratio(traced.improving_steps, traced.group_steps))
        outcome.metric("simulation.group_steps_per_round", ratio(traced.group_steps, traced.rounds))
        outcome.metric("tracing.overhead_frac", traced.run_s / plain.run_s - 1.0)

        resumes = recover(workload, traced, work, outcome, tracer)
        for layer, seconds in (
            ("resume.load_ms", [r.load_s for r in resumes]),
            ("resume.build_ms", [r.build_s for r in resumes]),
            ("resume.restore_ms", [r.restore_s for r in resumes]),
        ):
            outcome.metric(layer, p50(seconds) * 1e3 if seconds else 0.0, len(seconds))
    finally:
        tracer.close()
    for name_ in ("service.submit_ms", "service.cache_get_ms", "service.cache_hit_frac",
                  "service.store_write_ms", "service.store_writes_per_job", "service.stream_ms",
                  "service.result_ms", "service.queue_wait_ms", "batch.run_ms",
                  "checkpoint.writes_per_job", "service.http_requests_per_job",
                  "service.end_before_done"):
        outcome.metric(name_, 0.0, 0)
    return outcome
