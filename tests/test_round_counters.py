"""Engines count their own rounds; the driver only adds the counts up.

A round record's step counters (``improving_steps``, ``stutter_steps``,
``invalid_steps``, ``largest_group``) are fields the engine fills in on
the branches it already takes, and ``run_engine`` folds them into the run
totals in O(1) per round.  These tests pin both halves of that contract:

* **counter parity, generated** — for every engine and every round path,
  each record's counters equal what its own ``groups`` and ``judgements``
  say, round by round, over drawn sizes, seeds, churn levels and
  topologies.  The derivation below is the only place the per-group
  formulas still exist.  The array engine records carry no per-group
  tuples, so its counters are held against the reference engine's
  derivation for the same run (the engines are value-identical);
* **the driver's O(1) fold** — ``run_engine`` over records whose
  ``groups`` and ``judgements`` raise when read returns the same result.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agents.scheduler import RandomPairScheduler
from repro.algorithms.average import average_algorithm
from repro.algorithms.minimum import minimum_algorithm, minimum_merge
from repro.algorithms.second_smallest import second_smallest_direct_algorithm
from repro.algorithms.summation import summation_algorithm
from repro.core.relation import StepKind
from repro.environment.dynamics import RandomChurnEnvironment
from repro.environment.graphs import (
    complete_graph,
    line_graph,
    ring_graph,
    star_graph,
    tree_graph,
)
from repro.simulation.array_engine import ArrayEngine
from repro.simulation.engine import Simulator
from repro.simulation.messaging import MergeMessagePassingSimulator
from repro.simulation.protocol import run_engine

COUNTERS = (
    "group_steps",
    "improving_steps",
    "stutter_steps",
    "invalid_steps",
    "largest_group",
)

TOPOLOGIES = {
    "ring": ring_graph,
    "line": line_graph,
    "complete": complete_graph,
    "star": star_graph,
    "tree": tree_graph,
}

#: Algorithms for the reference engine's paths; the direct second-smallest
#: runs with enforcement off, so its rounds contain invalid steps.
ALGORITHMS = {
    "minimum": minimum_algorithm,
    "sum": summation_algorithm,
    "average": average_algorithm,
    "second-smallest-direct": second_smallest_direct_algorithm,
}

#: The reference engine's round paths: the maintained-partition round
#: (maximal scheduler, incremental) and the generic loop it falls back to,
#: with singletons stepped, skipped (no maintained partition) or absent.
REFERENCE_PATHS = {
    "maintained": {},
    "generic": dict(
        incremental=False,
        incremental_environment=False,
        scheduler=RandomPairScheduler(),
    ),
    "generic-maximal": dict(incremental=False, incremental_environment=False),
    "generic-skips-singletons": dict(incremental_environment=False),
    "generic-incremental": dict(scheduler=RandomPairScheduler()),
}

ROUNDS = 25


def derived_counters(record) -> dict:
    """The counters as the record's own per-group tuples define them."""
    kinds = [judgement.kind for judgement in record.judgements]
    improving = sum(kind is StepKind.IMPROVEMENT for kind in kinds)
    stutters = sum(kind is StepKind.STUTTER for kind in kinds)
    return {
        "group_steps": len(kinds),
        "improving_steps": improving,
        "stutter_steps": stutters,
        "invalid_steps": len(kinds) - improving - stutters,
        "largest_group": max((len(group) for group in record.groups), default=0),
    }


def counters(record) -> dict:
    return {name: getattr(record, name) for name in COUNTERS}


@st.composite
def instances(draw):
    n = draw(st.integers(min_value=2, max_value=24))
    return {
        "values": draw(st.lists(st.integers(0, 50), min_size=n, max_size=n)),
        "seed": draw(st.integers(0, 10_000)),
        "churn": draw(st.sampled_from([0.05, 0.2, 0.5, 0.9, 1.0])),
        # Low agent availability makes rounds with no group at all.
        "agents_up": draw(st.sampled_from([1.0, 0.6, 0.1])),
        "topology": draw(st.sampled_from(sorted(TOPOLOGIES))),
    }


def environment(instance) -> RandomChurnEnvironment:
    topology = TOPOLOGIES[instance["topology"]](len(instance["values"]))
    return RandomChurnEnvironment(
        topology,
        edge_up_probability=instance["churn"],
        agent_up_probability=instance.get("agents_up", 1.0),
    )


def reference(instance, algorithm_name: str, path: str) -> Simulator:
    return Simulator(
        ALGORITHMS[algorithm_name](),
        environment(instance),
        instance["values"],
        seed=instance["seed"],
        **REFERENCE_PATHS[path],
    )


def maintained_calls(simulator: Simulator) -> list:
    """Spy on the maintained-round path; returns the list of its calls."""
    calls = []
    inner = simulator._execute_maintained_round

    def spy(*args, **kwargs):
        calls.append(args[0])
        return inner(*args, **kwargs)

    simulator._execute_maintained_round = spy
    return calls


def assert_parity(simulator) -> list:
    records = list(simulator.steps(ROUNDS))
    assert len(records) == ROUNDS
    for record in records:
        assert counters(record) == derived_counters(record), record.round_index
    return records


class TestCounterParity:
    @pytest.mark.parametrize("path", sorted(REFERENCE_PATHS))
    @given(
        instance=instances(),
        algorithm_name=st.sampled_from(sorted(ALGORITHMS)),
    )
    @settings(max_examples=25, deadline=None)
    def test_reference_engine(self, path, instance, algorithm_name):
        simulator = reference(instance, algorithm_name, path)
        calls = maintained_calls(simulator)
        assert_parity(simulator)
        # Each path is really the one under test.
        assert len(calls) == (ROUNDS if path == "maintained" else 0)

    @given(
        instance=instances(),
        loss=st.sampled_from([0.0, 0.3, 0.9]),
    )
    @settings(max_examples=25, deadline=None)
    def test_message_passing_engine(self, instance, loss):
        simulator = MergeMessagePassingSimulator(
            minimum_algorithm(),
            merge=minimum_merge,
            environment=environment(instance),
            initial_values=instance["values"],
            loss_probability=loss,
            seed=instance["seed"],
        )
        assert_parity(simulator)

    @given(
        instance=instances(),
        algorithm_name=st.sampled_from(["minimum", "sum"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_array_engine_matches_the_reference_derivation(
        self, instance, algorithm_name
    ):
        array = ArrayEngine(
            ALGORITHMS[algorithm_name](),
            environment(instance),
            instance["values"],
            seed=instance["seed"],
        )
        expected = [
            derived_counters(record)
            for record in reference(instance, algorithm_name, "maintained").steps(
                ROUNDS
            )
        ]
        assert [counters(record) for record in array.steps(ROUNDS)] == expected

    @pytest.mark.parametrize("path", sorted(REFERENCE_PATHS))
    def test_enforcement_off_rounds_count_invalid_steps(self, path):
        # Sparse pairs: the direct rule lifts a pair to its larger value,
        # which raises the objective (not a valid step of D).
        instance = {
            "values": [9, 4, 7, 1, 8, 3, 6, 2],
            "seed": 0,
            "churn": 0.3,
            "topology": "ring",
        }
        records = assert_parity(reference(instance, "second-smallest-direct", path))
        assert sum(record.invalid_steps for record in records) > 0


class _OpaqueRecord:
    """A round record whose per-group tuples raise when read."""

    def __init__(self, record):
        self._record = record

    def __getattr__(self, name):
        if name in ("groups", "judgements"):
            raise AssertionError(f"the driver read record.{name}")
        return getattr(self._record, name)


class _OpaqueEngine:
    """Wraps an engine so every record it yields is opaque."""

    def __init__(self, engine):
        self._engine = engine

    def steps(self, max_rounds=None):
        records = self._engine.steps(max_rounds)
        try:
            for record in records:
                yield _OpaqueRecord(record)
        finally:
            records.close()

    def __getattr__(self, name):
        return getattr(self._engine, name)


DRIVER_INSTANCE = {
    "values": [9, 4, 7, 1, 8, 3, 6, 2, 5, 0, 11, 10],
    "seed": 3,
    "churn": 0.3,
    "topology": "ring",
}

ENGINES = {
    "maintained": lambda: reference(DRIVER_INSTANCE, "minimum", "maintained"),
    "generic": lambda: reference(DRIVER_INSTANCE, "sum", "generic"),
    "enforcement-off": lambda: reference(
        DRIVER_INSTANCE, "second-smallest-direct", "maintained"
    ),
    "message-passing": lambda: MergeMessagePassingSimulator(
        minimum_algorithm(),
        merge=minimum_merge,
        environment=environment(DRIVER_INSTANCE),
        initial_values=DRIVER_INSTANCE["values"],
        loss_probability=0.2,
        seed=DRIVER_INSTANCE["seed"],
    ),
    "array": lambda: ArrayEngine(
        minimum_algorithm(),
        environment(DRIVER_INSTANCE),
        DRIVER_INSTANCE["values"],
        seed=DRIVER_INSTANCE["seed"],
    ),
}


class TestDriverReadsOnlyCounters:
    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_run_never_reads_per_group_tuples(self, name):
        policy = dict(max_rounds=60, extra_rounds_after_convergence=3)
        expected = run_engine(ENGINES[name](), **policy)
        result = run_engine(_OpaqueEngine(ENGINES[name]()), **policy)
        assert result.rounds_executed > 0
        assert result.group_steps > 0
        for field in COUNTERS:
            assert getattr(result, field) == getattr(expected, field), field
        assert result.to_json() == expected.to_json()
