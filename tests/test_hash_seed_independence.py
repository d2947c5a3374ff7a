"""Results do not depend on the interpreter's hash seed.

The churn environments draw one uniform per edge in the iteration order
of the topology's ``frozenset`` of edge tuples, so that order is part of
every churn run's random stream.  It is reproducible across processes
only because tuples of ints hash the same under every ``PYTHONHASHSEED``
(string hashing is what the seed randomizes).  These tests pin that
premise end to end: the same spec run in two interpreters with different
hash seeds prints byte-identical result JSON, on the array engine's churn
path and on the reference engine's.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

SOURCE_ROOT = str(pathlib.Path(repro.__file__).resolve().parent.parent)

SPECS = {
    "array-churn-tree": {
        "name": "array-churn-tree",
        "algorithm": "minimum",
        "environment": "churn",
        "environment_params": {
            "topology": {"graph": "tree", "branching": 2},
            "edge_up_probability": 0.3,
        },
        "value_generator": "random-integers",
        "generator_params": {"count": 300, "low": 0, "high": 10**6},
        "seeds": [3, 4],
        "max_rounds": 400,
        "engine": "array",
    },
    "reference-churn-ring": {
        "name": "reference-churn-ring",
        "algorithm": "minimum",
        "environment": "churn",
        "environment_params": {"topology": "ring", "edge_up_probability": 0.2},
        "value_generator": "random-integers",
        "generator_params": {"count": 40, "low": 0, "high": 999},
        "seeds": [1],
        "max_rounds": 300,
    },
}


def _run_under_hash_seed(spec_path: pathlib.Path, hash_seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SOURCE_ROOT, env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "run", str(spec_path), "--json"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


@pytest.mark.parametrize("name", sorted(SPECS))
def test_result_json_is_identical_under_two_hash_seeds(name, tmp_path):
    spec_path = tmp_path / f"{name}.json"
    spec_path.write_text(json.dumps(SPECS[name]))
    first = _run_under_hash_seed(spec_path, "1")
    second = _run_under_hash_seed(spec_path, "2")
    assert json.loads(first)["items"], "the run printed no results"
    assert first == second
