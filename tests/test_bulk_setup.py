"""The bulk set-up computations equal their per-element references.

Building a large run does its O(n) work in bulk: the ``random-integers``
generator draws its words on numpy's MT19937, the array engine
fingerprints its initial bag from the ``int64`` state array, and
exact summation objectives price each distinct state once.  Each bulk
form must equal, value for value, the per-element Python it replaces:

* ``random-integers`` ≡ CPython's ``randint`` list (and the numpy batch
  leaves the RNG in CPython's state), over drawn counts, negative and
  int64-edge bounds, widths of 1, powers of two ±1 and the 2**32
  boundary where the generator switches to the per-element path;
* ``_fingerprint_of_int64`` ≡ ``_fingerprint_of_counts``, over values
  at the edges of CPython's ``hash(int)`` reduction, with repeats;
* an exact summation objective ≡ the per-element sum, value and type;
* the array engine's initial bag, target and rebuilt bag ≡ the ones
  ``Multiset(states)`` gives.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.average import average_algorithm
from repro.algorithms.maximum import maximum_algorithm
from repro.algorithms.minimum import minimum_algorithm
from repro.core import mt19937
from repro.core.multiset import Multiset, _fingerprint_of_counts
from repro.core.objective import SummationObjective
from repro.environment.dynamics import RandomChurnEnvironment
from repro.environment.graphs import tree_graph
from repro.experiment import random_integers
from repro.simulation.array_engine import ArrayEngine

needs_numpy = pytest.mark.skipif(not mt19937.HAVE_NUMPY, reason="numpy not installed")

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

#: Widths around every power of two up to just past the 2**32 boundary.
EDGE_WIDTHS = sorted(
    {1, 2, 3}
    | {2**power + step for power in range(1, 34) for step in (-1, 0, 1)}
)


@st.composite
def integer_ranges(draw):
    """``(low, high)`` with a drawn width and a drawn, possibly negative, low."""
    width = draw(st.one_of(st.sampled_from(EDGE_WIDTHS), st.integers(1, 2**34)))
    low = draw(
        st.one_of(
            st.integers(-(10**12), 10**12),
            st.just(INT64_MIN),
            # high lands exactly on the int64 maximum
            st.just(INT64_MAX - width + 1),
        )
    )
    return low, low + width - 1


@given(
    bounds=integer_ranges(),
    count=st.integers(0, 300),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=200, deadline=None)
def test_random_integers_equals_cpython_randint(bounds, count, seed):
    low, high = bounds
    rng = random.Random(seed)
    expected = [rng.randint(low, high) for _ in range(count)]
    assert random_integers(count, low, high, seed) == expected


@needs_numpy
@given(
    width=st.one_of(
        st.sampled_from([w for w in EDGE_WIDTHS if w < 2**32]),
        st.integers(1, 2**32 - 1),
    ),
    count=st.integers(0, 2000),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=100, deadline=None)
def test_randbelow_array_leaves_the_rng_where_cpython_would(width, count, seed):
    batch = random.Random(seed)
    loop = random.Random(seed)
    drawn = mt19937.randbelow_array(batch, width, count).tolist()
    assert drawn == [loop._randbelow(width) for _ in range(count)]
    assert batch.getstate() == loop.getstate()


def test_random_integers_without_numpy_is_the_reference(monkeypatch):
    expected = random_integers(500, -7, 10**6, 42)
    monkeypatch.setattr(mt19937, "HAVE_NUMPY", False)
    assert random_integers(500, -7, 10**6, 42) == expected


#: The edges of CPython's hash(int): the modulus 2**61 - 1 and its
#: neighbours, -1 (whose hash is -2), -2, and the int64 extremes.
HASH_EDGE_VALUES = [
    0, 1, -1, -2, 2**61 - 2, 2**61 - 1, 2**61, -(2**61 - 1), -(2**61),
    2 * (2**61 - 1) - 1, -(2 * (2**61 - 1)) - 1, INT64_MIN, INT64_MAX,
]

int64_values = st.one_of(
    st.sampled_from(HASH_EDGE_VALUES), st.integers(INT64_MIN, INT64_MAX)
)


@needs_numpy
@given(
    values=st.lists(int64_values, max_size=40),
    repeats=st.lists(st.integers(0, 39), max_size=20),
)
@settings(max_examples=300, deadline=None)
def test_vectorized_fingerprint_equals_per_value_fingerprint(values, repeats):
    import numpy as np

    from repro.core.multiset import _fingerprint_of_int64

    if values:
        values = values + [values[index % len(values)] for index in repeats]
    array = np.array(values, dtype=np.int64)
    assert _fingerprint_of_int64(array) == _fingerprint_of_counts(Counter(values))


exact_objectives = [
    minimum_algorithm().objective,
    maximum_algorithm(upper_bound=100).objective,
    average_algorithm().objective,
    # integer-valued floats add exactly below 2**53
    SummationObjective("halves", per_agent=lambda value: value / 2, exact_delta=True),
]


@pytest.mark.parametrize("objective", exact_objectives, ids=lambda o: o.name)
@given(values=st.lists(st.integers(0, 50).map(lambda v: 2 * v), max_size=60))
@settings(max_examples=50, deadline=None)
def test_exact_objective_prices_distinct_states_once(objective, values):
    bag = Multiset(values)
    reference = sum((objective.per_agent(state) for state in bag), objective.offset)
    priced = objective(bag)
    assert priced == reference and type(priced) is type(reference)


def test_fraction_objective_keeps_its_type():
    objective = SummationObjective(
        "thirds", per_agent=lambda value: Fraction(value, 3), exact_delta=True
    )
    bag = Multiset([1, 1, 2, 2, 2])
    assert objective(bag) == Fraction(8, 3)
    assert type(objective(Multiset())) is int


def _tree_engine(values, seed=5):
    environment = RandomChurnEnvironment(
        tree_graph(len(values)), edge_up_probability=0.3
    )
    return ArrayEngine(minimum_algorithm(), environment, values, seed=seed)


@given(
    values=st.lists(st.integers(0, 30), min_size=2, max_size=80),
    rounds=st.integers(0, 6),
)
@settings(max_examples=40, deadline=None)
def test_engine_bags_equal_the_reference_bags(values, rounds):
    engine = _tree_engine(values)
    algorithm = engine.algorithm
    reference = Multiset(values)
    initial = engine._initial_multiset
    assert list(initial.items()) == list(reference.items())
    assert initial.fingerprint() == _fingerprint_of_counts(Counter(values))
    assert list(engine.target.items()) == list(algorithm.target(values).items())
    assert engine.initial_snapshot()[1] == algorithm.objective(reference)
    for _ in engine.steps(rounds):
        pass
    # The maintained bag (on the numpy backend, rebuilt lazily from the
    # states) and a restored engine's bag both match a from-scratch count.
    states = engine.current_states()
    rebuilt = engine.current_multiset()
    assert rebuilt == Multiset(states)
    assert rebuilt.fingerprint() == _fingerprint_of_counts(Counter(states))
    restored = _tree_engine(values)
    restored.restore(engine.checkpoint())
    assert restored._maintained.fingerprint() == rebuilt.fingerprint()
    assert restored.current_multiset() == rebuilt
