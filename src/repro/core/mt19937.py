"""CPython's ``random.Random`` stream, drawn in bulk on numpy's MT19937.

:class:`random.Random` and numpy's legacy ``RandomState`` run the same
MT19937 core, and their state tuples interconvert losslessly.  Lending a
run RNG's exact state to a ``RandomState``, drawing a whole batch there
and writing the advanced state back therefore leaves the run RNG exactly
where the equivalent per-element Python loop would have left it, with
bit-identical draws.  The legacy ``RandomState`` streams are frozen by
numpy's compatibility policy, so the equivalence does not drift between
numpy releases; the differential tests pin it against CPython itself.

* :func:`numpy_stream` is the state hand-off;
* :func:`randbelow_array` reproduces ``rng._randbelow(width)`` — the core
  of ``randint``/``randrange`` — for a batch of draws.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Any, Iterator

try:
    import numpy as _numpy
except ImportError:  # pragma: no cover - callers check HAVE_NUMPY first
    _numpy = None

__all__ = ["HAVE_NUMPY", "numpy_stream", "randbelow_array"]

#: Whether numpy is importable (every function here needs it).
HAVE_NUMPY = _numpy is not None

_WORD = 1 << 32


@contextmanager
def numpy_stream(rng: random.Random, random_state: Any) -> Iterator[Any]:
    """Lend ``rng``'s exact MT19937 state to a numpy ``RandomState``.

    Inside the block, draws from ``random_state`` continue ``rng``'s
    stream word for word (``random_sample`` even derives its doubles with
    CPython's ``(a >> 5, b >> 6)`` 53-bit recipe); on normal exit the
    advanced state is written back, so ``rng`` continues exactly where
    the numpy draws stopped.  ``random_state`` is a state container only:
    whatever it held before is overwritten.
    """
    version, internal, gauss = rng.getstate()
    random_state.set_state(
        ("MT19937", _numpy.array(internal[:-1], dtype=_numpy.uint32), internal[-1])
    )
    yield random_state
    keys, position = random_state.get_state()[1:3]
    rng.setstate((version, tuple(keys.tolist()) + (int(position),), gauss))


def randbelow_array(rng: random.Random, width: int, count: int) -> Any:
    """``[rng._randbelow(width) for _ in range(count)]`` as a numpy array.

    Defined for ``1 <= width < 2**32``.  CPython draws ``getrandbits(k)``
    with ``k = width.bit_length()`` — for ``k <= 32`` that is the top
    ``k`` bits of one 32-bit word — and rejects results ``>= width``.
    The same words are drawn here in batches (a full-range ``uint32``
    ``randint`` of the legacy ``RandomState`` returns the raw words) and
    filtered the same way.  A batch that overshoots is redrawn to the
    exact word that completed the count, so ``rng`` ends where the
    Python loop would leave it.
    """
    np = _numpy
    if not 1 <= width < _WORD:
        raise ValueError(f"width must lie in [1, 2**32), got {width}")
    bits = width.bit_length()
    shift = np.uint32(32 - bits)
    kept = []
    missing = count
    random_state = np.random.RandomState()
    while missing > 0:
        # At least half of all k-bit values are below width, so this
        # usually completes the count in one batch.
        size = (missing << bits) // width + 64
        with numpy_stream(rng, random_state):
            start = random_state.get_state()
            values = random_state.randint(0, _WORD, size=size, dtype=np.uint32) >> shift
            accepted = np.flatnonzero(values < width)
            if accepted.shape[0] >= missing:
                # Done: rewind and consume only the words up to the one
                # that completed the count.
                accepted = accepted[:missing]
                random_state.set_state(start)
                random_state.randint(
                    0, _WORD, size=int(accepted[-1]) + 1, dtype=np.uint32
                )
        kept.append(values[accepted])
        missing -= accepted.shape[0]
    return np.concatenate(kept) if kept else np.empty(0, dtype=np.uint32)
