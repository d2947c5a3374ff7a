"""Transparent per-layer timers for the traced benchmark run.

The tracer never subclasses and never edits program code.  It replaces a
public attribute with a timing wrapper, either on an instance (the objects
``ExperimentSpec.build`` hands back) or on a class (objects the program
builds internally, such as ``ConnectivityTracker``), and puts the original
back on ``close()``.  Because instances keep their exact type, the engines'
exact-type gates (``type(environment) is RandomChurnEnvironment``) engage
exactly as in an untraced run.

Each wrapped call adds its duration to its layer's total and counts one
call.  A layer re-entered from inside itself (``objective_delta`` falling
back to ``objective``) is timed once, at the outermost call.  Totals are
shared by all threads; the open-layer set is per thread.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

now = time.perf_counter

#: Layers that run inside an engine's ``steps()`` generator; the steps
#: wrapper subtracts them from the round's engine time to get the
#: engine's self time.
ENGINE_LAYERS = (
    "environment.advance",
    "environment.connectivity",
    "agents.schedule",
    "algorithms.step",
    "algorithms.objective",
)
#: Layers that run between rounds; the steps wrapper subtracts them from
#: the gap between two rounds to get the driver's own time.
PROBE_LAYERS = ("probes.round",)


class _TimedCallable:
    """A callable attribute value (``algorithm.objective``) that times its
    calls and forwards every other attribute to the wrapped object."""

    def __init__(self, target, call):
        self.__dict__["_target"] = target
        self.__dict__["_call"] = call

    def __call__(self, *args, **kwargs):
        return self._call(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """Per-layer busy time and call counts, plus per-round breakdowns."""

    def __init__(self):
        self.time = defaultdict(float)
        self.calls = defaultdict(int)
        #: Quantities other than time, such as bytes encoded.
        self.counts = defaultdict(float)
        #: One entry per executed round: (engine_s, engine_self_s).
        self.rounds: list[tuple[float, float]] = []
        #: One entry per round gap: (driver_s, probe_s, checkpointed).
        self.gaps: list[tuple[float, float, bool]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list = []

    # -- accounting -------------------------------------------------------------

    def _open(self) -> set:
        open_layers = getattr(self._local, "open", None)
        if open_layers is None:
            open_layers = self._local.open = set()
        return open_layers

    def add(self, layer: str, seconds: float, calls: int = 1) -> None:
        with self._lock:
            self.time[layer] += seconds
            self.calls[layer] += calls

    def count(self, name: str, amount: float) -> None:
        with self._lock:
            self.counts[name] += amount

    def total(self, layers) -> float:
        with self._lock:
            return sum(self.time[layer] for layer in layers)

    def timed(self, layer: str, function, on_result=None, on_start=None):
        """``function`` wrapped to time its calls into ``layer``.

        ``on_result(result, start, end)`` sees each outermost call's
        return value, for counters such as bytes or cache hits;
        ``on_start(args, kwargs, start)`` sees its arguments as it begins.
        """

        def wrapper(*args, **kwargs):
            open_layers = self._open()
            if layer in open_layers:
                return function(*args, **kwargs)
            open_layers.add(layer)
            start = now()
            if on_start is not None:
                on_start(args, kwargs, start)
            try:
                result = function(*args, **kwargs)
            finally:
                end = now()
                open_layers.discard(layer)
                self.add(layer, end - start)
            if on_result is not None:
                on_result(result, start, end)
            return result

        wrapper.__wrapped__ = function
        return wrapper

    def timed_steps(self, steps):
        """Wrap an engine's ``steps`` generator function.

        Every ``next()`` is one round inside the engine; the time between
        handing a record to the driver and the driver asking for the next
        one is the driver's fold plus the probes.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            records = steps(*args, **kwargs)
            handed = None
            try:
                while True:
                    start = now()
                    probes = tracer.total(PROBE_LAYERS)
                    if handed is not None:
                        handed_at, probes_before, checkpoints = handed
                        probe_s = probes - probes_before
                        tracer.gaps.append(
                            (
                                start - handed_at - probe_s,
                                probe_s,
                                tracer.calls["checkpoint.capture"] != checkpoints,
                            )
                        )
                    children = tracer.total(ENGINE_LAYERS)
                    try:
                        record = next(records)
                    except StopIteration:
                        return
                    end = now()
                    engine_s = end - start
                    child_s = tracer.total(ENGINE_LAYERS) - children
                    tracer.rounds.append((engine_s, engine_s - child_s))
                    handed = (
                        end,
                        tracer.total(PROBE_LAYERS),
                        tracer.calls["checkpoint.capture"],
                    )
                    yield record
            finally:
                records.close()

        wrapper.__wrapped__ = steps
        return wrapper

    # -- installing wrappers ------------------------------------------------------

    def wrap(self, owner, name: str, layer: str, on_result=None, on_start=None) -> None:
        """Time ``owner.name`` (an instance, class or module attribute)."""
        self._replace(
            owner, name, self.timed(layer, getattr(owner, name), on_result, on_start)
        )

    def wrap_steps(self, owner) -> None:
        """Time ``owner.steps``, the engine's round generator."""
        self._replace(owner, "steps", self.timed_steps(owner.steps))

    def wrap_callable_attribute(self, owner, name: str, layer: str) -> None:
        """Time calls of a callable *value* (``algorithm.objective``) while
        its other attributes (``supports_delta``, ``delta``) pass through."""
        target = getattr(owner, name)
        self._replace(owner, name, _TimedCallable(target, self.timed(layer, target)))

    def _replace(self, owner, name: str, replacement) -> None:
        had_own = name in vars(owner)
        original = vars(owner)[name] if had_own else None
        setattr(owner, name, replacement)
        self._undo.append((owner, name, had_own, original))

    def close(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._undo:
            owner, name, had_own, original = self._undo.pop()
            if had_own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
