"""Finite multisets (bags) of hashable values.

The paper models the collective state of a set of agents as a *multiset* of
agent states: two agents may hold identical states, and the collective state
``S_B`` of a group ``B`` is the bag ``{S_a | a in B}``.  Distributed
functions ``f`` and objective functions ``h`` are functions on such bags,
and the central structural property of the methodology — super-idempotence,
``f(X ∪ Y) = f(f(X) ∪ Y)`` — is stated in terms of bag union.

:class:`Multiset` is an immutable, hashable bag with the operations the
paper uses:

* bag union (``|`` or :meth:`union`), which *adds* multiplicities,
* bag difference (``-``),
* sub-bag containment (``<=``),
* membership, counting and iteration with multiplicity.

Immutability keeps value semantics simple: agent states are snapshots, and a
group transition produces a *new* bag rather than mutating the old one, so
traces of a computation can be stored and compared without defensive copies.

The standard library's :class:`collections.Counter` provides a mutable bag;
we wrap rather than expose it so that bags are hashable (usable as members
of sets of reachable states in the model checker) and so that arithmetic on
negative multiplicities can never arise.

For hot loops that fold many small state deltas into one evolving bag —
the simulation engine's per-round bookkeeping — rebuilding an immutable
:class:`Multiset` per change is O(n) each time.  :class:`MutableMultiset`
is the companion working bag with O(1) :meth:`~MutableMultiset.add` /
:meth:`~MutableMultiset.discard` mutation, an incrementally maintained
content *fingerprint* (an order-independent 64-bit summary that lets
equality checks reject unequal bags in O(1)), and a cached
:meth:`~MutableMultiset.snapshot` back into the immutable world.
"""

from __future__ import annotations

import sys
from collections import Counter
from collections.abc import Mapping
from typing import Any, Hashable, Iterable, Iterator

try:
    import numpy as _numpy
except ImportError:  # pragma: no cover - only _fingerprint_of_int64 needs it
    _numpy = None

__all__ = ["Multiset", "MutableMultiset"]

_FINGERPRINT_MASK = (1 << 64) - 1

#: CPython reduces ``hash(int)`` modulo this prime (2**61 - 1 on 64-bit builds).
_HASH_MODULUS = sys.hash_info.modulus


_FINGERPRINT_CACHE: dict = {}
_FINGERPRINT_CACHE_CAP = 1 << 16


def _element_fingerprint(value: Hashable) -> int:
    """A 64-bit mixed hash of one element.

    ``hash()`` alone is too structured for summing (small ints hash to
    themselves, so ``{0: k}`` and ``{k: 0}``-style collisions would be
    common); a splitmix64-style finalizer spreads it over 64 bits.  The
    bag fingerprint is the multiplicity-weighted sum of these, so it is
    order-independent and can be maintained in O(1) per mutation.

    Fingerprints are memoized per value (the engine folds the same agent
    states through the maintained bag round after round; the memo is
    sound for equal-but-distinct-type keys like ``1`` and ``1.0`` because
    the fingerprint depends only on ``hash(value)``, which equal values
    share).  The cache is capped so unbounded state spaces cannot grow
    memory without bound.
    """
    cached = _FINGERPRINT_CACHE.get(value)
    if cached is not None:
        return cached
    h = hash(value) & _FINGERPRINT_MASK
    h = (h + 0x9E3779B97F4A7C15) & _FINGERPRINT_MASK
    h ^= h >> 30
    h = (h * 0xBF58476D1CE4E5B9) & _FINGERPRINT_MASK
    h ^= h >> 27
    h = (h * 0x94D049BB133111EB) & _FINGERPRINT_MASK
    h ^= h >> 31
    if len(_FINGERPRINT_CACHE) < _FINGERPRINT_CACHE_CAP:
        _FINGERPRINT_CACHE[value] = h
    return h


def _fingerprint_of_counts(counts: Mapping[Hashable, int]) -> int:
    """Fingerprint of a whole ``{element: multiplicity}`` mapping."""
    total = 0
    for value, count in counts.items():
        total += _element_fingerprint(value) * count
    return total & _FINGERPRINT_MASK


def _fingerprint_of_int64(values) -> int:
    """Fingerprint of the bag of a numpy ``int64`` array's elements.

    Equal to ``_fingerprint_of_counts(Counter(values.tolist()))``: the
    formula of :func:`_element_fingerprint` evaluated for every element
    at once in wrapping ``uint64`` arithmetic (which is arithmetic modulo
    2**64, what ``& _FINGERPRINT_MASK`` computes), then summed — the
    multiplicity weighting falls out of summing repeated elements.  The
    first steps reproduce CPython's ``hash(int)``: ``|x|`` reduced modulo
    :data:`_HASH_MODULUS`, negated for negative ``x``, with -1 mapped to
    -2 (``-1`` is CPython's error return).
    """
    np = _numpy
    values = np.asarray(values, dtype=np.int64)
    negative = values < 0
    words = values.view(np.uint64)
    # Negation in uint64 wraps, so |-2**63| comes out as 2**63 exactly.
    h = np.where(negative, -words, words) % np.uint64(_HASH_MODULUS)
    h[negative & (h == 1)] = 2
    h = np.where(negative, -h, h)
    h += np.uint64(0x9E3779B97F4A7C15)
    h ^= h >> np.uint64(30)
    h *= np.uint64(0xBF58476D1CE4E5B9)
    h ^= h >> np.uint64(27)
    h *= np.uint64(0x94D049BB133111EB)
    h ^= h >> np.uint64(31)
    return int(h.sum(dtype=np.uint64))


class Multiset:
    """An immutable finite multiset of hashable elements.

    Parameters
    ----------
    elements:
        An iterable of elements (repetitions allowed), or a mapping from
        element to multiplicity.  Multiplicities must be non-negative;
        zero-multiplicity entries are dropped.

    Examples
    --------
    >>> Multiset([3, 5, 3, 7])
    Multiset({3: 2, 5: 1, 7: 1})
    >>> Multiset([1, 2]) | Multiset([2, 3])
    Multiset({1: 1, 2: 2, 3: 1})
    >>> len(Multiset([3, 5, 3, 7]))
    4
    """

    __slots__ = ("_counts", "_size", "_hash", "_fingerprint")

    def __init__(self, elements: Iterable[Hashable] | Mapping[Hashable, int] = ()):
        if isinstance(elements, Multiset):
            counts = dict(elements._counts)
        elif isinstance(elements, Mapping):
            counts = {}
            for value, count in elements.items():
                if count < 0:
                    raise ValueError(
                        f"multiplicity of {value!r} must be non-negative, got {count}"
                    )
                if count > 0:
                    counts[value] = int(count)
        else:
            counts = dict(Counter(elements))
        self._counts: dict[Hashable, int] = counts
        self._size: int = sum(counts.values())
        self._hash: int | None = None
        self._fingerprint: int | None = None

    # -- construction helpers ------------------------------------------------

    @classmethod
    def _from_counts(
        cls,
        counts: dict[Hashable, int],
        size: int,
        fingerprint: int | None = None,
    ) -> "Multiset":
        """Trusted fast-path constructor: adopt ``counts`` without copying.

        Callers must guarantee positive multiplicities, a correct ``size``
        and exclusive ownership of ``counts`` (the dictionary is adopted,
        not copied).  Used by :meth:`MutableMultiset.snapshot` and
        :meth:`apply_delta` to keep hot paths free of the O(n) Counter
        rebuild in :meth:`__init__`.
        """
        bag = cls.__new__(cls)
        bag._counts = counts
        bag._size = size
        bag._hash = None
        bag._fingerprint = fingerprint
        return bag

    @classmethod
    def empty(cls) -> "Multiset":
        """Return the empty multiset."""
        return _EMPTY

    @classmethod
    def singleton(cls, value: Hashable) -> "Multiset":
        """Return the multiset ``{value}`` containing a single element."""
        return cls([value])

    # -- basic queries -------------------------------------------------------

    def count(self, value: Hashable) -> int:
        """Return the multiplicity of ``value`` (0 if absent)."""
        return self._counts.get(value, 0)

    def __contains__(self, value: Hashable) -> bool:
        return value in self._counts

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __iter__(self) -> Iterator[Hashable]:
        """Iterate over elements *with multiplicity*."""
        for value, count in self._counts.items():
            for _ in range(count):
                yield value

    def distinct(self) -> frozenset:
        """Return the underlying *set* of distinct elements."""
        return frozenset(self._counts)

    def counts(self) -> dict[Hashable, int]:
        """Return a fresh ``{element: multiplicity}`` dictionary."""
        return dict(self._counts)

    def items(self):
        """A read-only view of the ``(element, multiplicity)`` pairs (no copy)."""
        return self._counts.items()

    def most_common(self) -> list[tuple[Hashable, int]]:
        """Return ``(element, multiplicity)`` pairs, highest multiplicity first."""
        return Counter(self._counts).most_common()

    def fingerprint(self) -> int:
        """An order-independent 64-bit content summary (cached).

        Equal multisets always have equal fingerprints, so a fingerprint
        mismatch proves inequality in O(1).  A fingerprint match does not
        prove equality (collisions are possible, if astronomically rare),
        so callers must confirm with ``==`` — which is exactly what the
        simulation engine does for its per-round convergence check.
        """
        if self._fingerprint is None:
            self._fingerprint = _fingerprint_of_counts(self._counts)
        return self._fingerprint

    # -- bag algebra ---------------------------------------------------------

    def union(self, other: "Multiset") -> "Multiset":
        """Bag union: multiplicities add.

        This is the paper's bold ``∪`` operator.  Note that it differs from
        the set-union of ``Counter`` (which takes the maximum multiplicity).
        """
        other = _coerce(other)
        merged = Counter(self._counts)
        merged.update(other._counts)
        return Multiset(merged)

    def difference(self, other: "Multiset") -> "Multiset":
        """Bag difference: multiplicities subtract, truncating at zero."""
        other = _coerce(other)
        result = Counter(self._counts)
        result.subtract(other._counts)
        return Multiset({v: c for v, c in result.items() if c > 0})

    def intersection(self, other: "Multiset") -> "Multiset":
        """Bag intersection: multiplicities take the minimum."""
        other = _coerce(other)
        return Multiset(
            {
                v: min(c, other.count(v))
                for v, c in self._counts.items()
                if other.count(v) > 0
            }
        )

    def issubset(self, other: "Multiset") -> bool:
        """Return True when every multiplicity in ``self`` is <= that in ``other``."""
        other = _coerce(other)
        return all(count <= other.count(value) for value, count in self._counts.items())

    def add(self, value: Hashable, count: int = 1) -> "Multiset":
        """Return a new multiset with ``count`` extra copies of ``value``."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return self
        merged = dict(self._counts)
        merged[value] = merged.get(value, 0) + count
        return Multiset(merged)

    def remove(self, value: Hashable, count: int = 1) -> "Multiset":
        """Return a new multiset with ``count`` copies of ``value`` removed.

        Raises
        ------
        KeyError
            If fewer than ``count`` copies of ``value`` are present.
        """
        present = self.count(value)
        if present < count:
            raise KeyError(
                f"cannot remove {count} copies of {value!r}: only {present} present"
            )
        merged = dict(self._counts)
        if present == count:
            del merged[value]
        else:
            merged[value] = present - count
        return Multiset(merged)

    def discard(self, value: Hashable, count: int = 1) -> "Multiset":
        """Return a new multiset with up to ``count`` copies of ``value`` removed.

        Unlike :meth:`remove`, removing more copies than are present is not
        an error — the multiplicity simply truncates at zero.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        present = self.count(value)
        if present == 0 or count == 0:
            return self
        return self.remove(value, min(count, present))

    def apply_delta(
        self, removed: Iterable[Hashable], added: Iterable[Hashable]
    ) -> "Multiset":
        """Return the multiset after applying a ``(removed, added)`` state delta.

        This is the functional counterpart of
        :meth:`MutableMultiset.apply_delta` and shares its semantics:
        additions are applied before removals (so a delta that moves a
        state through the bag is always legal), and removed elements must
        be present with sufficient multiplicity once those additions are
        accounted for.  It costs one dictionary copy plus
        O(|removed| + |added|), instead of the O(n) rebuild that
        ``Multiset(updated_elements)`` would take.

        Raises
        ------
        KeyError
            If the delta would drive a multiplicity negative.
        """
        counts = dict(self._counts)
        size = self._size
        for value in added:
            counts[value] = counts.get(value, 0) + 1
            size += 1
        for value in removed:
            present = counts.get(value, 0)
            if present == 0:
                raise KeyError(
                    f"cannot remove {value!r}: not present in the multiset"
                )
            if present == 1:
                del counts[value]
            else:
                counts[value] = present - 1
            size -= 1
        return Multiset._from_counts(counts, size)

    def map(self, transform) -> "Multiset":
        """Return the multiset obtained by applying ``transform`` to each element."""
        return Multiset(transform(value) for value in self)

    def __or__(self, other: "Multiset") -> "Multiset":
        return self.union(other)

    def __add__(self, other: "Multiset") -> "Multiset":
        return self.union(other)

    def __sub__(self, other: "Multiset") -> "Multiset":
        return self.difference(other)

    def __and__(self, other: "Multiset") -> "Multiset":
        return self.intersection(other)

    def __le__(self, other: "Multiset") -> bool:
        return self.issubset(_coerce(other))

    def __ge__(self, other: "Multiset") -> bool:
        return _coerce(other).issubset(self)

    # -- equality / hashing --------------------------------------------------

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, Multiset):
            if self._size != other._size:
                return False
            if (
                self._fingerprint is not None
                and other._fingerprint is not None
                and self._fingerprint != other._fingerprint
            ):
                return False
            return self._counts == other._counts
        return NotImplemented

    def __ne__(self, other: Any) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._counts.items()))
        return self._hash

    # -- conversions ---------------------------------------------------------

    def to_sorted_list(self, key=None) -> list:
        """Return the elements (with multiplicity) as a sorted list."""
        return sorted(self, key=key)

    def sum(self):
        """Return the sum of all elements (with multiplicity)."""
        return sum(value * count for value, count in self._counts.items())

    def min(self):
        """Return the smallest element.

        Raises
        ------
        ValueError
            If the multiset is empty.
        """
        if not self._counts:
            raise ValueError("min() of an empty multiset")
        return min(self._counts)

    def max(self):
        """Return the largest element.

        Raises
        ------
        ValueError
            If the multiset is empty.
        """
        if not self._counts:
            raise ValueError("max() of an empty multiset")
        return max(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        items = ", ".join(f"{v!r}: {c}" for v, c in sorted(
            self._counts.items(), key=lambda item: repr(item[0])))
        return f"Multiset({{{items}}})"


class MutableMultiset:
    """A mutable bag with O(1) mutation and an incremental fingerprint.

    This is the engine's *maintained* round state: instead of rebuilding
    the agent-state :class:`Multiset` from scratch every round (O(n)), the
    simulator folds each round's ``(removed, added)`` state delta into one
    of these in O(|delta|).  The content fingerprint is maintained under
    every mutation, so comparing the bag against a target multiset costs
    O(1) whenever the answer is "not equal" — which is every round until
    convergence.

    :meth:`snapshot` returns an immutable :class:`Multiset` view and is
    cached: taking two snapshots with no mutation in between returns the
    *same* object, so rounds in which nothing changed share one snapshot.

    Not thread-safe; intended as single-owner working state.
    """

    __slots__ = ("_counts", "_size", "_fingerprint", "_snapshot")

    def __init__(self, elements: Iterable[Hashable] | Mapping[Hashable, int] = ()):
        source = Multiset(elements) if not isinstance(elements, Multiset) else elements
        self._counts: dict[Hashable, int] = source.counts()
        self._size: int = len(source)
        self._fingerprint: int = source.fingerprint()
        # The immutable source already is a snapshot of these contents.
        self._snapshot: Multiset | None = source

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __contains__(self, value: Hashable) -> bool:
        return value in self._counts

    def count(self, value: Hashable) -> int:
        """Return the multiplicity of ``value`` (0 if absent)."""
        return self._counts.get(value, 0)

    def fingerprint(self) -> int:
        """The maintained 64-bit content fingerprint (O(1))."""
        return self._fingerprint

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, MutableMultiset):
            return self._counts == other._counts
        if isinstance(other, Multiset):
            return self.matches(other)
        return NotImplemented

    __hash__ = None  # mutable: not hashable

    def matches(self, other: Multiset) -> bool:
        """Equality against an immutable multiset, cheapest checks first.

        Size and fingerprint mismatches answer in O(1); only a fingerprint
        match falls through to the full content comparison (guarding
        against hash collisions).
        """
        if self._size != len(other):
            return False
        if self._fingerprint != other.fingerprint():
            return False
        return self._counts == other._counts

    # -- mutation --------------------------------------------------------------

    def add(self, value: Hashable, count: int = 1) -> None:
        """Add ``count`` copies of ``value`` in O(1)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return
        self._counts[value] = self._counts.get(value, 0) + count
        self._size += count
        self._fingerprint = (
            self._fingerprint + _element_fingerprint(value) * count
        ) & _FINGERPRINT_MASK
        self._snapshot = None

    def discard(self, value: Hashable, count: int = 1) -> int:
        """Remove up to ``count`` copies of ``value`` in O(1).

        Returns the number of copies actually removed (0 when absent);
        multiplicities truncate at zero rather than raising.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        present = self._counts.get(value, 0)
        removed = min(count, present)
        if removed == 0:
            return 0
        if removed == present:
            del self._counts[value]
        else:
            self._counts[value] = present - removed
        self._size -= removed
        self._fingerprint = (
            self._fingerprint - _element_fingerprint(value) * removed
        ) & _FINGERPRINT_MASK
        self._snapshot = None

        return removed

    def apply_delta(
        self, removed: Iterable[Hashable], added: Iterable[Hashable]
    ) -> None:
        """Fold a state delta into the bag in O(|removed| + |added|).

        Additions are applied before removals, so a delta that moves a
        state through the bag (``removed=[x], added=[x]``) is always
        legal.  Like :meth:`Multiset.apply_delta`, removing an element
        that is not present raises ``KeyError`` — a delta referring to
        states the bag never held means the caller's bookkeeping has
        drifted, and failing fast beats silently corrupting the size and
        fingerprint.

        The loops inline :meth:`add` / :meth:`discard` (this is the
        engine's per-round hot path; one method call per changed agent
        state adds up), with identical semantics.
        """
        counts = self._counts
        counts_get = counts.get
        fingerprint = self._fingerprint
        size = self._size
        for value in added:
            counts[value] = counts_get(value, 0) + 1
            size += 1
            fingerprint += _element_fingerprint(value)
        for value in removed:
            present = counts_get(value, 0)
            if present == 0:
                self._size = size
                self._fingerprint = fingerprint & _FINGERPRINT_MASK
                self._snapshot = None
                raise KeyError(
                    f"cannot remove {value!r}: not present in the multiset"
                )
            if present == 1:
                del counts[value]
            else:
                counts[value] = present - 1
            size -= 1
            fingerprint -= _element_fingerprint(value)
        self._size = size
        self._fingerprint = fingerprint & _FINGERPRINT_MASK
        self._snapshot = None

    # -- conversion ------------------------------------------------------------

    def snapshot(self) -> Multiset:
        """An immutable :class:`Multiset` with the current contents.

        The result is cached until the next mutation, so unchanged bags
        hand out one shared snapshot — and the snapshot inherits the
        maintained fingerprint, keeping its equality checks O(1)-cheap
        on mismatch.
        """
        if self._snapshot is None:
            self._snapshot = Multiset._from_counts(
                dict(self._counts), self._size, self._fingerprint
            )
        return self._snapshot

    def __iter__(self) -> Iterator[Hashable]:
        """Iterate over elements *with multiplicity*."""
        for value, count in self._counts.items():
            for _ in range(count):
                yield value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MutableMultiset({self._size} elements)"


def _coerce(value) -> Multiset:
    """Accept plain iterables anywhere a Multiset is expected."""
    if isinstance(value, Multiset):
        return value
    return Multiset(value)


_EMPTY = Multiset()
