"""Exact sorted keys, base-relative deficit counters and the frozen-weight replay.

The ledger's order, smallest value and then smallest key, has one encoding
in the package: the int ``value << shift | key``, with ``shift`` at least
the bit width of every key. Keys are non-negative, so ``key < 1 << shift``
and the ints sort exactly as the ``(value, key)`` pairs would, for any int
values, negative ones included; ``entry >> shift`` is the value and
``entry & mask`` the key, ``mask = (1 << shift) - 1``. ``SortedKeys`` and
``replay_frozen`` both use it, so ``bisect``, ``insort`` and ``heapq``
compare plain ints and no tuple is built.

``SortedKeys`` is the package's one sorted structure, behind the ledger and
every sorted index of ``policy``: a sorted list of one such int per key, so
``order[0]`` is the minimum with the smallest key on ties.
Its ``shift`` comes from the keys themselves: it starts at 0 and, on the
first key that does not fit, widens to that key's bit width and re-encodes
the list, which keeps its order. A change bisects out the key's old entry
and ``insort``s the new one, O(log k) comparisons plus a C-level memmove, so
no entry is ever stale. Callers read an index's front inline, without a
call: a round-robin request makes two frames in this module, ``charge`` as
it selects and ``SortedKeys.set`` as its response updates the weight index
(6 in all with ``policy`` and ``estimator``).

The ledger keeps its keys in one, ordered by deficit then destination id. A
destination's deficit is its raw value minus the ledger's base.
Renormalizing every counter by the minimum (done when a destination is
admitted) moves the base up to the front key's raw value, which is O(1).
``charge`` is one whole step of the deficit scheduler, and the only
charge: it takes the front, charges it its weight and re-sorts it in place.
It drops ``order[0]`` and ``insort``s that entry plus ``weight << shift``,
which is ``(value + weight) << shift | key`` for any int value, with no
bisect for the old entry and no call to ``SortedKeys``.
``deltas()`` reads out the difference encoding, each deficit less its
predecessor's: deficits {4, 6, 7, 7} read as deltas {4, 2, 1, 0}.

``replay_frozen`` is the bulk select-then-charge loop behind the fairness
suites. It does not drive ``DeficitLedger``: with weights frozen and no
admissions or evictions, a heap of the same ints ``deficit << shift | id``,
with ``shift`` the bit width of the largest id, selects in the same order
at O(log k) per step. The test suite pins it to select-then-charge loops
over ``DeficitLedger`` and a naive oracle.

In that replay every deficit starts at zero and each selection adds the
destination's own frozen weight (deficit round-robin, Shreedhar and
Varghese, SIGCOMM 1995), so ``deficit[d] == count[d] * weight[d]`` at every
step and the weighted selection-count spread is the deficit spread. The
replay reports that one spread, measured only at a step that raises the
largest key, since the minimum never falls; it records no selection order.
It tallies counts per step, so the fairness suite's identity check on each
run's final counts tests the replay, not its construction. Pin tests match
every prefix's replay to a manual loop's state after that step: that checks
the identity at every step and, by the count that rises, the selection order.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from heapq import heapreplace

# Read only by the benchmark harness, which records it in result metadata.
REPLAY_BACKEND = "pure"


class EmptyLedger(Exception):
    """Charge of a ledger with no destinations."""


class UnknownDestination(Exception):
    """Operation on a destination the caller never admitted."""


class AlreadyAdmitted(Exception):
    """Admission of a destination already present."""


class SortedKeys:
    """One int ``value << shift | key`` per key, kept sorted in ``order``.

    ``values`` maps each key to its value; ``mask`` is ``(1 << shift) - 1``,
    so ``order[0] >> shift`` is the least value and ``order[0] & mask`` its
    key. Callers read all four directly and change them only through the
    methods. Keys are non-negative ints: a negative key raises ValueError.
    """

    __slots__ = ("order", "values", "shift", "mask")

    def __init__(self) -> None:
        self.order: list[int] = []
        self.values: dict[int, int] = {}
        self.shift = 0
        self.mask = 0

    def set(self, key: int, value: int) -> None:
        """Give ``key`` the value ``value``, adding the key if it is new."""
        order, values, shift = self.order, self.values, self.shift
        if key in values:
            del order[bisect_left(order, values[key] << shift | key)]
        elif key >> shift:
            shift = self._widen(key)
        values[key] = value
        insort(order, value << shift | key)

    def discard(self, key: int) -> None:
        """Remove ``key`` if present."""
        values = self.values
        if key in values:
            order = self.order
            del order[bisect_left(order, values.pop(key) << self.shift | key)]

    def _widen(self, key: int) -> int:
        """Widen ``shift`` to the bit width of ``key`` and re-encode every
        entry, in place and in the same order; return the new shift."""
        if key < 0:
            raise ValueError(f"a key must be a non-negative int, got {key}")
        old, mask = self.shift, self.mask
        self.shift = shift = key.bit_length()
        self.mask = (1 << shift) - 1
        self.order[:] = [entry >> old << shift | entry & mask for entry in self.order]
        return shift


class DeficitLedger:
    """Sorted deficit counters stored relative to a base.

    ``keys`` holds each destination's raw value and a deficit is
    ``raw - _base``, so renormalization on admit only moves the base.
    Callers may read ``keys`` (its front is the destination the next
    ``charge`` charges) and change it only through the methods.
    """

    def __init__(self) -> None:
        self.keys = SortedKeys()
        self._base = 0

    def __len__(self) -> int:
        return len(self.keys.order)

    def __contains__(self, dest: int) -> bool:
        return dest in self.keys.values

    def charge(self, weights) -> int:
        """Charge the front, the least deficit with the smallest id on ties,
        its weight ``weights[front]``, re-sort it in place (module
        docstring) and return its id."""
        keys = self.keys
        order = keys.order
        if not order:
            raise EmptyLedger("no active destinations")
        front = order[0]
        dest = front & keys.mask
        amount = weights[dest]
        if amount < 0:
            raise ValueError("charge amount must be non-negative")
        del order[0]
        keys.values[dest] += amount
        insort(order, front + (amount << keys.shift))
        return dest

    def admit(self, dest: int, initial_deficit: int = 0) -> None:
        """Renormalize all deficits by the current minimum, then insert.

        The renormalization moves the base to the minimum's raw value; the
        new destination enters with ``initial_deficit`` (relative to the
        renormalized counters).
        """
        keys = self.keys
        if dest in keys.values:
            raise AlreadyAdmitted(f"destination {dest} is already in the ledger")
        if initial_deficit < 0:
            raise ValueError("initial deficit must be non-negative")
        if keys.order:
            self._base = keys.order[0] >> keys.shift
        keys.set(dest, self._base + initial_deficit)

    def evict(self, dest: int) -> None:
        """Remove a destination; every other decoded deficit is unchanged."""
        if dest not in self.keys.values:
            raise UnknownDestination(f"destination {dest} is not in the ledger")
        self.keys.discard(dest)

    def decode(self) -> dict[int, int]:
        """Absolute deficit per destination, in ledger order."""
        keys, base = self.keys, self._base
        shift, mask = keys.shift, keys.mask
        return {entry & mask: (entry >> shift) - base for entry in keys.order}

    def deltas(self) -> list[tuple[int, int]]:
        """The difference encoding, in ledger order; only the tests read it."""
        keys = self.keys
        shift, mask = keys.shift, keys.mask
        out = []
        previous = self._base
        for entry in keys.order:
            raw = entry >> shift
            out.append((entry & mask, raw - previous))
            previous = raw
        return out


@dataclass(frozen=True)
class ReplayResult:
    """A frozen-weight replay's state after its last step: ``counts`` and
    ``deficits`` by destination id. ``spread_violation`` is the 1-based step
    at which the deficit spread first exceeded the maximum weight, or -1 if
    never; ``max_spread`` is the largest spread seen."""

    counts: list[int]
    deficits: list[int]
    spread_violation: int
    max_spread: int


def replay_frozen(weights: list[int], steps: int) -> ReplayResult:
    """The state after ``steps`` rounds of select-then-charge over frozen weights.

    Destination ids are the indices of ``weights`` (microseconds, positive);
    every destination starts admitted with deficit zero.

    Each step costs O(log k) on a heap of ints ``deficit << shift | id``,
    ``shift = (k - 1).bit_length()``: ``key & mask`` is the id, ``key >>
    shift`` the deficit, and a charge adds the precomputed ``weight <<
    shift``, so no tuple is built or compared.

    The spread is measured only when the charged key rises above the
    running top, the largest key so far. Every weight is positive, so the
    heap minimum never falls; at a step where the top does not rise, the
    spread is therefore no larger than at the step before. Neither the
    largest spread nor the first step above the largest weight can fall on
    such a step, so both are what a check of every step gives.

    Counts are tallied per step, not derived as ``deficit // weight``: the
    short-term suite checks ``count * weight == deficit``, which derived
    counts would satisfy by construction.
    """
    k = len(weights)
    if k == 0:
        raise ValueError("need at least one destination")
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be positive")
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    max_w = max(weights)
    shift = (k - 1).bit_length()
    mask = (1 << shift) - 1
    charges = [w << shift for w in weights]
    heap = list(range(k))  # every deficit zero: sorted, hence a heap
    counts = [0] * k
    top = k - 1
    violation = -1
    max_spread = 0
    for step in range(1, steps + 1):
        key = heap[0]
        dest = key & mask
        key += charges[dest]
        heapreplace(heap, key)
        counts[dest] += 1
        if key > top:
            top = key
            spread = (key >> shift) - (heap[0] >> shift)
            if spread > max_spread:
                max_spread = spread
                # the first spread above max_w is also a new maximum
                if spread > max_w and violation < 0:
                    violation = step
    deficits = [0] * k
    for key in heap:
        deficits[key & mask] = key >> shift
    return ReplayResult(counts, deficits, violation, max_spread)
