"""Exact sorted keys, base-relative deficit counters and the frozen-weight replay.

``SortedKeys`` is the package's one sorted index: a sorted list of one
``(value, key)`` pair per key, so ``pairs[0]`` is the minimum with the
smallest key on ties. A change bisects out the key's old pair and
``insort``s the new one, O(log k) comparisons plus a C-level memmove, so no
entry is ever stale.

The ledger keeps its keys in one, ordered by deficit then destination id. A
destination's deficit is its raw value minus the ledger's base.
Renormalizing every counter by the minimum (done when a destination is
admitted) moves the base up to the front key's raw value, which is O(1).
``deltas()`` reads out the difference encoding, each deficit less its
predecessor's: deficits {4, 6, 7, 7} read as deltas {4, 2, 1, 0}.

``replay_frozen`` is the bulk select-then-charge loop behind the fairness
suites. It does not drive ``DeficitLedger``: with weights frozen and no
admissions or evictions, a heap of ``(deficit, id)`` pairs selects in the
same order at O(log k) per step, and the test suite pins it to
select-then-charge loops over ``DeficitLedger`` and a naive oracle.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from heapq import heappop, heappush, heapreplace

# Read only by the benchmark harness, which records it in result metadata.
REPLAY_BACKEND = "pure"


class EmptyLedger(Exception):
    """Minimum requested from a ledger with no destinations."""


class UnknownDestination(Exception):
    """Operation on a destination the caller never admitted."""


class AlreadyAdmitted(Exception):
    """Admission of a destination already present."""


class SortedKeys:
    """One ``(value, key)`` pair per key, kept sorted in ``pairs``.

    ``values`` maps each key to its value. Callers read both directly and
    change them only through the methods.
    """

    __slots__ = ("pairs", "values")

    def __init__(self) -> None:
        self.pairs: list[tuple[int, int]] = []
        self.values: dict[int, int] = {}

    def set(self, key: int, value: int) -> None:
        """Give ``key`` the value ``value``, adding the key if it is new."""
        pairs, values = self.pairs, self.values
        if key in values:
            del pairs[bisect_left(pairs, (values[key], key))]
        values[key] = value
        insort(pairs, (value, key))

    def add(self, key: int, amount: int) -> None:
        """Add ``amount`` to the value of ``key``; KeyError if it is absent."""
        pairs, values = self.pairs, self.values
        value = values[key]
        del pairs[bisect_left(pairs, (value, key))]
        values[key] = value = value + amount
        insort(pairs, (value, key))

    def discard(self, key: int) -> None:
        """Remove ``key`` if present."""
        values = self.values
        if key in values:
            pairs = self.pairs
            del pairs[bisect_left(pairs, (values.pop(key), key))]


class DeficitLedger:
    """Sorted deficit counters stored relative to a base.

    ``_keys`` holds each destination's raw value and a deficit is
    ``raw - _base``, so renormalization on admit only moves the base.
    """

    def __init__(self) -> None:
        self._keys = SortedKeys()
        self._base = 0

    def __len__(self) -> int:
        return len(self._keys.pairs)

    def __contains__(self, dest: int) -> bool:
        return dest in self._keys.values

    def pop_min(self) -> int:
        """Destination with the minimum deficit, smallest id on ties.

        Selection only; the entry stays in place.
        """
        pairs = self._keys.pairs
        if not pairs:
            raise EmptyLedger("no active destinations")
        return pairs[0][1]

    def charge(self, dest: int, amount: int) -> None:
        """Increase a destination's deficit by ``amount`` and re-sort it."""
        if amount < 0:
            raise ValueError("charge amount must be non-negative")
        try:
            self._keys.add(dest, amount)
        except KeyError:
            raise UnknownDestination(f"destination {dest} is not in the ledger") from None

    def admit(self, dest: int, initial_deficit: int = 0) -> None:
        """Renormalize all deficits by the current minimum, then insert.

        The renormalization moves the base to the minimum's raw value; the
        new destination enters with ``initial_deficit`` (relative to the
        renormalized counters).
        """
        keys = self._keys
        if dest in keys.values:
            raise AlreadyAdmitted(f"destination {dest} is already in the ledger")
        if initial_deficit < 0:
            raise ValueError("initial deficit must be non-negative")
        if keys.pairs:
            self._base = keys.pairs[0][0]
        keys.set(dest, self._base + initial_deficit)

    def evict(self, dest: int) -> None:
        """Remove a destination; every other decoded deficit is unchanged."""
        if dest not in self._keys.values:
            raise UnknownDestination(f"destination {dest} is not in the ledger")
        self._keys.discard(dest)

    def decode(self) -> dict[int, int]:
        """Absolute deficit per destination, in ledger order."""
        base = self._base
        return {dest: raw - base for raw, dest in self._keys.pairs}

    def deltas(self) -> list[tuple[int, int]]:
        """The difference encoding, in ledger order, for tests and snapshots."""
        out = []
        previous = self._base
        for raw, dest in self._keys.pairs:
            out.append((dest, raw - previous))
            previous = raw
        return out


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of a frozen-weight select-then-charge replay.

    ``spread_violation`` / ``weighted_violation`` are the 1-based step at
    which the deficit spread (respectively the weighted selection-count
    spread) first exceeded the maximum weight, or -1 if never: the bounded
    -spread guarantees hold exactly when both stay at -1.
    """

    counts: list[int]
    deficits: list[int]
    spread_violation: int
    weighted_violation: int
    max_spread: int
    max_weighted_spread: int
    sequence: list[int] | None

    @property
    def fair(self) -> bool:
        return self.spread_violation < 0 and self.weighted_violation < 0


def replay_frozen(
    weights: list[int], steps: int, record_sequence: bool = False
) -> ReplayResult:
    """Run ``steps`` rounds of select-then-charge over frozen weights.

    Destination ids are the indices of ``weights`` (microseconds, positive);
    every destination starts admitted with deficit zero.

    Each step costs O(log k). A heap of ``(deficit, id)`` selects in the
    ledger's own order (smallest deficit, then smallest id), and since
    deficits only grow, the largest is a running max. The weighted counts
    ``count * weight`` are tracked apart from the deficits, with their own
    running max and a min-heap whose stale entries are dropped lazily.
    """
    k = len(weights)
    if k == 0:
        raise ValueError("need at least one destination")
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be positive")
    max_w = max(weights)
    deficit_heap = [(0, dest) for dest in range(k)]  # sorted, hence a heap
    product_heap = [(0, dest) for dest in range(k)]
    counts = [0] * k
    products = [0] * k
    sequence: list[int] | None = [] if record_sequence else None
    top_deficit = 0
    top_product = 0
    spread_violation = -1
    weighted_violation = -1
    max_spread = 0
    max_weighted = 0
    for step in range(1, steps + 1):
        deficit, dest = deficit_heap[0]
        weight = weights[dest]
        deficit += weight
        heapreplace(deficit_heap, (deficit, dest))
        if deficit > top_deficit:
            top_deficit = deficit
        count = counts[dest] + 1
        counts[dest] = count
        product = count * weight
        products[dest] = product
        if product > top_product:
            top_product = product
        heappush(product_heap, (product, dest))
        while product_heap[0][0] != products[product_heap[0][1]]:
            heappop(product_heap)
        if sequence is not None:
            sequence.append(dest)
        spread = top_deficit - deficit_heap[0][0]
        if spread > max_spread:
            max_spread = spread
        if spread > max_w and spread_violation < 0:
            spread_violation = step
        weighted = top_product - product_heap[0][0]
        if weighted > max_weighted:
            max_weighted = weighted
        if weighted > max_w and weighted_violation < 0:
            weighted_violation = step
    deficits = [0] * k
    for deficit, dest in deficit_heap:
        deficits[dest] = deficit
    return ReplayResult(
        counts,
        deficits,
        spread_violation,
        weighted_violation,
        max_spread,
        max_weighted,
        sequence,
    )
